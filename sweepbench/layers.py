"""Wrap narrowgap's layer boundaries in spans and reduce spans to metrics.

Every wrapper replaces the attribute that the calling module looks up at
call time, so no narrowgap source changes: ``cli`` binds ``build_ansatz``,
``validate_profiles`` and the coefficient checks by name, the sweeps reach
the solver through ``experiments._disc`` and the statistics through the
``STATISTICS`` dict, and ``solve_linear`` calls ``discretize.spla.splu``.

Layer times are self times (a span's duration minus its traced children),
so they add up without double counting.  ``experiments.bundle_s`` is the
one inclusive time: it is the whole of every solve.
"""

from __future__ import annotations

import hashlib
import types

from spans import Tracer, self_times


class FactorLog:
    """Per-factorization counts gathered by the ``splu`` wrapper."""

    def __init__(self):
        self.digests = []
        self.fill = []
        self.lu_nnz = []
        self.unknowns = 0

    def factored(self, lu, args, kwargs):
        K = args[0]
        h = hashlib.blake2b(digest_size=16)
        h.update(repr((K.shape, K.format)).encode())
        for arr in (K.indptr, K.indices, K.data):
            h.update(arr.tobytes())
        self.digests.append(h.hexdigest())
        self.lu_nnz.append(int(lu.nnz))
        self.fill.append(lu.nnz / K.nnz)

    def solved(self, result, args, kwargs):
        self.unknowns += int(args[0].matrix.shape[0])


class ByteLog:
    def __init__(self):
        self.written = 0

    def wrote(self, result, args, kwargs):
        text = args[2] if len(args) > 2 else kwargs["text"]
        self.written += len(text.encode("utf-8"))


def install(tracer: Tracer):
    """Patch narrowgap in this process; returns the count logs."""
    from narrowgap import ansatz, cli, discretize, experiments

    factors, written = FactorLog(), ByteLog()

    def patch(owner, attr, name, after=None):
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), after))

    patch(cli, "validate_profiles", "geometry.validate_profiles")
    patch(cli, "check_pointwise_ellipticity", "coefficients.check_pointwise_ellipticity")
    patch(cli, "check_ann", "coefficients.check_ann")
    patch(cli._Emitter, "write", "cli.write", written.wrote)

    patch(discretize, "solve_bvp", "discretize.solve_bvp")
    patch(discretize, "transform_operator", "discretize.transform_operator")
    patch(discretize, "dirichlet_values", "discretize.dirichlet_values")
    patch(discretize, "assemble", "discretize.assemble")
    patch(discretize, "solve_linear", "discretize.solve_linear", factors.solved)
    patch(discretize.DiscreteField, "gradient_nodes", "discretize.gradient_nodes")
    spla = types.ModuleType("spla")
    spla.__dict__.update(vars(discretize.spla))
    patch(spla, "splu", "discretize.splu", factors.factored)
    discretize.spla = spla

    patch(ansatz, "build_ansatz", "ansatz.build_ansatz")
    patch(cli, "build_ansatz", "ansatz.build_ansatz")
    for method in ("value", "gradient", "residual"):
        patch(ansatz.AnsatzField, method, f"ansatz.{method}")

    patch(experiments.SolveBundle, "__init__", "experiments.bundle")
    for stat in list(experiments.STATISTICS):
        experiments.STATISTICS[stat] = tracer.wrap(
            "experiments.statistic", experiments.STATISTICS[stat])
    patch(experiments, "local_energy", "experiments.local_energy")
    patch(experiments, "fit_rate", "experiments.fit_rate")
    return factors, written


def layer_metrics(spans, factors: FactorLog, written: ByteLog):
    """Per-layer metrics of one traced pass (times in seconds)."""
    own = self_times(spans)
    self_s, inclusive_s, calls = {}, {}, {}
    for s in spans:
        self_s[s.name] = self_s.get(s.name, 0.0) + own[s.id]
        inclusive_s[s.name] = inclusive_s.get(s.name, 0.0) + (s.end - s.start)
        calls[s.name] = calls.get(s.name, 0) + 1

    def t(*names):
        return sum(self_s.get(n, 0.0) for n in names)

    n_factor = len(factors.digests)
    n_distinct = len(set(factors.digests))
    return {
        "geometry.validate_s": t("geometry.validate_profiles"),
        "coefficients.validate_s": t("coefficients.check_pointwise_ellipticity",
                                     "coefficients.check_ann"),
        "discretize.transform_s": t("discretize.transform_operator"),
        "discretize.assemble_s": t("discretize.assemble", "discretize.dirichlet_values"),
        "discretize.factor_s": t("discretize.splu"),
        "discretize.fill_mean": sum(factors.fill) / n_factor if n_factor else 0.0,
        "discretize.lu_nnz_max": max(factors.lu_nnz, default=0),
        "discretize.factor_calls": n_factor,
        "discretize.factor_distinct": n_distinct,
        "discretize.factor_useful_ratio": n_distinct / n_factor if n_factor else 0.0,
        "discretize.solve_s": t("discretize.solve_linear"),
        "discretize.unknowns_total": factors.unknowns,
        "discretize.gradient_s": t("discretize.gradient_nodes"),
        "ansatz.build_s": t("ansatz.build_ansatz"),
        "ansatz.build_calls": calls.get("ansatz.build_ansatz", 0),
        "ansatz.gradient_s": t("ansatz.gradient"),
        "ansatz.value_s": t("ansatz.value"),
        "ansatz.residual_s": t("ansatz.residual"),
        "experiments.bundle_s": inclusive_s.get("experiments.bundle", 0.0),
        "experiments.statistic_s": t("experiments.statistic"),
        "experiments.energy_s": t("experiments.local_energy"),
        "experiments.fit_s": t("experiments.fit_rate"),
        "cli.artifacts_s": t("cli.write"),
        "cli.bytes_written": written.written,
    }
