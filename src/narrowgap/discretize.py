"""Finite differences for the narrow-region system on the mapped box.

Instead of meshing the curved gap, the solver pulls the problem back through
x_n = h2(x') + t * delta(x') onto the box B'_{2R0} x [0, 1], where uniform
grids stay well conditioned however small the gap is.  Writing G for the
Jacobian of the map x -> y = (x', t), the weak form transforms exactly with

    Atil^{ab} = delta * G_{aA} G_{bB} A^{AB},     Btil^a = delta * G_{aA} B^A,
    Ctil^b   = delta * G_{bB} C^B,                Dtil  = delta * D,

so the transformed problem keeps the same divergence structure

    d_a ( Atil d_b u + Btil u ) + Ctil d_b u + Dtil u = -delta * F

and Atil inherits ellipticity wherever delta > 0.  No first-order terms are
created by the map itself; the curvature lives inside the variable Atil.
For n = 2, G = [[1, 0], [d1 v, d2 v]]: the pull-back and the gradient
recovery grad_x u = G^T grad_y u are written out entry by entry from grad v.

Stencils are the standard second-order ones: half-node flux averages for the
aligned second-derivative terms, composed centered differences for the cross
terms, centered differences for the first-order terms.  Dirichlet rows are
replaced by identity rows carrying the trace values.

The matrix depends only on the tensor, the region and the grid; boundary data
and forcing enter the right-hand side alone.  A LinearSystem therefore holds
one lazily built factorization that every right-hand side solved against it
shares.  The direct factorization eliminates the identity Dirichlet rows and
factors the free block as a band, O(n b^2) at BLAS-3 speed: the classical
choice for thin structured grids (George & Liu 1981, ch. 4; LAPACK xPBTRF).
The stencil's block table is the operator: the band is filled from it one
slice per offset and component pair, the Dirichlet coupling is summed from it
on the boundary strips alone, and the backward error's K x is summed from it
over the interior.  Every right-hand side of one system can be solved in one
pass: the coupling, the triangular solves and the backward error each run
once over the stack.  ``LinearSystem.matrix`` is kept for the tests and for
the benchmark's read of its shape.  No sparse matrix is built.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .ansatz import AnsatzField, BoundaryTraces, apply_operator
from .coefficients import CoefficientTensor
from .geometry import GeometryError, NarrowRegion, require_planar


class AssemblyError(RuntimeError):
    """Non-finite coefficient samples or inconsistent grid data."""


class SolverError(RuntimeError):
    """Failed factorization, or a residual still above tol after refinement."""


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoxGrid:
    """Uniform grid on the mapped box [-half_width, half_width] x [0, 1].

    The axes are (x1, t), t last.  Grids are planar: ``grid_for`` refuses a
    region with n != 2.  Node indexing is lexicographic in C order, unknowns
    are component-major: global index = component * nodes + node.
    """

    tangential_nodes: int
    vertical_nodes: int
    half_width: float

    def __post_init__(self):
        if self.tangential_nodes < 3 or self.vertical_nodes < 3:
            raise AssemblyError("need at least 3 nodes per axis")
        if self.half_width <= 0:
            raise AssemblyError("half_width must be positive")

    @property
    def shape(self):
        return (self.tangential_nodes, self.vertical_nodes)

    @property
    def nodes(self):
        return self.tangential_nodes * self.vertical_nodes

    @property
    def axes(self):
        """(x1 nodes, t nodes)."""
        return (np.linspace(-self.half_width, self.half_width, self.tangential_nodes),
                np.linspace(0.0, 1.0, self.vertical_nodes))

    @property
    def spacing(self):
        return tuple(ax[1] - ax[0] for ax in self.axes)

    def node_coords(self):
        """(XP, T) as full grid arrays: XP shape (*shape, 1), T shape (*shape)."""
        X1, T = np.meshgrid(*self.axes, indexing="ij")
        return X1[..., None], T


def grid_for(region: NarrowRegion, tangential_nodes: int = 257,
             vertical_nodes: int = 65) -> BoxGrid:
    require_planar(region.n)
    return BoxGrid(tangential_nodes, vertical_nodes, 2.0 * region.R0)


# ---------------------------------------------------------------------------
# operator transform
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransformedFields:
    """Nodal coefficient fields of the transformed operator on the box."""

    grid: BoxGrid
    Atil: np.ndarray          # (*shape, N, N, 2, 2)
    Btil: np.ndarray | None
    Ctil: np.ndarray | None
    Dtil: np.ndarray | None


def _require_finite(name, arr):
    if arr is not None and not np.all(np.isfinite(arr)):
        bad = np.argwhere(~np.isfinite(arr))[0][:2]
        raise AssemblyError(f"non-finite transformed {name} at node index {tuple(map(int, bad))}")


def transform_operator(tensor: CoefficientTensor, region: NarrowRegion,
                       grid: BoxGrid) -> TransformedFields:
    """Evaluate the pulled-back coefficients at every grid node.

    For n = 2 the Jacobian is G = [[1, 0], [d1 v, d2 v]], and each product
    with G is written out row by row (``_apply_jacobian``).  Atil is summed
    as (G A) G^T: G A first, then its product with G^T.
    """
    XP, T = grid.node_coords()
    XP = XP[..., :1, :]                     # x'-factors once per column
    dlt = region.delta(XP)
    if np.any(dlt <= 0):
        raise GeometryError("gap function must stay positive on the patch")
    x = region.from_box(XP, T)
    dv = region.vbar_grad(XP, T)

    Atil = tensor.A(x)
    _apply_jacobian(np.swapaxes(Atil, -1, -2), dv)            # G A
    Atil = dlt[..., None, None, None, None] * _apply_jacobian(Atil, dv)   # (G A) G^T
    Btil = Ctil = Dtil = None
    if np.any(tensor.B0):
        Btil = dlt[..., None, None, None] * _apply_jacobian(tensor.B(x), dv)
    if np.any(tensor.C0):
        Ctil = dlt[..., None, None, None] * _apply_jacobian(tensor.C(x), dv)
    if np.any(tensor.D0):
        Dtil = dlt[..., None, None] * tensor.D(x)
    for name, arr in (("A", Atil), ("B", Btil), ("C", Ctil), ("D", Dtil)):
        _require_finite(name, arr)
    return TransformedFields(grid, Atil, Btil, Ctil, Dtil)


def _apply_jacobian(V, dv):
    """V <- G V over V's last axis, in place: (V_0, d1 v V_0 + d2 v V_1)."""
    v = dv.reshape(dv.shape[:-1] + (1,) * (V.ndim - dv.ndim) + (2,))
    V[..., 1] = v[..., 0] * V[..., 0] + v[..., 1] * V[..., 1]
    return V


def transform_forcing(region: NarrowRegion, grid: BoxGrid, forcing) -> np.ndarray:
    """Ftil = delta * F at every grid node, shape (*shape, N)."""
    XP, T = grid.node_coords()
    Ftil = region.delta(XP)[..., None] * np.asarray(
        forcing(region.from_box(XP, T)), dtype=float)
    _require_finite("F", Ftil)
    return Ftil


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def _interior(arr, o):
    """arr, leading axes on the grid, at the interior nodes shifted by offset o."""
    return arr[tuple(slice(1 + k, s - 1 + k) for k, s in zip(o, arr.shape))]


def _stencil_sum(blocks: dict, x, S):
    """sum over j, o of W[o][p, i, j] x[:, j, p + o] at the interior nodes p in S.

    ``x`` is a stack of shape (k, N, *shape) and S is a pair of slices of the
    interior; the result has shape (k, N, *strip).  The sum runs in the
    order of a column-sorted CSR row, component j outer and offsets by
    ascending stride inner, so each of the k rounds exactly as a CSR product
    would.
    """
    k, N = x.shape[:2]
    size = tuple(s.stop - s.start for s in S)
    acc, term = np.zeros((k, N) + size), np.empty((k,) + size)
    # by stride o[0] * shape[1] + o[1], since |o[1]| <= 1 and shape[1] >= 3
    offsets = sorted(blocks)
    for j in range(N):
        for o in offsets:
            xo = x[(slice(None), j)
                   + tuple(slice(1 + d + s.start, 1 + d + s.stop) for d, s in zip(o, S))]
            W = blocks[o][S]
            for i in range(N):
                acc[:, i] += np.multiply(W[..., i, j], xo, out=term)
    return acc


def _apply(blocks: dict, x):
    """K x for a stack x of shape (k, N, *shape), identity on the Dirichlet rows.

    The Dirichlet rows are the boundary nodes of every component; the
    interior rows are ``_stencil_sum`` over the whole interior.
    """
    y = x.copy()
    y[:, :, 1:-1, 1:-1] = _stencil_sum(blocks, x, tuple(slice(0, s - 2) for s in x.shape[2:]))
    return y


def _stencil_operator(blocks: dict, grid: BoxGrid, N: int) -> spla.LinearOperator:
    """K as a ``LinearOperator``, applied from the block table by ``_apply``.

    The closure holds the table and the grid only: a reference back to the
    LinearSystem would make a cycle that keeps a dropped system's
    factorization alive until the next collection.
    """
    shape = (1, N) + grid.shape

    def matvec(x):
        return _apply(blocks, np.reshape(x, shape)).ravel()

    return spla.LinearOperator((N * grid.nodes,) * 2, matvec=matvec, dtype=float)


@dataclass
class LinearSystem:
    """The stencil table, its Dirichlet mask and the shared factorization.

    ``blocks`` maps offset o -> W[o] of shape (*interior, N, N), where
    W[o][p, i, j] couples component i at interior node p to component j at
    node p + o.  Every boundary row is an identity Dirichlet row.  K is
    never stored: the banded factorization reads the free block and the
    Dirichlet coupling from the table, and ``solve_linear`` sums K x from it
    for the backward error.  ``matrix`` applies K from the table as a
    ``LinearOperator``; it is kept for the tests and for the benchmark's
    read of its shape.  ``nnz`` and ``frobenius`` are those of K, counted
    from the table.
    """

    dirichlet_mask: np.ndarray    # bool, length N * nodes
    grid: BoxGrid
    N: int
    blocks: dict
    matrix: spla.LinearOperator = field(init=False, repr=False)
    nnz: int = field(init=False, repr=False)
    frobenius: float = field(init=False, repr=False)
    _factor: object = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.matrix = _stencil_operator(self.blocks, self.grid, self.N)
        dirichlet = int(np.count_nonzero(self.dirichlet_mask))
        self.nnz = sum(w.size for w in self.blocks.values()) + dirichlet
        self.frobenius = float(np.sqrt(
            sum(np.vdot(w, w) for w in self.blocks.values()) + dirichlet))

    def factorization(self):
        """(factored free block, reused?, seconds spent factoring now).

        Built on first use and kept for every later right-hand side.  A
        failure keeps only its message, raised anew on each later call: a
        kept exception's traceback would hold this system.
        """
        if self._factor is None:
            t0 = time.perf_counter()
            try:
                self._factor = _FreeBlockBand(self)
            except SolverError as exc:
                self._factor = str(exc)
                raise
            return self._factor, False, time.perf_counter() - t0
        if isinstance(self._factor, str):
            raise SolverError(self._factor)
        return self._factor, True, 0.0


def assemble(tf: TransformedFields) -> LinearSystem:
    """Second-order stencil table with identity Dirichlet rows.

    The stencil is a table of N x N blocks, one per offset o in {-1, 0, 1}^2
    over (x1, t): W[o][p, i, j] couples component i at interior node p to
    component j at node p + o.  The derivative axes a, b run over (x1, t),
    and the offsets enter the table in the order this loop first meets
    them, which is the order ``LinearSystem.frobenius`` sums them in.  The
    table comes from the coefficient fields alone; ``right_hand_side``
    builds every right-hand side.
    """
    grid = tf.grid
    N = tf.Atil.shape[-3]
    h = grid.spacing

    def step(*moves):
        """Offset of the (sign, axis) moves."""
        o = [0, 0]
        for sign, axis in moves:
            o[axis] += sign
        return tuple(o)

    zero = step()
    W = defaultdict(float)                  # offset -> (*interior, N, N)
    for a in range(2):
        ea, mea = step((1, a)), step((-1, a))
        M = tf.Atil[..., a, a]
        Mp = 0.5 * (_interior(M, zero) + _interior(M, ea))
        Mm = 0.5 * (_interior(M, zero) + _interior(M, mea))
        ha2 = h[a] * h[a]
        W[ea] += Mp / ha2
        W[mea] += Mm / ha2
        W[zero] += -(Mp + Mm) / ha2
        for b in range(2):
            if b == a:
                continue
            c = 1.0 / (4.0 * h[a] * h[b])
            for sa in (1, -1):
                Ms = _interior(tf.Atil[..., a, b], step((sa, a))) * c
                W[step((sa, a), (1, b))] += sa * Ms
                W[step((sa, a), (-1, b))] += -sa * Ms
        if tf.Btil is not None:
            Bv = tf.Btil[..., a]
            W[ea] += _interior(Bv, ea) / (2 * h[a])
            W[mea] += -_interior(Bv, mea) / (2 * h[a])
        if tf.Ctil is not None:
            Cv = _interior(tf.Ctil[..., a], zero)
            W[ea] += Cv / (2 * h[a])
            W[mea] += -Cv / (2 * h[a])
    if tf.Dtil is not None:
        W[zero] += _interior(tf.Dtil, zero)

    bmask = np.ones(grid.shape, dtype=bool)
    _interior(bmask, zero)[...] = False
    return LinearSystem(np.tile(bmask.ravel(), N), grid, N, dict(W))


def right_hand_side(ls: LinearSystem, boundary_values, Ftil=None) -> np.ndarray:
    """Dirichlet values on the boundary rows, -Ftil on the interior rows.

    ``boundary_values`` has shape (*shape, N); only its boundary entries are
    read.  ``Ftil`` is the transformed forcing (``transform_forcing``).
    """
    shape, N = ls.grid.shape, ls.N
    bv = np.asarray(boundary_values, dtype=float)
    if bv.shape != shape + (N,):
        raise AssemblyError(f"boundary values must have shape {shape + (N,)}")
    rhs = np.zeros((N,) + shape)
    if Ftil is not None:
        rhs[...] = -np.moveaxis(Ftil, -1, 0)
    bmask = ls.dirichlet_mask.reshape((N,) + shape)
    data = np.moveaxis(bv, -1, 0)[bmask]
    if not np.all(np.isfinite(data)):
        raise AssemblyError("non-finite Dirichlet data")
    rhs[bmask] = data
    return rhs.ravel()


# ---------------------------------------------------------------------------
# banded factorization
# ---------------------------------------------------------------------------

class _FreeStencil:
    """The free block K_ff read off the stencil table, numbered node-major.

    Free unknown q * N + i is component i at the q-th interior node (C
    order, t fastest).  For interior nodes p and p + o, block W[o][p] sits
    at rows p * N + i and columns (p + step) * N + j, where step is the
    offset's stride in that numbering: on band diagonal r - c = -step * N
    + i - j.  Pairs whose p + o is a boundary node belong to K_fD instead.
    """

    def __init__(self, ls: LinearSystem):
        self.W, self.N = ls.blocks, ls.N
        self.inner = tuple(s - 2 for s in ls.grid.shape)
        self.pairs = {}                 # o -> (slice of p, slice of p + o, step)
        for o in self.W:
            if all(abs(k) < m for k, m in zip(o, self.inner)):
                src = tuple(slice(max(0, -k), m - max(0, k)) for k, m in zip(o, self.inner))
                tgt = tuple(slice(max(0, k), m + min(0, k)) for k, m in zip(o, self.inner))
                self.pairs[o] = src, tgt, o[0] * self.inner[1] + o[1]
        N = self.N
        self.kd = max(abs(step) * N + N - 1 for _, _, step in self.pairs.values())
        self.nnz = sum(N * N * int(np.prod([s.stop - s.start for s in src]))
                       for src, _, _ in self.pairs.values())

    def negative_diagonal(self) -> bool:
        W0 = self.W[(0, 0)]
        return bool(np.all(np.diagonal(W0, axis1=-2, axis2=-1) < 0))

    def symmetric(self) -> bool:
        """K_ff == K_ff^T: each block against its mirror, W[o][p] == W[-o][p + o]^T.

        The test for -o is that for o transposed, so each pair is tested once.
        """
        mirror = {o: tuple(-k for k in o) for o in self.pairs}
        return all(np.array_equal(self.W[o][src], np.swapaxes(self.W[mirror[o]][tgt], -1, -2))
                   for o, (src, tgt, _) in self.pairs.items() if o >= mirror[o])

    def band(self, rows: int, top: int, sign: float = 1.0) -> np.ndarray:
        """sign * K_ff in LAPACK band storage: entry (r, c) at ab[top + r - c, c].

        Diagonals that fall outside the ``rows`` stored ones are skipped, so
        rows = kd + 1, top = 0 gives the lower band.
        """
        N = self.N
        ab = np.zeros((rows, N * int(np.prod(self.inner))), order="F")
        for o, (src, tgt, step) in self.pairs.items():
            for i in range(N):
                for j in range(N):
                    d = top - step * N + i - j
                    if 0 <= d < rows:
                        diagonal = ab[d].reshape(self.inner + (N,))   # view: ab[d] is 1-d
                        diagonal[tgt + (j,)] = sign * self.W[o][src + (i, j)]
        return ab


class _FreeBlockBand:
    """Banded factorization of the free block, Dirichlet rows eliminated.

    The identity rows give x_D = b_D, so the free unknowns solve
    K_ff x_f = b_f - K_fD b_D.  K_fD b_D is nonzero only at the interior
    nodes next to the boundary, so ``_stencil_sum`` forms it on those four
    strips alone, from b_D with zeros inside: the zero terms of interior
    neighbours leave each sum as the whole-grid product rounds it.
    Numbered node-major (node * N + component, t fastest), K_ff is a band of
    half-bandwidth N * (vertical nodes - 1) + N - 1, filled block by block
    from the stencil table (``_FreeStencil``).
    An exactly symmetric K_ff with a negative diagonal is factored as -K_ff
    by banded Cholesky from its lower band alone (``pbtrf``).  Any other
    block, and one that Cholesky finds indefinite, is factored by banded LU
    with partial pivoting (``gbtrf``), which needs about three times that
    storage.  The factor keeps the table, not the system: a reference back
    to the LinearSystem would make a cycle that keeps a dropped system's
    band alive until the next collection.
    """

    def __init__(self, ls: LinearSystem):
        self.blocks, self.N, self.shape = ls.blocks, ls.N, ls.grid.shape
        m1, m2 = (s - 2 for s in self.shape)
        strips = [(slice(0, 1), slice(0, m2)), (slice(m1 - 1, m1), slice(0, m2)),
                  (slice(1, m1 - 1), slice(0, 1)), (slice(1, m1 - 1), slice(m2 - 1, m2))]
        self.strips = []                            # disjoint, nonempty
        for S in strips:
            if all(s.start < s.stop for s in S) and S not in self.strips:
                self.strips.append(S)
        stencil = _FreeStencil(ls)
        self.kd = kd = stencil.kd
        if stencil.negative_diagonal() and stencil.symmetric():
            ab, info = lapack.dpbtrf(stencil.band(kd + 1, 0, -1.0), lower=1,
                                     overwrite_ab=1)
            if info == 0:
                self.routine, self.ab, self.fill = "pbtrf", ab, ab.size / stencil.nnz
                return
            del ab                                  # indefinite: banded LU below
        ab, self.ipiv, info = lapack.dgbtrf(stencil.band(3 * kd + 1, 2 * kd), kd, kd,
                                            overwrite_ab=1)
        if info != 0:
            del ab                          # a kept exception must not hold the band
            raise SolverError(f"banded LU factorization failed: gbtrf info {info}")
        self.routine, self.ab, self.fill = "gbtrf", ab, ab.size / stencil.nnz

    def solve(self, b):
        """Solutions of b, one right-hand side or a stack of k, in b's shape.

        The k right-hand sides share one coupling sum and one LAPACK call
        with k columns, which solves each column alone.
        """
        x = np.array(b, dtype=float).reshape((-1, self.N) + self.shape)
        bf = np.moveaxis(x[:, :, 1:-1, 1:-1], 1, -1).copy()  # (k, *inner, N): node-major
        x[:, :, 1:-1, 1:-1] = 0.0                            # x_D = b_D
        for S in self.strips:
            bf[(slice(None),) + S] -= np.moveaxis(_stencil_sum(self.blocks, x, S), 1, -1)
        cols = bf.reshape(len(x), -1).T                      # one Fortran column per b
        if self.routine == "pbtrf":
            xf = lapack.dpbtrs(self.ab, -cols, lower=1, overwrite_b=1)[0]
        else:
            xf = lapack.dgbtrs(self.ab, self.kd, self.kd, cols, self.ipiv, overwrite_b=1)[0]
        x[:, :, 1:-1, 1:-1] = np.moveaxis(xf.T.reshape(bf.shape), -1, 1)
        return x.reshape(np.shape(b))


# ---------------------------------------------------------------------------
# linear solve
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolveReport:
    method: str                   # LAPACK routine that factored: "pbtrf" or "gbtrf"
    unknowns: int
    nnz: int
    residual: float
    fill: float = 0.0
    elapsed: float = 0.0
    grid: str = ""                # "257x65"
    factor_s: float = 0.0         # 0 when the factorization was reused
    solve_s: float = 0.0
    reused: bool = False
    rhs: int = 1                  # right-hand sides solved in the same pass

    def record(self):
        return {"method": self.method, "unknowns": self.unknowns, "nnz": self.nnz,
                "residual": self.residual, "fill": self.fill,
                "elapsed": self.elapsed, "grid": self.grid,
                "factor_s": self.factor_s, "solve_s": self.solve_s,
                "reused": self.reused, "rhs": self.rhs}


def _backward_errors(ls: LinearSystem, x, b):
    """Normwise backward error |Kx - b| / (|K|_F |x| + |b|) of each row of x, b.

    x and b are stacks of shape (k, N, *shape); K x - b is summed from the
    table (``_apply``) for all k at once.
    """
    r = _apply(ls.blocks, x)
    r -= b
    out = np.empty(len(x))
    for j in range(len(x)):
        num = np.linalg.norm(r[j])
        den = ls.frobenius * np.linalg.norm(x[j]) + np.linalg.norm(b[j])
        out[j] = num / den if den else num
    return out


def solve_linear(ls: LinearSystem, rhs, tol=1e-10):
    """Direct solve against the system's shared banded factorization.

    ``rhs`` is one right-hand side (n,) or a stack (k, n) solved in one
    pass, and ``tol`` one bound or one per row.  The reported residual is
    the normwise backward error |Kx - b| / (|K| |x| + |b|) of the full
    system, recomputed from each returned solution; a row whose error
    exceeds its tol gets one step of iterative refinement on its own, and
    fails with SolverError when it still does.

    One right-hand side returns (x, SolveReport) and raises its SolverError.
    A stack returns (x, reports) with x of shape (k, n) and one SolveReport
    per row, or the SolverError of a row that failed; the first
    SolveReport carries the pass's times.  A failed factorization raises.
    """
    b = np.asarray(rhs, dtype=float)
    B = b.reshape((-1, ls.N) + ls.grid.shape)
    tols = np.broadcast_to(tol, len(B))
    t0 = time.perf_counter()
    factor, reused, factor_s = ls.factorization()
    t1 = time.perf_counter()
    X = factor.solve(B)
    res = _backward_errors(ls, X, B)
    for j in np.flatnonzero(res > tols):    # one step of iterative refinement
        row = slice(j, j + 1)
        X[row] += factor.solve(B[row] - _apply(ls.blocks, X[row]))
        res[j] = _backward_errors(ls, X[row], B[row])[0]
    t2 = time.perf_counter()
    reports, times = [], {"elapsed": t2 - t0, "factor_s": factor_s,
                          "solve_s": t2 - t1, "reused": reused}
    for r, t in zip(res, tols):
        if r > t:
            reports.append(SolverError(f"direct solve residual {r:.3e} above tol {t:.1e}"))
            continue
        reports.append(SolveReport(factor.routine, ls.N * ls.grid.nodes, ls.nnz, float(r),
                                   fill=float(factor.fill),
                                   grid="x".join(map(str, ls.grid.shape)),
                                   rhs=len(B), **times))
        times = {"reused": True}            # the rest were solved in this pass
    if b.ndim == 1:
        if isinstance(reports[0], SolverError):
            raise reports.pop()             # held by no local: no cycle through the frame
        return X.ravel(), reports[0]
    return X.reshape(len(B), -1), reports


# ---------------------------------------------------------------------------
# discrete field
# ---------------------------------------------------------------------------

@dataclass
class DiscreteField:
    """Grid solution with mapped-coordinate differentiation and unmapping."""

    grid: BoxGrid
    region: NarrowRegion
    values: np.ndarray            # (N, *shape)
    _grad_cache: np.ndarray | None = field(default=None, repr=False)

    @property
    def N(self):
        return self.values.shape[0]

    def mapped_gradient(self):
        """d û / d(x1, t) at every node, shape (N, 2, *shape); second order."""
        out = np.empty((self.N, 2) + self.grid.shape)
        for a, h in enumerate(self.grid.spacing):
            out[:, a] = _diff_axis(self.values, 1 + a, h)
        return out

    def gradient_nodes(self):
        """Physical gradients G^T grad_y u at nodes, shape (N, 2, *shape)."""
        if self._grad_cache is None:
            XP, T = self.grid.node_coords()
            dv = self.region.vbar_grad(XP[..., :1, :], T)       # (*shape, 2)
            g = self.mapped_gradient()
            g[:, 0] += g[:, 1] * dv[..., 0]                     # d_1 u + d_t u d1 v
            g[:, 1] *= dv[..., 1]                               # d_t u d2 v
            g.flags.writeable = False                           # shared by every reader
            self._grad_cache = g
        return self._grad_cache

    def _box_fractions(self, xp, t):
        xp, t = self.region._box(xp, t)
        fracs = []
        for c, ax in zip((xp[..., 0], t), self.grid.axes):
            f = (c - ax[0]) / (ax[1] - ax[0])
            if np.any(f < -1e-9) or np.any(f > len(ax) - 1 + 1e-9):
                raise GeometryError("point outside the grid; extrapolation refused")
            fracs.append(np.clip(f, 0.0, len(ax) - 1))
        return fracs

    def _interpolate(self, nodal, xp, t):
        """Bilinear interpolation of a (*shape,)-leading nodal array at (x', t).

        The corners are summed in the order (i, j), (i+1, j), (i, j+1),
        (i+1, j+1), each weight formed x1 factor first: the order of the
        2^n corner loop the tests keep as reference, so the sum rounds the same.
        """
        fx, ft = self._box_fractions(xp, t)
        i = np.minimum(np.floor(fx).astype(int), self.grid.shape[0] - 2)
        j = np.minimum(np.floor(ft).astype(int), self.grid.shape[1] - 2)
        wx, wt = fx - i, ft - j
        ux, ut = 1.0 - wx, 1.0 - wt
        return (nodal[i, j] * np.asarray(ux * ut)[..., None]
                + nodal[i + 1, j] * np.asarray(wx * ut)[..., None]
                + nodal[i, j + 1] * np.asarray(ux * wt)[..., None]
                + nodal[i + 1, j + 1] * np.asarray(wx * wt)[..., None])

    def value_at(self, xp, t):
        """(..., N) bilinear interpolant of the nodal solution at (x', t)."""
        nodal = np.moveaxis(self.values, 0, -1)
        return self._interpolate(nodal, xp, t)

    def recover_gradient(self, xp, t):
        """(..., N, 2) gradient at (x', t): interpolated nodal physical gradients."""
        g = self.gradient_nodes()                            # (N, 2, *shape)
        nodal = np.moveaxis(g.reshape((self.N * 2,) + self.grid.shape), 0, -1)
        flat = self._interpolate(nodal, xp, t)
        return flat.reshape(flat.shape[:-1] + (self.N, 2))

    def l2_norm(self):
        """Mapped midpoint quadrature of |u|^2 with Jacobian delta(x')."""
        u = np.moveaxis(self.values, 0, -1)
        u = 0.5 * (u[:-1] + u[1:])
        u = 0.5 * (u[:, :-1] + u[:, 1:])
        x1 = self.grid.axes[0]
        dlt = self.region.delta(0.5 * (x1[:-1] + x1[1:])[:, None])
        w = np.sum(u * u, axis=-1) * dlt[..., None]
        vol = float(np.prod(self.grid.spacing))
        return float(np.sqrt(w.sum() * vol))


def _diff_axis(vals, axis, h):
    """Second-order differences along one axis: centered inside, one-sided at ends."""
    out = np.empty_like(vals)
    up = [slice(None)] * vals.ndim

    def ax(sl):
        s = list(up)
        s[axis] = sl
        return tuple(s)

    out[ax(slice(1, -1))] = (vals[ax(slice(2, None))] - vals[ax(slice(0, -2))]) / (2 * h)
    out[ax(slice(0, 1))] = (-3 * vals[ax(slice(0, 1))] + 4 * vals[ax(slice(1, 2))]
                            - vals[ax(slice(2, 3))]) / (2 * h)
    out[ax(slice(-1, None))] = (3 * vals[ax(slice(-1, None))] - 4 * vals[ax(slice(-2, -1))]
                                + vals[ax(slice(-3, -2))]) / (2 * h)
    return out


# ---------------------------------------------------------------------------
# boundary data and the end-to-end pipeline
# ---------------------------------------------------------------------------

CLOSURES = ("ansatz", "constant", "exact")


def dirichlet_values(grid: BoxGrid, region: NarrowRegion,
                     traces: BoundaryTraces | None, closure: str = "ansatz",
                     ansatz: AnsatzField | None = None, lateral_value=None,
                     exact=None) -> np.ndarray:
    """Nodal Dirichlet data: traces on t = 0, 1; faces x1 = +-half_width per closure.

    Corners follow the top/bottom traces (the lateral faces are written
    first and the trace rows overwrite the shared corners).  ``exact``
    closure uses the supplied field everywhere, which is what
    manufactured-solution runs need.
    """
    if closure not in CLOSURES:
        raise AssemblyError(f"unknown lateral closure {closure!r}")
    XP, T = grid.node_coords()
    if closure == "exact":
        if exact is None:
            raise AssemblyError("exact closure requires an exact field")
        return np.asarray(exact.value(region.from_box(XP, T)), dtype=float)

    if traces is None:
        raise AssemblyError("traces required unless closure is exact")
    N = traces.N
    V = np.zeros(grid.shape + (N,))
    if closure == "constant":
        if lateral_value is None:
            raise AssemblyError("constant closure requires lateral_value")
        V[0] = V[-1] = np.asarray(lateral_value, dtype=float)
    else:
        V[[0, -1]] = ansatz.value(XP[[0, -1]], T[[0, -1]])
    V[:, 0] = traces.psi.value(XP[:, 0])
    V[:, -1] = traces.phi.value(XP[:, -1])
    return V


def solve_bvp(tensor: CoefficientTensor, region: NarrowRegion,
              traces: BoundaryTraces | None | list, grid: BoxGrid,
              closure: str = "ansatz", ansatz: AnsatzField | None = None,
              lateral_value=None, exact=None, forcing=None,
              tol=1e-10, system: LinearSystem | None = None):
    """transform -> assemble -> solve -> DiscreteField.

    ``system`` is the already assembled LinearSystem of (tensor, region,
    grid): only the right-hand side is built then, and the solve shares the
    system's factorization with every other solve against it.

    ``traces`` may instead be a list of boundary-data sets (traces, closure,
    ansatz, lateral_value).  Every set's right-hand side is built first,
    then all are solved in one pass (``solve_linear`` on their stack), with
    ``tol`` shared or one per set.  The list returns one (DiscreteField,
    SolveReport) per set, or the exception that stopped that set alone; a
    failed factorization raises.
    """
    single = not isinstance(traces, list)
    sets = [(traces, closure, ansatz, lateral_value)] if single else traces
    if system is None:
        system = assemble(transform_operator(tensor, region, grid))
    Ftil = None if forcing is None else transform_forcing(region, grid, forcing)
    out, rows = [], []
    for tr, cl, af, lv in sets:
        try:
            if cl == "ansatz" and af is None:
                from .ansatz import build_ansatz
                af = build_ansatz(tensor, region, tr)
            V = dirichlet_values(grid, region, tr, cl, af, lv, exact)
            rows.append(right_hand_side(system, V, Ftil))
            out.append(None)
        except Exception as exc:
            if single:
                raise
            out.append(exc.with_traceback(None))
    shape = (system.N,) + grid.shape
    if single:
        x, report = solve_linear(system, rows[0], tol=tol)
        return DiscreteField(grid, region, x.reshape(shape)), report
    todo = [j for j, o in enumerate(out) if o is None]
    if todo:
        # a lone row is solved as a view: np.stack would copy it
        B = rows[0][None] if len(rows) == 1 else np.stack(rows)
        del rows
        X, reports = solve_linear(system, B, tol=np.broadcast_to(tol, len(sets))[todo])
        for j, x, rep in zip(todo, X, reports):
            out[j] = rep if isinstance(rep, SolverError) else (
                DiscreteField(grid, region, x.reshape(shape)), rep)
    return out


# ---------------------------------------------------------------------------
# manufactured solutions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrigSolution:
    """u_i = sin(x_1) x_n for even i, cos(x_1) x_n for odd i."""

    N: int
    n: int

    def _parts(self, x):
        x = np.asarray(x, dtype=float)
        return x[..., 0], x[..., -1]

    def value(self, x):
        x1, xn = self._parts(x)
        cols = [np.sin(x1) * xn if i % 2 == 0 else np.cos(x1) * xn
                for i in range(self.N)]
        return np.stack(cols, axis=-1)

    def grad(self, x):
        x1, xn = self._parts(x)
        out = np.zeros(np.shape(x1) + (self.N, self.n))
        for i in range(self.N):
            f, fp = (np.sin, np.cos) if i % 2 == 0 else (np.cos, lambda z: -np.sin(z))
            out[..., i, 0] = fp(x1) * xn
            out[..., i, -1] = f(x1)
        return out

    def hess(self, x):
        x1, xn = self._parts(x)
        out = np.zeros(np.shape(x1) + (self.N, self.n, self.n))
        for i in range(self.N):
            f, fp = (np.sin, np.cos) if i % 2 == 0 else (np.cos, lambda z: -np.sin(z))
            out[..., i, 0, 0] = -f(x1) * xn
            out[..., i, 0, -1] = fp(x1)
            out[..., i, -1, 0] = fp(x1)
        return out


def manufactured_forcing(tensor: CoefficientTensor, mms):
    """F with L[mms] = -F, so mms solves the forced problem exactly."""

    def F(x):
        x = np.asarray(x, dtype=float)
        return -apply_operator(tensor, x, mms.value(x), mms.grad(x), mms.hess(x))

    return F
