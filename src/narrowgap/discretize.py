"""Finite differences for the narrow-region system on the mapped box.

Instead of meshing the curved gap, the solver pulls the problem back through
x_n = h2(x') + t * delta(x') onto the box B'_{2R0} x [0, 1], where uniform
grids stay well conditioned however small the gap is.  Writing G for the
Jacobian of the map x -> y = (x', t), the weak form transforms exactly with

    Atil^{ab} = delta * G_{aA} G_{bB} A^{AB},     Btil^a = delta * G_{aA} B^A,
    Ctil^b   = delta * G_{bB} C^B,                Dtil  = delta * D,

so the transformed problem keeps the same divergence structure

    d_a ( Atil d_b u + Btil u ) + Ctil d_b u + Dtil u = 0

and Atil inherits ellipticity wherever delta > 0.  No first-order terms are
created by the map itself; the curvature lives inside the variable Atil.
For n = 2, G = [[1, 0], [d1 v, d2 v]]: the pull-back and the gradient
recovery grad_x u = G^T grad_y u are written out entry by entry from grad v.

Stencils are the standard second-order ones: half-node flux averages for the
aligned second-derivative terms, composed centered differences for the cross
terms, centered differences for the first-order terms.  The Dirichlet rows
are those of the grid's boundary nodes, read from its shape: identity rows
carrying the trace values.

The matrix depends only on the tensor, the region and the grid; the boundary
data enter the right-hand side alone, whose interior rows are zero: the
problem is homogeneous, with Dirichlet data phi on the top boundary, psi on
the bottom one and a closure on the lateral faces.  ``solve_linear`` takes a
stack of right-hand sides, factors the system once for it, drops the
factorization on return and returns the pass's times once, beside a report
per row.  It eliminates the identity Dirichlet rows and factors the free
block as a band, O(n b^2) at BLAS-3 speed: the classical choice for thin
structured grids (George & Liu 1981, ch. 4; LAPACK xPBTRF).
The stencil's block table is the operator: the band is filled from it one
slice per offset and component pair, the Dirichlet coupling is summed from it
on the boundary strips alone, and the backward error's K x is summed from it
over the interior.  The coupling, the triangular solves and the backward
error each run once over the stack.  ``LinearSystem.matrix`` is kept for the
tests and for the benchmark's read of its shape.  No sparse matrix is built.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .ansatz import AnsatzField, BoundaryTraces
from .coefficients import CoefficientTensor
from .geometry import GeometryError, NarrowRegion


TOL = 1e-10     # backward error a solve must reach, after one refinement step


class AssemblyError(RuntimeError):
    """Non-finite coefficient samples or inconsistent grid data."""


class SolverError(RuntimeError):
    """Failed factorization, or a residual still above TOL after refinement."""


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoxGrid:
    """Uniform grid on the mapped box [-half_width, half_width] x [0, 1].

    The axes are (x1, t), t last.  Node indexing is lexicographic in C
    order, unknowns are component-major: global index = component * nodes + node.
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

    @cached_property
    def axes(self):
        """(x1 nodes, t nodes), read-only: formed on first use and kept with the grid."""
        axes = (np.linspace(-self.half_width, self.half_width, self.tangential_nodes),
                np.linspace(0.0, 1.0, self.vertical_nodes))
        for ax in axes:
            ax.flags.writeable = False
        return axes

    @property
    def spacing(self):
        return tuple(ax[1] - ax[0] for ax in self.axes)

    def node_coords(self):
        """(X1, T) as full grid arrays of shape (*shape); a column is X1[:, :1]."""
        X1, T = np.meshgrid(*self.axes, indexing="ij")
        return X1, T


def grid_for(region: NarrowRegion, tangential_nodes: int = 257,
             vertical_nodes: int = 65) -> BoxGrid:
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


def box_jacobian(region: NarrowRegion, grid: BoxGrid) -> np.ndarray:
    """grad v at every node of ``grid``, shape (*shape, 2): the rows d1 v, d2 v of G."""
    x1, t = grid.axes
    return region.vbar_grad(x1[:, None], t)


def transform_operator(tensor: CoefficientTensor, region: NarrowRegion,
                       grid: BoxGrid, jacobian=None) -> TransformedFields:
    """Evaluate the pulled-back coefficients at every grid node.

    For n = 2 the Jacobian is G = [[1, 0], [d1 v, d2 v]], so a product with
    G keeps row 0 and forms row 1 as d1 v row 0 + d2 v row 1; ``jacobian``
    is ``box_jacobian(region, grid)`` when the caller has it already.  The
    fields are written plane by plane from the planes of A (A0, broadcast,
    unless the tensor varies), B0 and C0.  Atil is summed as (G A) G^T: G A
    first, then its product with G^T, then the factor delta.
    """
    x1, T = grid.axes
    X1 = x1[:, None]                        # x1-factors once per column
    dlt = region.delta(X1)
    if np.any(dlt <= 0):
        raise GeometryError("gap function must stay positive on the patch")
    dv = box_jacobian(region, grid) if jacobian is None else jacobian
    g1, g2 = dv[..., 0, None, None], dv[..., 1, None, None]   # (*shape, 1, 1)

    def rows(V0, V1):
        """Rows 0 and 1 of G V, given V's rows."""
        return V0, g1 * V0 + g2 * V1

    A = tensor.A0 if tensor.is_constant else tensor.A(region.from_box(X1, T))
    GA = [rows(A[..., 0, b], A[..., 1, b]) for b in range(2)]    # GA[b][a] = (G A)^{ab}
    Atil = np.empty(grid.shape + A.shape[-4:])
    for a in range(2):
        Atil[..., a, 0], Atil[..., a, 1] = rows(GA[0][a], GA[1][a])
    Atil *= dlt[..., None, None, None, None]

    def pulled(V0):
        """delta G V0 over V0's last axis, at every node."""
        V = np.empty(grid.shape + V0.shape)
        V[..., 0], V[..., 1] = rows(V0[..., 0], V0[..., 1])
        V *= dlt[..., None, None, None]
        return V

    Btil = pulled(tensor.B0) if np.any(tensor.B0) else None
    Ctil = pulled(tensor.C0) if np.any(tensor.C0) else None
    Dtil = None
    if np.any(tensor.D0):
        Dtil = dlt[..., None, None] * np.broadcast_to(tensor.D0, grid.shape + tensor.D0.shape)
    for name, arr in (("A", Atil), ("B", Btil), ("C", Ctil), ("D", Dtil)):
        _require_finite(name, arr)
    return TransformedFields(grid, Atil, Btil, Ctil, Dtil)


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
    LinearSystem would make a cycle that keeps a dropped system alive until
    the next collection.
    """
    shape = (1, N) + grid.shape

    def matvec(x):
        return _apply(blocks, np.reshape(x, shape)).ravel()

    return spla.LinearOperator((N * grid.nodes,) * 2, matvec=matvec, dtype=float)


@dataclass
class LinearSystem:
    """The stencil table of K on the box grid.

    ``blocks`` maps offset o -> W[o] of shape (*interior, N, N), where
    W[o][p, i, j] couples component i at interior node p to component j at
    node p + o.  Every boundary node of the grid carries an identity
    Dirichlet row per component: the grid's shape is the mask.  K is
    never stored: the banded factorization reads the free block and the
    Dirichlet coupling from the table, and ``solve_linear`` sums K x from it
    for the backward error.  ``matrix`` applies K from the table as a
    ``LinearOperator``; it is kept for the tests and for the benchmark's
    read of its shape.  ``nnz`` and ``frobenius`` are those of K, counted
    from the table.
    """

    grid: BoxGrid
    N: int
    blocks: dict
    matrix: spla.LinearOperator = field(init=False, repr=False)
    nnz: int = field(init=False, repr=False)
    frobenius: float = field(init=False, repr=False)

    def __post_init__(self):
        self.matrix = _stencil_operator(self.blocks, self.grid, self.N)
        interior = int(np.prod([s - 2 for s in self.grid.shape]))
        dirichlet = self.N * (self.grid.nodes - interior)
        self.nnz = sum(w.size for w in self.blocks.values()) + dirichlet
        self.frobenius = float(np.sqrt(
            sum(np.vdot(w, w) for w in self.blocks.values()) + dirichlet))


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
    return LinearSystem(grid, N, dict(W))


def right_hand_side(ls: LinearSystem, boundary_values) -> np.ndarray:
    """Dirichlet values on the boundary rows, zero on the interior rows.

    ``boundary_values`` has shape (*shape, N); only its boundary entries are
    read.  The right-hand side has the grid shape of the unknowns, (N, *shape).
    """
    shape, N = ls.grid.shape, ls.N
    bv = np.asarray(boundary_values, dtype=float)
    if bv.shape != shape + (N,):
        raise AssemblyError(f"boundary values must have shape {shape + (N,)}")
    rhs = np.moveaxis(bv, -1, 0).copy()
    rhs[:, 1:-1, 1:-1] = 0.0
    if not np.all(np.isfinite(rhs)):
        raise AssemblyError("non-finite Dirichlet data")
    return rhs


# ---------------------------------------------------------------------------
# banded factorization
# ---------------------------------------------------------------------------

def _free_pairs(ls: LinearSystem) -> dict:
    """The offsets of the table that couple two interior nodes.

    Maps o -> (slice of p, slice of p + o, step) over the interior, where
    step is the offset's stride in the node-major numbering of the free
    unknowns.  Pairs whose p + o is a boundary node belong to K_fD instead.
    """
    inner = tuple(s - 2 for s in ls.grid.shape)
    pairs = {}
    for o in ls.blocks:
        if all(abs(k) < m for k, m in zip(o, inner)):
            src = tuple(slice(max(0, -k), m - max(0, k)) for k, m in zip(o, inner))
            tgt = tuple(slice(max(0, k), m + min(0, k)) for k, m in zip(o, inner))
            pairs[o] = src, tgt, o[0] * inner[1] + o[1]
    return pairs


def _symmetric(W: dict, pairs: dict) -> bool:
    """K_ff == K_ff^T: each block against its mirror, W[o][p] == W[-o][p + o]^T.

    ``pairs`` is ``_free_pairs`` of the table W.  The test for -o is that
    for o transposed, so each pair is tested once.
    """
    mirror = {o: tuple(-k for k in o) for o in pairs}
    return all(np.array_equal(W[o][src], np.swapaxes(W[mirror[o]][tgt], -1, -2))
               for o, (src, tgt, _) in pairs.items() if o >= mirror[o])


class _FreeBlockBand:
    """Banded factorization of the free block, Dirichlet rows eliminated.

    The identity rows give x_D = b_D, so the free unknowns solve
    K_ff x_f = b_f - K_fD b_D.  K_fD b_D is nonzero only at the interior
    nodes next to the boundary, so ``_stencil_sum`` forms it on those four
    strips alone, from b_D with zeros inside: the zero terms of interior
    neighbours leave each sum as the whole-grid product rounds it.

    Free unknown q * N + i is component i at the q-th interior node (C
    order, t fastest).  For interior nodes p and p + o, block W[o][p] sits
    at rows p * N + i and columns (p + step) * N + j (``_free_pairs``): on
    band diagonal r - c = -step * N + i - j.  So K_ff is a band of
    half-bandwidth N * (vertical nodes - 1) + N - 1, filled block by block
    from the stencil table.  An exactly symmetric K_ff with a negative
    diagonal is factored as -K_ff by banded Cholesky from its lower band
    alone (``pbtrf``).  Any other block, and one that Cholesky finds
    indefinite, is factored by banded LU with partial pivoting (``gbtrf``),
    which needs about three times that storage.
    """

    def __init__(self, ls: LinearSystem):
        self.blocks, self.N, self.shape = ls.blocks, ls.N, ls.grid.shape
        m1, m2 = self.inner = tuple(s - 2 for s in self.shape)
        strips = [(slice(0, 1), slice(0, m2)), (slice(m1 - 1, m1), slice(0, m2)),
                  (slice(1, m1 - 1), slice(0, 1)), (slice(1, m1 - 1), slice(m2 - 1, m2))]
        self.strips = []                            # disjoint, nonempty
        for S in strips:
            if all(s.start < s.stop for s in S) and S not in self.strips:
                self.strips.append(S)
        N, pairs = self.N, _free_pairs(ls)
        self.kd = kd = max(abs(step) * N + N - 1 for _, _, step in pairs.values())
        nnz = sum(N * N * int(np.prod([s.stop - s.start for s in src]))
                  for src, _, _ in pairs.values())
        negative = np.all(np.diagonal(self.blocks[(0, 0)], axis1=-2, axis2=-1) < 0)
        if negative and _symmetric(self.blocks, pairs):
            ab, info = lapack.dpbtrf(self._band(pairs, kd + 1, 0, -1.0), lower=1,
                                     overwrite_ab=1)
            if info == 0:
                self.routine, self.ab, self.fill = "pbtrf", ab, ab.size / nnz
                return
            del ab                                  # indefinite: banded LU below
        ab, self.ipiv, info = lapack.dgbtrf(self._band(pairs, 3 * kd + 1, 2 * kd), kd, kd,
                                            overwrite_ab=1)
        if info != 0:
            del ab                          # a kept exception must not hold the band
            raise SolverError(f"banded LU factorization failed: gbtrf info {info}")
        self.routine, self.ab, self.fill = "gbtrf", ab, ab.size / nnz

    def _band(self, pairs, rows: int, top: int, sign: float = 1.0) -> np.ndarray:
        """sign * K_ff in LAPACK band storage: entry (r, c) at ab[top + r - c, c].

        Diagonals that fall outside the ``rows`` stored ones are skipped, so
        rows = kd + 1, top = 0 gives the lower band.
        """
        N, inner = self.N, self.inner
        ab = np.zeros((rows, N * int(np.prod(inner))), order="F")
        for o, (src, tgt, step) in pairs.items():
            for i in range(N):
                for j in range(N):
                    d = top - step * N + i - j
                    if 0 <= d < rows:
                        diagonal = ab[d].reshape(inner + (N,))   # view: ab[d] is 1-d
                        diagonal[tgt + (j,)] = sign * self.blocks[o][src + (i, j)]
        return ab

    def solve(self, b):
        """Solutions of a stack b of k right-hand sides, shape (k, N, *shape).

        The k right-hand sides share one coupling sum and one LAPACK call
        with k columns, which solves each column alone.
        """
        x = np.array(b, dtype=float)
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
        return x


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
    grid: str = ""                # "257x65"
    rhs: int = 1                  # right-hand sides solved in the same pass

    def record(self):
        return asdict(self)


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


def solve_linear(ls: LinearSystem, B):
    """Direct solve of a stack B (k, N, *shape) against a banded factorization
    built for this pass.

    The reported residual is the normwise backward error
    |Kx - b| / (|K| |x| + |b|) of the full system, recomputed from each
    returned solution; a row whose error exceeds TOL gets one step of
    iterative refinement on its own, and fails with SolverError when it
    still does.

    Returns (X, reports, times): X in B's shape, per row a SolveReport or
    the SolverError of that row, and the pass's ``elapsed``, ``factor_s``
    and ``solve_s``.  A failed factorization raises.  The factorization is
    dropped on return.
    """
    B = np.asarray(B, dtype=float)
    t0 = time.perf_counter()
    factor = _FreeBlockBand(ls)
    t1 = time.perf_counter()
    X = factor.solve(B)
    res = _backward_errors(ls, X, B)
    for j in np.flatnonzero(res > TOL):    # one step of iterative refinement
        row = slice(j, j + 1)
        X[row] += factor.solve(B[row] - _apply(ls.blocks, X[row]))
        res[j] = _backward_errors(ls, X[row], B[row])[0]
    t2 = time.perf_counter()
    reports = [SolverError(f"direct solve residual {r:.3e} above tol {TOL:.1e}") if r > TOL
               else SolveReport(factor.routine, ls.N * ls.grid.nodes, ls.nnz, float(r),
                                fill=float(factor.fill), grid="x".join(map(str, ls.grid.shape)),
                                rhs=len(B))
               for r in res]
    return X, reports, {"elapsed": t2 - t0, "factor_s": t1 - t0, "solve_s": t2 - t1}


# ---------------------------------------------------------------------------
# discrete field
# ---------------------------------------------------------------------------

@dataclass
class DiscreteField:
    """Grid solution with mapped-coordinate differentiation and unmapping."""

    grid: BoxGrid
    region: NarrowRegion
    values: np.ndarray            # (N, *shape)
    jacobian: np.ndarray | None = field(default=None, repr=False)   # box_jacobian, if known
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
            dv = self.jacobian
            if dv is None:
                dv = box_jacobian(self.region, self.grid)       # (*shape, 2)
            g = self.mapped_gradient()
            g[:, 0] += g[:, 1] * dv[..., 0]                     # d_1 u + d_t u d1 v
            g[:, 1] *= dv[..., 1]                               # d_t u d2 v
            g.flags.writeable = False                           # shared by every reader
            self._grad_cache = g
        return self._grad_cache

    def _box_fractions(self, x1, t):
        x1, t = self.region._box(x1, t)
        fracs = []
        for c, ax in zip((x1, t), self.grid.axes):
            f = (c - ax[0]) / (ax[1] - ax[0])
            if np.any(f < -1e-9) or np.any(f > len(ax) - 1 + 1e-9):
                raise GeometryError("point outside the grid; extrapolation refused")
            fracs.append(np.clip(f, 0.0, len(ax) - 1))
        return fracs

    def _interpolate(self, nodal, x1, t, first=0):
        """Bilinear interpolation of a (*shape,)-leading nodal array at (x1, t).

        ``nodal`` may hold the x1 columns from ``first`` on only, as long as
        they cover the cells of (x1, t).  The corners are summed in the
        order (i, j), (i+1, j), (i, j+1), (i+1, j+1), each weight formed x1
        factor first: the order of the 2^n corner loop the tests keep as
        reference, so the sum rounds the same.
        """
        fx, ft = self._box_fractions(x1, t)
        i = np.minimum(np.floor(fx).astype(int), self.grid.shape[0] - 2)
        j = np.minimum(np.floor(ft).astype(int), self.grid.shape[1] - 2)
        wx, wt = fx - i, ft - j
        ux, ut = 1.0 - wx, 1.0 - wt
        i = i - first
        return (nodal[i, j] * np.asarray(ux * ut)[..., None]
                + nodal[i + 1, j] * np.asarray(wx * ut)[..., None]
                + nodal[i, j + 1] * np.asarray(ux * wt)[..., None]
                + nodal[i + 1, j + 1] * np.asarray(wx * wt)[..., None])

    def recover_gradient(self, x1, t):
        """(..., N, 2) gradient at (x1, t): interpolated nodal physical gradients."""
        g = self.gradient_nodes()                            # (N, 2, *shape)
        nodal = np.moveaxis(g.reshape((self.N * 2,) + self.grid.shape), 0, -1)
        flat = self._interpolate(nodal, x1, t)
        return flat.reshape(flat.shape[:-1] + (self.N, 2))

    def l2_norm(self):
        """Mapped midpoint quadrature of |u|^2 with Jacobian delta(x')."""
        u = np.moveaxis(self.values, 0, -1)
        u = 0.5 * (u[:-1] + u[1:])
        u = 0.5 * (u[:, :-1] + u[:, 1:])
        x1 = self.grid.axes[0]
        dlt = self.region.delta(0.5 * (x1[:-1] + x1[1:])[:, None])      # cell columns
        w = np.sum(u * u, axis=-1) * dlt
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

CLOSURES = ("ansatz", "constant")


def dirichlet_values(grid: BoxGrid, traces: BoundaryTraces, closure: str,
                     ansatz: AnsatzField | None = None, lateral_value=None) -> np.ndarray:
    """Nodal Dirichlet data: traces on t = 0, 1; faces x1 = +-half_width per closure.

    The ``ansatz`` closure writes the field's values on the lateral faces,
    the ``constant`` closure ``lateral_value``.  Corners follow the
    top/bottom traces (the lateral faces are written first and the trace
    rows overwrite the shared corners).
    """
    if closure not in CLOSURES:
        raise AssemblyError(f"unknown lateral closure {closure!r}")
    V = np.zeros(grid.shape + (traces.N,))
    x1, t = grid.axes
    if closure == "constant":
        if lateral_value is None:
            raise AssemblyError("constant closure requires lateral_value")
        V[0] = V[-1] = np.asarray(lateral_value, dtype=float)
    else:
        if ansatz is None:
            raise AssemblyError("ansatz closure requires an ansatz field")
        V[[0, -1]] = ansatz.value(x1[[0, -1], None], t)
    V[:, 0] = traces.psi.jet(x1, 0)[0]
    V[:, -1] = traces.phi.jet(x1, 0)[0]
    return V


def solve_bvp(system: LinearSystem, region: NarrowRegion, B, jacobian=None):
    """Boundary-value solves of one assembled system, one per row of the stack B.

    ``B`` has shape (k, N, *shape), each row a ``right_hand_side``.  The
    rows are solved in one pass (``solve_linear``).  Returns (rows, times):
    per row a (DiscreteField, SolveReport), or the SolverError that stopped
    that row alone, and the pass's times; a failed factorization raises.
    Every field shares ``jacobian`` (``box_jacobian``), if given.
    """
    X, reports, times = solve_linear(system, B)
    return [rep if isinstance(rep, SolverError) else
            (DiscreteField(system.grid, region, x, jacobian), rep)
            for x, rep in zip(X, reports)], times
