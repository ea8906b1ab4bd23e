"""Finite differences for the narrow-region system on the mapped box.

Instead of meshing the curved gap, the solver pulls the problem back through
x_n = h2(x') + t * delta(x') onto the box B'_{2R0} x [0, 1], where uniform
grids stay well conditioned however small the gap is.  Writing G for the
Jacobian of the map x -> y = (x', t), the weak form transforms exactly with

    Atil^{ab} = delta * G_{aA} G_{bB} A^{AB},

so the transformed problem keeps the divergence structure
d_a ( Atil^{ab} d_b u ) = 0, and Atil inherits ellipticity wherever
delta > 0, and the major symmetry Atil^{ab}_{ij} = Atil^{ba}_{ji} from A.
The map creates no first-order terms; the curvature lives inside the
variable Atil.  For n = 2, G = [[1, 0], [d1 v, d2 v]]: the pull-back and the gradient
recovery grad_x u = G^T grad_y u are written out entry by entry from grad v,
the ``box_jacobian`` that each caller passes in.

Stencils are the standard second-order ones: half-node flux averages for the
aligned second-derivative terms, composed centered differences for the cross
terms.  The Dirichlet rows are those of the grid's boundary nodes, read from
its shape: identity rows carrying the trace values.

The matrix depends only on the tensor, the region and the grid; the boundary
data enter the right-hand side alone, whose interior rows are zero: the
problem is homogeneous, with Dirichlet data phi on the top boundary, psi on
the bottom one and a closure on the lateral faces.  ``solve_linear`` takes a
stack of right-hand sides, factors the system once for it, drops the
factorization on return and returns the pass's times once, beside a report
per row.  It eliminates the identity Dirichlet rows and factors the free
block as a band, O(n b^2) at BLAS-3 speed: the classical choice for thin
structured grids (George & Liu 1981, ch. 4; LAPACK xPBTRF).  Both routines
factor M = -K_ff.  The tensor decides which: a symmetric A gives a
symmetric table by construction, and its M is factored from both ends at
once, a twisted banded Cholesky (van der Vorst 1987): the halves left and
right of the middle x1-column on two threads, through LAPACK called without
the GIL, then that column's dense Schur complement.  A non-symmetric A, or
an M that Cholesky finds not positive definite, goes to banded LU.  The
stencil's block table is the operator: the band is filled from it one
slice per offset and component pair, the Dirichlet coupling is summed from
it on the boundary strips alone, and the backward error's K x is summed
from it over the interior.  The coupling, the
triangular solves and the backward error each run once over the stack.
``LinearSystem.matrix`` is kept for the tests and for the benchmark's read
of its shape.  No sparse matrix is built.

The stack of unknowns is component-major, (k, N, *shape), and only the
linear algebra reads it; every other array is node-major, as the ansatz is:
values (*shape, N), gradients (*shape, N, 2).  ``right_hand_side`` converts
into the stack and ``solve_bvp`` out of it.
"""

from __future__ import annotations

import ctypes
import threading
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse.linalg as spla
from scipy.linalg import cython_lapack, lapack, solve_triangular

from .ansatz import AnsatzField, BoundaryTraces
from .coefficients import CoefficientTensor
from .geometry import GeometryError, NarrowRegion


TOL = 1e-10     # backward error a solve must reach, after one refinement step


class AssemblyError(RuntimeError):
    """Non-finite coefficient samples or inconsistent grid data."""


class SolverError(RuntimeError):
    """Failed factorization, or a residual not within TOL after refinement (NaN included)."""


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


def grid_for(region: NarrowRegion, tangential_nodes: int, vertical_nodes: int) -> BoxGrid:
    return BoxGrid(tangential_nodes, vertical_nodes, region.profiles.patch_radius)


# ---------------------------------------------------------------------------
# operator transform
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransformedFields:
    """Nodal coefficients of the transformed operator on the box."""

    grid: BoxGrid
    Atil: np.ndarray          # (*shape, N, N, 2, 2)
    symmetric: bool           # the tensor's major symmetry, exact in Atil


def box_jacobian(region: NarrowRegion, grid: BoxGrid) -> np.ndarray:
    """grad v at every node of ``grid``, shape (*shape, 2): the rows d1 v, d2 v of G."""
    x1, t = grid.axes
    return region.vbar_grad(x1[:, None], t)


def transform_operator(tensor: CoefficientTensor, region: NarrowRegion,
                       grid: BoxGrid, jacobian: np.ndarray) -> TransformedFields:
    """Evaluate the pulled-back coefficients at every grid node.

    For n = 2 the Jacobian is G = [[1, 0], [d1 v, d2 v]], so a product with
    G keeps row 0 and forms row 1 as d1 v row 0 + d2 v row 1; ``jacobian``
    is ``box_jacobian(region, grid)``, built once per sweep point.  Atil is
    written plane by plane from the planes of A (A0, broadcast, unless the
    tensor varies), summed as (G A) G^T, then times delta.  Those sums
    associate Atil^{22}_{ij} and its mirror Atil^{22}_{ji} differently, so
    for a symmetric tensor each entry with (i, a) before (j, b) is copied
    to its mirror Atil^{ba}_{ji}: the major symmetry holds exactly.
    """
    x1, T = grid.axes
    X1 = x1[:, None]                        # x1-factors once per column
    dlt = region.delta(X1)
    if np.any(dlt <= 0):
        raise GeometryError("gap function must stay positive on the patch")
    g1, g2 = jacobian[..., 0, None, None], jacobian[..., 1, None, None]   # (*shape, 1, 1)

    def rows(V0, V1):
        """Rows 0 and 1 of G V, given V's rows."""
        return V0, g1 * V0 + g2 * V1

    A = tensor.A0 if tensor.is_constant else tensor.A(region.from_box(X1, T))
    GA = [rows(A[..., 0, b], A[..., 1, b]) for b in range(2)]    # GA[b][a] = (G A)^{ab}
    Atil = np.empty(grid.shape + A.shape[-4:])
    for a in range(2):
        Atil[..., a, 0], Atil[..., a, 1] = rows(GA[0][a], GA[1][a])
    Atil *= dlt[..., None, None, None, None]
    symmetric = tensor.symmetric
    if symmetric:                           # (i, a) -> 2 i + a, pairs above the diagonal
        i, a = np.divmod(np.arange(2 * tensor.N), 2)
        I, J = np.triu_indices(2 * tensor.N, 1)
        Atil[..., i[J], i[I], a[J], a[I]] = Atil[..., i[I], i[J], a[I], a[J]]
    if not np.all(np.isfinite(Atil)):
        bad = np.argwhere(~np.isfinite(Atil))[0][:2]
        raise AssemblyError(f"non-finite transformed A at node index {tuple(map(int, bad))}")
    return TransformedFields(grid, Atil, symmetric)


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
    node p + o.  ``symmetric`` states that W[o][p] = W[-o][p + o]^T, as it
    holds by construction for a symmetric tensor; the banded factorization
    takes its word.  Every boundary node of the grid carries an identity
    Dirichlet row per component: the grid's shape is the mask.  K is never
    stored: the banded factorization reads the free block and the Dirichlet
    coupling from the table, and ``solve_linear`` sums K x from it for the
    backward error.  ``matrix`` applies K from the table as a
    ``LinearOperator``; it is kept for the tests and for the benchmark's
    read of its shape.  ``nnz`` and ``frobenius`` are those of K, counted
    from the table.
    """

    grid: BoxGrid
    N: int
    blocks: dict
    symmetric: bool
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
    table comes from Atil alone; ``right_hand_side`` builds every
    right-hand side.  A block and its mirror add the same two products in
    the other order, and IEEE addition commutes, so an exactly symmetric
    Atil gives an exactly symmetric table.
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
    return LinearSystem(grid, N, dict(W), tf.symmetric)


def right_hand_side(ls: LinearSystem, boundary_values) -> np.ndarray:
    """Dirichlet values on the boundary rows, zero on the interior rows.

    ``boundary_values`` has shape (*shape, N); only its boundary entries are
    read.  The right-hand side is a component-major row (N, *shape) of the stack.
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

def _free_pairs(ls: LinearSystem, first: int, last: int) -> dict:
    """The offsets of the table that couple two interior nodes of a part.

    The part is the interior x1-columns first, ..., last - 1.  Maps
    o -> (slice of p, slice of p + o, step): p indexes the table, p + o the
    part's own nodes, and step is the offset's stride in the part's
    node-major numbering.  Pairs whose p + o lies outside the part belong
    to its coupling instead: to K_fD, or to the separator.
    """
    part = last - first, ls.grid.shape[1] - 2
    pairs = {}
    for o in ls.blocks:
        if all(abs(k) < m for k, m in zip(o, part)):
            src = tuple(slice(max(0, -k) + f, m - max(0, k) + f)
                        for k, m, f in zip(o, part, (first, 0)))
            tgt = tuple(slice(max(0, k), m + min(0, k)) for k, m in zip(o, part))
            pairs[o] = src, tgt, o[0] * part[1] + o[1]
    return pairs


def _lapack(name: str):
    """``name`` from scipy's Cython LAPACK, called through ctypes.

    scipy's f2py wrappers (``scipy.linalg.lapack``) hold the GIL for the
    whole call, so two of them never run at once.  A ctypes call releases
    it.  Every argument is a pointer: (char *, int *, double *) in LAPACK's
    Fortran order, as the capsule's signature states.
    """
    capsule = cython_lapack.__pyx_capi__[name]
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    signature = get_name(capsule).decode()
    kinds = {"char": ctypes.c_char_p, "int": ctypes.POINTER(ctypes.c_int)}
    argtypes = [kinds.get(arg.split()[0], ctypes.c_void_p)          # double *: an address
                for arg in signature[signature.index("(") + 1:-1].split(", ")]
    return ctypes.CFUNCTYPE(None, *argtypes)(get_pointer(capsule, get_name(capsule)))


_DPBTRF, _DTBTRS = _lapack("dpbtrf"), _lapack("dtbtrs")


def _ints(*values):
    """ctypes int cells: LAPACK takes every integer argument by pointer."""
    return [ctypes.c_int(v) for v in values]


def _band_storage(ab):
    """Leading dimension of a band ab: its columns must be contiguous doubles."""
    if ab.dtype != np.float64 or ab.ndim != 2 or ab.size and (
            ab.strides[0] != ab.itemsize
            or ab.shape[1] > 1 and ab.strides[1] != ab.shape[0] * ab.itemsize):
        raise ValueError("LAPACK band storage needs Fortran-contiguous float64 columns")
    return ab.shape[0]


def _pbtrf(ab) -> int:
    """Banded Cholesky of the lower band ab in place (``dpbtrf``); returns info."""
    rows = _band_storage(ab)
    n, kd, ldab, info = _ints(ab.shape[1], rows - 1, rows, 0)
    _DPBTRF(b"L", ctypes.byref(n), ctypes.byref(kd), ab.ctypes.data,
            ctypes.byref(ldab), ctypes.byref(info))
    return info.value


def _tbtrs(ab, y, trans: bytes) -> None:
    """y <- L^-1 y (trans b"N") or L^-T y (b"T") in place (``dtbtrs``), for
    the lower band factor ab of ``_pbtrf`` and a stack of Fortran columns y."""
    rows = _band_storage(ab)
    if y.dtype != np.float64 or not y.flags.f_contiguous or len(y) != ab.shape[1]:
        raise ValueError("right-hand sides must be Fortran-contiguous float64 columns")
    n, kd, k, ldab, ldb, info = _ints(ab.shape[1], rows - 1, y.shape[1], rows,
                                      max(1, len(y)), 0)
    _DTBTRS(b"L", trans, b"N", ctypes.byref(n), ctypes.byref(kd), ctypes.byref(k),
            ab.ctypes.data, ctypes.byref(ldab), y.ctypes.data, ctypes.byref(ldb),
            ctypes.byref(info))


def _on_both(target, main, helper):
    """target(*main) on this thread while target(*helper) runs on a helper.

    Returns both results once both halves have ended.  An exception of
    either half is raised here after the other half has ended, with the
    frames of the halves cleared, so that it holds none of their arrays.
    ``target`` runs only a band fill and the LAPACK calls above: nothing
    that needs the main thread.
    """
    results, errors = [None, None], []

    def run(k, args):
        try:
            results[k] = target(*args)
        except BaseException as exc:        # re-raised below, on this thread
            errors.append(exc)

    helper_thread = threading.Thread(target=run, args=(1, helper))
    helper_thread.start()
    run(0, main)
    helper_thread.join()
    del main, helper
    if errors:
        error = errors[0]
        traceback.clear_frames(error.__traceback__)
        raise error
    return results


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
    half-bandwidth kd = N * (vertical nodes - 1) + N - 1, and both routines
    factor M = -K_ff, filled block by block from the stencil table.

    The system of a symmetric tensor (``LinearSystem.symmetric``) whose M
    has a positive diagonal is factored by a twisted banded Cholesky, from both ends at once (van der Vorst 1987).  The
    middle interior x1-column S, c = N * (vertical interior) unknowns,
    separates the columns left of it (A) from those right of it (B): the
    stencil reaches one column across, so M_AB = 0.  A is filled in natural
    order and B in reversed node order (x1, t and component all reversed),
    each as its lower band, into the two column views of one (kd + 1, n - c)
    array; a helper thread fills and factors B (``dpbtrf``) while this
    thread fills and factors A.  Reversed, B's coupling to S sits in its
    last node column, as A's does, so with L the factor of a part and T the
    trailing c x c block of L, L^-1 M_{part,S} is zero but for its last c
    rows, W = T^-1 E, E the coupling read from the table.  S's Schur
    complement M_SS - W_A^T W_A - W_B^T W_B is then a dense c x c Cholesky.
    LAPACK is called through ctypes (``_lapack``) because scipy's wrappers
    hold the GIL, which would run the halves one after the other.  The split
    and each thread's arithmetic are fixed, so a solve is reproducible to
    the byte.

    The system of a non-symmetric tensor, and one whose half or separator
    Cholesky finds not positive definite, is factored by banded LU with
    partial pivoting (``gbtrf``), which needs about three times the band's
    storage.  Negation
    is exact and pivoting compares absolute values, so M's LU solves as
    K_ff's would, to the byte.
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
        N, pairs = self.N, _free_pairs(ls, 0, m1)
        self.kd = kd = max(abs(step) * N + N - 1 for _, _, step in pairs.values())
        nnz = sum(N * N * int(np.prod([s.stop - s.start for s in src]))
                  for src, _, _ in pairs.values())
        diagonal = np.diagonal(self.blocks[(0, 0)], axis1=-2, axis2=-1)
        if ls.symmetric and np.all(diagonal < 0) and self._cholesky(ls):
            self.routine = "pbtrf"
            self.fill = sum(a.size for a in (self.ab, self.wa, self.wb, self.sep)) / nnz
            return
        ab = np.zeros((3 * kd + 1, N * m1 * m2), order="F")
        self._fill(ab, pairs)
        ab, self.ipiv, info = lapack.dgbtrf(ab, kd, kd, overwrite_ab=1)
        if info != 0:
            del ab                          # a kept exception must not hold the band
            raise SolverError(f"banded LU factorization failed: gbtrf info {info}")
        self.routine, self.ab, self.fill = "gbtrf", ab, ab.size / nnz

    def _fill(self, ab, pairs, order: int = 1):
        """M = -K_ff over a part's nodes into the zero band ab, in LAPACK band
        storage: entry (r, c) at ab[top + r - c, c], top = rows - kd - 1.

        ``pairs`` is ``_free_pairs`` of the part.  Diagonals that fall
        outside ab's rows are skipped, so kd + 1 rows give the lower band,
        3 kd + 1 the whole band below ``gbtrf``'s fill-in rows.  ``order``
        -1 numbers the part's unknowns in reverse: as K_ff is symmetric, the
        entry (r, c) of the reversed lower band is the entry (c, r) of the
        natural upper band, and ab[d, ::-1] puts each at its reversed column.
        """
        N, rows = self.N, ab.shape[0]
        top = rows - self.kd - 1
        part = (ab.shape[1] // (N * self.inner[1]), self.inner[1], N)
        for o, (src, tgt, step) in pairs.items():
            for i in range(N):
                for j in range(N):
                    d = top + order * (-step * N + i - j)
                    if 0 <= d < rows:
                        diagonal = ab[d, ::order].reshape(part)   # view: ab[d] is 1-d
                        diagonal[tgt + (j,)] = -self.blocks[o][src + (i, j)]

    def _half(self, ab, pairs, order: int) -> int:
        """Fill one part's lower band of M into ab and factor it: the work
        of one thread.  Returns ``dpbtrf``'s info."""
        self._fill(ab, pairs, order)
        return _pbtrf(ab)

    def _coupling(self, col: int, o0: int):
        """M's dense c x c block from interior column ``col`` to column col + o0."""
        N, m2 = self.N, self.inner[1]
        E = np.zeros((m2, N, m2, N))
        for o, W in self.blocks.items():
            if o[0] == o0:
                p = np.arange(max(0, -o[1]), m2 - max(0, o[1]))
                E[p, :, p + o[1], :] = -W[col, p]
        return E.reshape(N * m2, N * m2)

    def _reduced(self, L, col: int, o0: int, order: int):
        """W = T^-1 E for a part's factor L: T its trailing c x c block, E the
        coupling of its last node column (interior column ``col``, in the
        part's ``order``) to the separator; (0, c) for an empty part."""
        c = self.N * self.inner[1]
        if L.shape[1] == 0:
            return np.zeros((0, c))
        T = np.zeros((c, c))
        for d in range(min(c, len(L))):
            r = np.arange(c - d)
            T[r + d, r] = L[d, L.shape[1] - c:L.shape[1] - d]
        return solve_triangular(T, self._coupling(col, o0)[::order], lower=True,
                                check_finite=False)

    def _cholesky(self, ls: LinearSystem) -> bool:
        """Twisted banded Cholesky of M = -K_ff: False, and nothing kept,
        when a half or the separator is not positive definite."""
        N, (m1, m2) = self.N, self.inner
        s = m1 // 2
        c = N * m2
        na = s * c
        ab = np.zeros((self.kd + 1, N * m1 * m2 - c), order="F")
        try:
            infos = _on_both(self._half, (ab[:, :na], _free_pairs(ls, 0, s), 1),
                             (ab[:, na:], _free_pairs(ls, s + 1, m1), -1))
        except BaseException:               # a kept exception must not hold the band
            del ab
            raise
        if any(infos):
            return False
        wa = self._reduced(ab[:, :na], s - 1, 1, 1)
        wb = self._reduced(ab[:, na:], s + 1, -1, -1)
        schur = self._coupling(s, 0) - wa.T @ wa - wb.T @ wb
        sep, info = lapack.dpotrf(schur, lower=1, clean=1)
        if info != 0:
            return False
        self.ab, self.split, self.wa, self.wb, self.sep = ab, na, wa, wb, sep
        return True

    def _solve_free(self, cols):
        """K_ff^-1 cols = M^-1 (-cols) for a stack of Fortran columns, one per
        right-hand side; cols is overwritten."""
        np.negative(cols, out=cols)
        if self.routine == "gbtrf":
            return lapack.dgbtrs(self.ab, self.kd, self.kd, cols, self.ipiv, overwrite_b=1)[0]
        na, c = self.split, len(self.sep)
        halves = self.ab[:, :na], self.ab[:, na:]
        ya, ys = np.asfortranarray(cols[:na]), cols[na:na + c]
        yb = np.asfortranarray(cols[na + c:][::-1])
        _on_both(_tbtrs, (halves[0], ya, b"N"), (halves[1], yb, b"N"))
        for j in range(cols.shape[1]):      # one column at a time: each rounds as alone
            z = ys[:, j] - self.wa.T @ ya[-c:, j] - self.wb.T @ yb[-c:, j]
            z = solve_triangular(self.sep, z, lower=True, check_finite=False)
            ys[:, j] = solve_triangular(self.sep, z, lower=True, trans="T",
                                        check_finite=False)
            ya[-c:, j] -= self.wa @ ys[:, j]          # empty for an empty half
            yb[-c:, j] -= self.wb @ ys[:, j]
        _on_both(_tbtrs, (halves[0], ya, b"T"), (halves[1], yb, b"T"))
        return np.concatenate((ya, ys, yb[::-1]))

    def solve(self, b):
        """Solutions of a stack b of k right-hand sides, shape (k, N, *shape).

        The k right-hand sides share one coupling sum and one pass of the
        triangular solves with k columns, which solve each column alone.
        """
        x = np.array(b, dtype=float)
        bf = np.moveaxis(x[:, :, 1:-1, 1:-1], 1, -1).copy()  # (k, *inner, N): node-major
        x[:, :, 1:-1, 1:-1] = 0.0                            # x_D = b_D
        for S in self.strips:
            bf[(slice(None),) + S] -= np.moveaxis(_stencil_sum(self.blocks, x, S), 1, -1)
        xf = self._solve_free(bf.reshape(len(x), -1).T)      # one Fortran column per b
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
    returned solution; a row whose error is not within TOL (NaN included,
    as when its triangular solves overflow) gets one step of iterative
    refinement on its own, and fails with SolverError when it still is not.

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
    for j in np.flatnonzero(~(res <= TOL)):     # one step of iterative refinement; NaN too
        row = slice(j, j + 1)
        X[row] += factor.solve(B[row] - _apply(ls.blocks, X[row]))
        res[j] = _backward_errors(ls, X[row], B[row])[0]
    t2 = time.perf_counter()
    reports = [SolveReport(factor.routine, ls.N * ls.grid.nodes, ls.nnz, float(r),
                           fill=float(factor.fill), grid="x".join(map(str, ls.grid.shape)),
                           rhs=len(B)) if r <= TOL
               else SolverError(f"direct solve residual {r:.3e} above tol {TOL:.1e}")
               for r in res]
    return X, reports, {"elapsed": t2 - t0, "factor_s": t1 - t0, "solve_s": t2 - t1}


# ---------------------------------------------------------------------------
# discrete field
# ---------------------------------------------------------------------------

@dataclass
class DiscreteField:
    """Grid solution with mapped-coordinate differentiation and unmapping,
    node-major: values (*shape, N), gradients (*shape, N, 2).

    ``jacobian`` is ``box_jacobian(region, grid)``, which the sweep point
    builds once and every field at the point shares; ``gradient_nodes``
    reads it and keeps its read-only result.
    """

    grid: BoxGrid
    region: NarrowRegion
    values: np.ndarray            # (*shape, N)
    jacobian: np.ndarray = field(repr=False)      # box_jacobian (*shape, 2)
    _grad_cache: np.ndarray | None = field(default=None, init=False, repr=False)

    @property
    def N(self):
        return self.values.shape[-1]

    def mapped_gradient(self):
        """d û / d(x1, t) at every node, shape (*shape, N, 2); second order."""
        out = np.empty(self.grid.shape + (self.N, 2))     # C order: the norms sum in it
        for a, h in enumerate(self.grid.spacing):
            _diff_axis(self.values, a, h, out[..., a])
        return out

    def gradient_nodes(self):
        """Physical gradients G^T grad_y u at nodes, shape (*shape, N, 2)."""
        if self._grad_cache is None:
            g, dv = self.mapped_gradient(), self.jacobian
            g[..., 0] += g[..., 1] * dv[..., None, 0]           # d_1 u + d_t u d1 v
            g[..., 1] *= dv[..., None, 1]                       # d_t u d2 v
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

    def _interpolate(self, nodal, x1, t):
        """Bilinear interpolation of a nodal array (*shape, ...) at (x1, t).

        The corners are summed in the order (i, j), (i+1, j), (i, j+1),
        (i+1, j+1), each weight formed x1 factor first: the order of the 2^n
        corner loop the tests keep as reference, so the sum rounds the same.
        """
        fx, ft = self._box_fractions(x1, t)
        i = np.minimum(np.floor(fx).astype(int), self.grid.shape[0] - 2)
        j = np.minimum(np.floor(ft).astype(int), self.grid.shape[1] - 2)
        wx, wt = fx - i, ft - j
        ux, ut = 1.0 - wx, 1.0 - wt
        tail = (...,) + (None,) * (nodal.ndim - 2)       # weights over the trailing axes
        return (nodal[i, j] * np.asarray(ux * ut)[tail]
                + nodal[i + 1, j] * np.asarray(wx * ut)[tail]
                + nodal[i, j + 1] * np.asarray(ux * wt)[tail]
                + nodal[i + 1, j + 1] * np.asarray(wx * wt)[tail])

    def recover_gradient(self, x1, t):
        """(..., N, 2) gradient at (x1, t): interpolated nodal physical gradients."""
        return self._interpolate(self.gradient_nodes(), x1, t)

    def l2_norm(self):
        """Mapped midpoint quadrature of |u|^2 with Jacobian delta(x')."""
        u = 0.5 * (self.values[:-1] + self.values[1:])
        u = 0.5 * (u[:, :-1] + u[:, 1:])
        x1 = self.grid.axes[0]
        dlt = self.region.delta(0.5 * (x1[:-1] + x1[1:])[:, None])      # cell columns
        w = np.sum(u * u, axis=-1) * dlt
        vol = float(np.prod(self.grid.spacing))
        return float(np.sqrt(w.sum() * vol))


def _diff_axis(vals, axis, h, out):
    """Second-order differences along one axis into ``out``, vals' shape:
    centered inside, one-sided at the ends."""
    up = [slice(None)] * vals.ndim

    def ax(sl):
        s = list(up)
        s[axis] = sl
        return tuple(s)

    inside = out[ax(slice(1, -1))]
    np.subtract(vals[ax(slice(2, None))], vals[ax(slice(0, -2))], out=inside)
    inside /= 2 * h
    out[ax(slice(0, 1))] = (-3 * vals[ax(slice(0, 1))] + 4 * vals[ax(slice(1, 2))]
                            - vals[ax(slice(2, 3))]) / (2 * h)
    out[ax(slice(-1, None))] = (3 * vals[ax(slice(-1, None))] - 4 * vals[ax(slice(-2, -1))]
                                + vals[ax(slice(-3, -2))]) / (2 * h)


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


def solve_bvp(system: LinearSystem, region: NarrowRegion, B, jacobian: np.ndarray):
    """Boundary-value solves of one assembled system, one per row of the stack B.

    ``B`` has shape (k, N, *shape), each row a ``right_hand_side``.  The
    rows are solved in one pass (``solve_linear``).  Returns (rows, times):
    per row a (DiscreteField, SolveReport), or the SolverError that stopped
    that row alone, and the pass's times; a failed factorization raises.
    Each field views its row node-major and shares ``jacobian`` (``box_jacobian``).
    """
    X, reports, times = solve_linear(system, B)
    return [rep if isinstance(rep, SolverError) else
            (DiscreteField(system.grid, region, np.moveaxis(x, 0, -1), jacobian), rep)
            for x, rep in zip(X, reports)], times
