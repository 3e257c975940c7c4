"""Second-order LTI systems and their first-order realizations.

A second-order system is

    M x''(t) + E x'(t) + K x(t) = B_u u(t),
    y(t) = C_p x(t) + C_v x'(t),

with transfer function ``H(s) = (s C_v + C_p) (s^2 M + s E + K)^{-1} B_u``.
Reduction works on equivalent first-order realizations
``calE q' = calA q + calB u``, ``y = calC q`` with state ``q = [x; x']``:
either the first companion form (free invertible coupling block ``J``) or,
for symmetric positive definite ``M, E, K``, a strictly dissipative
realization whose symmetric part is definite.

``M``, ``E`` and ``K`` may be sparse (:func:`generate_chain` and sparse
loaded bundles are); the first-order realizations built on them are dense.
:func:`_shifted_solves` alone factors ``s^2 M + s E + K`` point by point:
LAPACK ``gbtrf`` when a sparse pattern is banded, SuperLU for any other
sparse pattern, LAPACK ``getrf``/``gesv`` when dense.  :func:`_dual_blocks`
hands on one point's ``2m + 2p`` directions at a time, so the hybrid
pre-reduction grows its basis of rank ``r`` from ``k`` of them in ``O(n k r)``
flops and ``O(n r + r k)`` memory, under the rank rule of ``scipy.linalg.orth``.
:func:`_lu` picks SuperLU or LAPACK for the one-off factorizations of the
simulation step matrix and ``M``, and :func:`simulate` steps a sparse model
one step at a time and a small dense one a group of steps per product.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg as spla
import scipy.sparse
import scipy.sparse.linalg as sla

from .errors import (
    DimensionMismatch,
    DimensionTooLarge,
    GammaOutOfRange,
    InvalidParams,
    NonFiniteState,
    NotSPD,
    SingularAtFrequency,
    SingularJ,
    SingularMass,
    UnstableRealization,
)


def _as_matrix(A, name, dtype=float, sparse=False):
    if sparse:
        A = scipy.sparse.csc_array(A, dtype=dtype, copy=True)
        A.sum_duplicates()  # in place, hence the copy
        values = A.data
    else:
        A = values = np.array(A, dtype=dtype, ndmin=2)  # a copy
    if A.ndim != 2:
        raise DimensionMismatch(f"{name} must be a matrix, got ndim={A.ndim}")
    if not np.all(np.isfinite(values)):
        raise InvalidParams(f"{name} contains non-finite entries")
    return A


def _frozen(A):
    """``A`` with its buffers (``data``, ``indices`` and ``indptr`` when
    sparse) marked read-only."""
    for buf in (A.data, A.indices, A.indptr) if scipy.sparse.issparse(A) else (A,):
        buf.flags.writeable = False
    return A


def _dense(sys):
    """``sys`` with dense, C-ordered ``M, E, K`` (the layout of every dense
    system, so results match bit for bit); ``sys`` itself when already dense.
    The copy starts with an empty memo."""
    if not scipy.sparse.issparse(sys.M):
        return sys
    return replace(sys, **{k: _frozen(getattr(sys, k).toarray(order="C"))
                           for k in "MEK"})


def _getrf(A):
    """LAPACK LU ``(lu, piv)`` of a dense matrix, or ``None`` if a pivot is
    exactly zero: what ``lu_factor`` runs, minus its ``LinAlgWarning``."""
    getrf, = spla.get_lapack_funcs(("getrf",), (A,))
    lu, piv, info = getrf(A)
    return None if info > 0 else (lu, piv)


def _lu(A):
    """``solve(b, trans="N"|"T"|"H")`` with ``A``, ``A^T`` or ``A^H`` from one
    LU factorization of a square ``A`` (SuperLU when sparse, LAPACK when
    dense), or ``None`` if ``A`` is exactly singular.  A dense solve skips
    the finiteness check, so non-finite data reaches the caller's check."""
    if scipy.sparse.issparse(A):
        try:
            return sla.splu(A).solve
        except RuntimeError:  # SuperLU: "Factor is exactly singular"
            return None
    factors = _getrf(A)
    return factors and (lambda b, trans="N": spla.lu_solve(
        factors, b, trans="NTH".index(trans), check_finite=False))


def _rcond(A):
    """Estimated reciprocal 1-norm condition number of a square ``A``; 0 if
    an LU factorization finds it exactly singular.

    Sparse ``A``: SuperLU and ``onenormest`` of the inverse.  Dense ``A``:
    LAPACK ``getrf`` and ``gecon``.  Both use the one-column Hager-Higham
    estimator, which is deterministic.
    """
    if scipy.sparse.issparse(A):
        solve = _lu(A)
        if solve is None:
            return 0.0
        inv = sla.LinearOperator(A.shape, matvec=solve, dtype=A.dtype,
                                 rmatvec=lambda x: solve(x, trans="T"))
        return 1.0 / (sla.norm(A, 1) * sla.onenormest(inv, t=1))
    return _lu_rcond(A)[1]


def _lu_rcond(A):
    """Dense ``(factors, rcond)``: the ``getrf`` factors of ``A`` (``None``
    if exactly singular, with ``rcond`` 0) and the ``gecon`` estimate, so a
    caller that goes on to solve with ``A`` factors it only once."""
    factors = _getrf(A)
    if factors is None:
        return None, 0.0
    gecon, = spla.get_lapack_funcs(("gecon",), (A,))
    rcond, _ = gecon(factors[0], spla.norm(A, 1), norm="1")
    return factors, float(rcond)


@dataclass
class SecondOrderSystem:
    """Container for the matrices of a second-order system.

    ``M``, ``E`` and ``K`` are either all dense arrays or all
    ``scipy.sparse.csc_array`` (loaded bundles and chains are sparse);
    ``B_u``, ``C_p`` and ``C_v`` are always dense.

    Treat instances as immutable: :func:`make_second_order` and
    :func:`generate_chain` store read-only copies of the matrices.  Each
    instance memoizes its latest transfer-function sweep
    (:func:`eval_transfer`), its latest simulation without states
    (:func:`simulate`) and its :func:`check_stability` report, so comparing
    several reduced models against one original computes the original's
    responses once.  ``dataclasses.replace`` starts a fresh memo.
    """

    M: np.ndarray | scipy.sparse.csc_array
    E: np.ndarray | scipy.sparse.csc_array
    K: np.ndarray | scipy.sparse.csc_array
    B_u: np.ndarray
    C_p: np.ndarray
    C_v: np.ndarray
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n(self):
        return self.M.shape[0]

    @property
    def m(self):
        return self.B_u.shape[1]

    @property
    def p(self):
        return self.C_p.shape[0]


@dataclass
class FirstOrderRealization:
    """First-order pencil realization ``calE q' = calA q + calB u``, ``y = calC q``.

    The four matrices are always dense arrays.  ``gamma`` holds the shift of
    a :func:`strictly_dissipative` realization and is ``None`` otherwise.

    Treat instances as immutable: the realizations that solimbt builds
    store read-only matrices.  Each instance caches its pencil eigenvalues,
    its standard form and its solver with ``calE``; ``dataclasses.replace``
    starts with empty caches.
    """

    calE: np.ndarray
    calA: np.ndarray
    calB: np.ndarray
    calC: np.ndarray
    gamma: float | None = None
    _eigs: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _standard: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _solve: object = field(default=None, init=False, repr=False, compare=False)

    @property
    def N(self):
        return self.calA.shape[0]

    @property
    def m(self):
        return self.calB.shape[1]

    @property
    def p(self):
        return self.calC.shape[0]

    def pencil_eigenvalues(self):
        """Eigenvalues of the pencil ``(calA, calE)``, cached after first use."""
        if self._eigs is None:
            self._eigs = spla.eig(self.calA, self.calE, right=False)
        return self._eigs

    def solve_calE(self, Y, trans="N"):
        """``calE^{-1} Y`` (``calE^{-T} Y`` for ``trans="T"``) for a matrix ``Y``:
        a diagonal ``calE`` multiplies by the reciprocals of its diagonal, taken
        once (as OpenBLAS' triangular solve does, so the result matches
        ``scipy.linalg.solve`` there bit for bit), any other solves by one :func:`_lu`.
        Raises ``UnstableRealization`` if ``calE`` is singular."""
        if self._solve is None:
            E, d = self.calE, np.diagonal(self.calE)
            if np.count_nonzero(E) > np.count_nonzero(d):
                self._solve = _lu(E)
            elif np.all(d):
                inv = (1.0 / d)[:, None]
                self._solve = lambda b, trans="N": inv * b
            if self._solve is None:
                raise UnstableRealization("singular calE: an infinite pencil eigenvalue")
        return self._solve(Y, trans)

    def project(self, W, T):
        """Petrov-Galerkin projection ``(W^T calE T, W^T calA T, W^T calB, calC T)``
        of the realization, with read-only matrices."""
        return FirstOrderRealization(*map(_frozen, (
            W.T @ self.calE @ T, W.T @ self.calA @ T, W.T @ self.calB, self.calC @ T)))

    def standard_form(self):
        """``(X, calE^{-1} calB)`` with ``X = calE^{-1} calA`` from one solve; read-only."""
        if self._standard is None:
            XB = self.solve_calE(np.hstack([self.calA, self.calB]))
            self._standard = tuple(_frozen(np.ascontiguousarray(blk))
                                   for blk in np.hsplit(XB, [self.N]))
        return self._standard


@dataclass
class Trajectory:
    """Sampled simulation result: ``outputs[k] = y(times[k])``."""

    times: np.ndarray
    outputs: np.ndarray
    states: np.ndarray | None = None


@dataclass
class StabilityReport:
    is_c_stable: bool
    max_real_part: float
    eigenvalues: np.ndarray
    marginal: np.ndarray


def make_second_order(M, E, K, B_u, C_p, C_v):
    """Validate and assemble a :class:`SecondOrderSystem`.

    ``M``, ``E`` and ``K`` may be dense or sparse; if any of them is sparse,
    all three are stored as ``scipy.sparse.csc_array``.  Every matrix is
    stored as a read-only copy; the caller's arrays stay as they are.
    Finiteness is checked on the stored entries.

    Raises
    ------
    DimensionMismatch
        If the shapes are inconsistent or ``M`` is empty.
    InvalidParams
        If an entry is not finite.
    SingularMass
        If an LU factorization of ``M`` (SuperLU when sparse, LAPACK
        ``getrf`` when dense) finds it exactly singular, or the estimated
        reciprocal 1-norm condition number ``1 / (||M||_1 ||M^{-1}||_1)``
        is below ``1e-14``.
    """
    sparse = any(scipy.sparse.issparse(A) for A in (M, E, K))
    M = _as_matrix(M, "M", sparse=sparse)
    E = _as_matrix(E, "E", sparse=sparse)
    K = _as_matrix(K, "K", sparse=sparse)
    B_u = _as_matrix(B_u, "B_u")
    C_p = _as_matrix(C_p, "C_p")
    C_v = _as_matrix(C_v, "C_v")
    n = M.shape[0]
    if n == 0:
        raise DimensionMismatch("a second-order system needs at least one state")
    for name, A in (("M", M), ("E", E), ("K", K)):
        if A.shape != (n, n):
            raise DimensionMismatch(f"{name} must be {n}x{n}, got {A.shape}")
    if B_u.shape[0] != n:
        raise DimensionMismatch(f"B_u must have {n} rows, got {B_u.shape[0]}")
    if C_p.shape[1] != n or C_v.shape[1] != n:
        raise DimensionMismatch("C_p and C_v must have n columns")
    if C_p.shape[0] != C_v.shape[0]:
        raise DimensionMismatch("C_p and C_v must have the same number of rows")
    rcond = _rcond(M)
    if rcond < 1e-14:
        raise SingularMass(f"reciprocal condition number {rcond:.3e} of M below 1e-14")
    return SecondOrderSystem(*map(_frozen, (M, E, K, B_u, C_p, C_v)))


def first_companion(sys, j="identity"):
    """First companion realization of a second-order system.

    The coupling block ``J`` in

        calE = [[J, 0], [0, M]],   calA = [[0, J], [-K, -E]],
        calB = [0; B_u],           calC = [C_p, C_v]

    is a free invertible choice that never changes the transfer function.

    Parameters
    ----------
    sys
        :class:`SecondOrderSystem`.
    j
        ``"identity"``, ``"neg_k"`` (uses ``-K``) or an explicit ``n x n``
        matrix.

    Raises
    ------
    SingularJ
        If the coupling block is ``"neg_k"`` or explicit and an LU
        factorization finds it exactly singular, or its estimated reciprocal
        1-norm condition number is below ``1e-14`` (the test
        :func:`make_second_order` applies to ``M``).
    """
    sys = _dense(sys)
    n = sys.n
    if isinstance(j, str):
        if j == "identity":
            J = np.eye(n)
        elif j == "neg_k":
            J = -sys.K
        else:
            raise InvalidParams(f"unknown companion coupling choice {j!r}")
    else:
        J = _as_matrix(j, "J")
        if J.shape != (n, n):
            raise DimensionMismatch(f"J must be {n}x{n}")
    if not isinstance(j, str) or j == "neg_k":
        rcond = _rcond(J)
        if rcond < 1e-14:
            raise SingularJ("companion coupling block is singular (reciprocal "
                            f"condition number {rcond:.3e} below 1e-14)")

    calE = np.block([[J, np.zeros((n, n))], [np.zeros((n, n)), sys.M]])
    calA = np.block([[np.zeros((n, n)), J], [-sys.K, -sys.E]])
    calB = np.vstack([np.zeros((n, sys.m)), sys.B_u])
    calC = np.hstack([sys.C_p, sys.C_v])
    return FirstOrderRealization(*map(_frozen, (calE, calA, calB, calC)))


def _check_spd(A, name, tol=1e-10):
    if spla.norm(A - A.T) > tol * max(spla.norm(A), 1.0):
        raise NotSPD(f"{name} is not symmetric")
    w = spla.eigvalsh(0.5 * (A + A.T))
    if w[0] <= tol * max(abs(w[-1]), 1.0) * 1e-4:
        raise NotSPD(f"{name} is not positive definite (min eig {w[0]:.3e})")


def dissipativity_shift_bound(sys):
    """Upper bound of the admissible shift for the strictly dissipative form.

    Returns ``lambda_min(E (M + 1/4 E K^{-1} E)^{-1})``; any
    ``0 < gamma < bound`` yields a realization with symmetric positive
    definite ``calE`` and negative definite symmetric part of ``calA``.
    """
    sys = _dense(sys)
    inner = sys.M + 0.25 * sys.E @ spla.solve(sys.K, sys.E, assume_a="sym")
    # E and inner are SPD, so the product spectrum matches the symmetric
    # generalized problem E v = lambda inner v.
    w = spla.eigvalsh(0.5 * (sys.E + sys.E.T), 0.5 * (inner + inner.T))
    return float(w[0])


def strictly_dissipative(sys, gamma=None):
    """Strictly dissipative first-order realization.

    Requires symmetric positive definite ``M, E, K``.  Builds

        calE = [[K, g M], [g M, M]],
        calA = [[-g K, K - g E], [-K, -E + g M]],
        calB = [g B_u; B_u],     calC = [C_p, C_v],

    with shift ``g`` strictly inside ``(0, dissipativity_shift_bound(sys))``;
    by default half the bound.  ``calE`` is then SPD and
    ``calA + calA^T`` negative definite, which downstream projection solvers
    exploit.

    Raises
    ------
    NotSPD
        If any of ``M, E, K`` fails the definiteness check.
    GammaOutOfRange
        If an explicit shift lies outside the open admissible interval.
    """
    sys = _dense(sys)
    _check_spd(sys.M, "M")
    _check_spd(sys.E, "E")
    _check_spd(sys.K, "K")
    bound = dissipativity_shift_bound(sys)
    if gamma is None:
        gamma = 0.5 * bound
    if not (0.0 < gamma < bound):
        raise GammaOutOfRange(f"gamma={gamma:.6e} outside (0, {bound:.6e})")
    g = float(gamma)
    M, E, K = sys.M, sys.E, sys.K
    calE = np.block([[K, g * M], [g * M, M]])
    calA = np.block([[-g * K, K - g * E], [-K, -E + g * M]])
    calB = np.vstack([g * sys.B_u, sys.B_u])
    calC = np.hstack([sys.C_p, sys.C_v])
    return FirstOrderRealization(*map(_frozen, (calE, calA, calB, calC)), gamma=g)


def dissipative_backtransform_matrix(sys, gamma):
    """State-space transform mapping dissipative-form observability factors
    back to the companion form with identity coupling block.

    If ``Qd`` solves the observability equation for the dissipative
    realization, then ``T^T Qd T`` solves it for the companion form, with
    ``T = [[K, gamma I], [gamma M, I]]``.
    """
    sys = _dense(sys)
    n = sys.n
    return np.block([[sys.K, gamma * np.eye(n)],
                     [gamma * sys.M, np.eye(n)]])


def gramian_backtransform(Z, sys, gamma):
    """Apply the dissipative-to-companion observability transform to a factor.

    For ``Qd = Z Y Z^T`` the companion-form Gramian is
    ``(T^T Z) Y (T^T Z)^T`` with ``T`` of
    :func:`dissipative_backtransform_matrix`; this returns
    ``T^T Z = [K^T Z_1 + gamma M^T Z_2; gamma Z_1 + Z_2]`` by blocks, so
    ``M`` and ``K`` may be sparse.
    """
    n = sys.n
    if Z.shape[0] != 2 * n:
        raise DimensionMismatch("factor rows must equal the realization dimension")
    return np.vstack([sys.K.T @ Z[:n] + gamma * (sys.M.T @ Z[n:]), gamma * Z[:n] + Z[n:]])


def _common_pattern(mats):
    """CSC structure of ``sum(mats)`` and the entries of each matrix on it.

    Returns ``(indptr, indices, datas)``: for any scalars ``c_k``,
    ``csc_array((sum(c_k * datas[k]), indices, indptr))`` is
    ``sum(c_k * mats[k])``.
    """
    coos = [scipy.sparse.coo_array(A) for A in mats]
    rows = np.concatenate([c.row for c in coos])
    cols = np.concatenate([c.col for c in coos])
    pattern = scipy.sparse.csc_array((np.ones(rows.size), (rows, cols)),
                                     shape=mats[0].shape)
    pattern.sum_duplicates()
    n_rows = pattern.shape[0]
    col_of = np.repeat(np.arange(pattern.shape[1]), np.diff(pattern.indptr))
    keys = col_of * n_rows + pattern.indices  # ascending in CSC order
    datas = []
    for c in coos:
        d = np.zeros(pattern.nnz)
        np.add.at(d, np.searchsorted(keys, c.col * n_rows + c.row), c.data)
        datas.append(d)
    return pattern.indptr, pattern.indices, datas


# least share of its band a sparse pattern fills for a sweep to factor it
# with LAPACK's band LU instead of SuperLU (MATLAB mldivide's default)
BAND_DENSITY_MIN = 0.5


def _band_scatter(indptr, indices):
    """``(kl, ku, pos)`` for a square CSC pattern that fills at least
    ``BAND_DENSITY_MIN`` of its band, else ``None``: the lower and upper
    bandwidths and, per entry, its flat index in Fortran-ordered LAPACK band
    storage of ``2 kl + ku + 1`` rows (``ab[kl + ku + i - j, j] = A[i, j]``;
    the top ``kl`` rows take the fill-in of ``gbtrf``)."""
    n = indptr.size - 1
    cols = np.repeat(np.arange(n), np.diff(indptr))
    offsets = indices - cols  # i - j
    kl, ku = max(int(offsets.max()), 0), max(int(-offsets.min()), 0)
    if indices.size < BAND_DENSITY_MIN * (kl + ku + 1) * n:
        return None
    return kl, ku, cols * (2 * kl + ku + 1) + (kl + ku + offsets)


def _band_lu(ab, kl, ku):
    """:func:`_lu` for a matrix in the band storage ``ab`` of
    :func:`_band_scatter`, factored in place by LAPACK ``gbtrf``; ``None`` if
    a pivot is exactly zero."""
    gbtrf, gbtrs = spla.get_lapack_funcs(("gbtrf", "gbtrs"), (ab,))
    lu, piv, info = gbtrf(ab, kl, ku, overwrite_ab=1)
    if info > 0:
        return None
    return lambda b, trans="N": gbtrs(lu, kl, ku, b, piv, trans="NTH".index(trans))[0]


# bytes of the working block of the dense response paths: in
# _shifted_solves the stacked operators of a chunk of points and the one
# temporary of their size that building them takes (all 200 points of a
# sweep up to n = 18, one point from n = 182); in _trapezoid a block of
# states and the tables of its groups of steps.  It bounds memory: stacks
# of two and single solves took the same time from n = 150 to 300 (one
# BLAS thread, 2-core Xeon)
_CHUNK_BYTES = 2**21


def _shifted_solves(obj, points, dual=False):
    """The one solver of ``A(s) = s^2 M + s E + K`` (input map ``B_u``,
    output map ``C(s) = C_p + s C_v``) or ``A(s) = s calE - calA`` (``calB``,
    ``calC``) for a second-order system or a first-order realization.

    Yields, per point ``s``, ``X = A(s)^{-1} B``, or the pair ``(X, D)``
    with the dual directions ``D = A(s)^{-H} C(s)^H`` when ``dual``.  Yields
    ``None`` where ``A(s)`` is singular or a solution is not finite; callers
    raise their own typed error.

    Sparse ``M, E, K``: the CSC pattern of ``M + E + K``, the entries of
    each matrix on it and the choice of factorization are made once per
    sweep, so a point costs one vector combination and one factorization.
    A pattern that fills at least ``BAND_DENSITY_MIN`` of its band (a
    chain, a diagonal) is scattered into LAPACK band storage and factored
    by ``gbtrf``; any other pattern (a 2D or 3D mesh) by SuperLU.  Sparse,
    or ``dual``: each point is factored once, and ``D`` reuses the factors
    of ``X`` (``gbtrs``, or the solve of :func:`_lu`, with ``A^H``).
    Dense, ``X`` alone: the operators of a chunk of as many points as
    ``_CHUNK_BYTES`` holds are stacked and solved by one
    ``numpy.linalg.solve`` call, which runs LAPACK ``gesv`` on each slice of
    the stack and, unlike ``scipy.linalg.solve``, neither estimates the
    condition nor looks for banded structure; a chunk with a singular point
    is solved again point by point, by the same ``gesv``, so a point's ``X``
    does not depend on its chunk.
    """
    first = isinstance(obj, FirstOrderRealization)
    B = (obj.calB if first else obj.B_u).astype(complex)
    sparse = not first and scipy.sparse.issparse(obj.M)
    size = max(1, _CHUNK_BYTES // (32 * B.shape[0] ** 2))

    def operator(s, out=None):  # A(s) at a point or a (k, 1, 1) column of them
        if first:
            out = np.multiply(s, obj.calE, out=out)
            out -= obj.calA
        else:
            out = np.multiply(s * s, obj.M, out=out)
            out += s * obj.E
            out += obj.K
        return out

    if sparse:
        indptr, indices, (dM, dE, dK) = _common_pattern((obj.M, obj.E, obj.K))
        band = _band_scatter(indptr, indices)
        if band is None:
            A = scipy.sparse.csc_array((dK.astype(complex), indices, indptr),
                                       shape=obj.M.shape)

    def factor(s):
        if not sparse:
            return _lu(operator(s))
        data = s * s * dM + s * dE + dK
        if band is None:
            A.data = data
            return _lu(A)
        kl, ku, pos = band
        flat = np.zeros(obj.n * (2 * kl + ku + 1), dtype=complex)
        flat[pos] = data
        return _band_lu(flat.reshape(obj.n, -1).T, kl, ku)

    def pointwise():
        for s in points:
            solve = factor(s)
            if solve is None:
                yield None
                continue
            X = solve(B)
            D = solve(_output_map(obj, s).conj().T, trans="H") if dual else None
            if not (np.all(np.isfinite(X)) and (D is None or np.all(np.isfinite(D)))):
                yield None
            else:
                yield (X, D) if dual else X

    def stacked():
        buffer = np.empty((min(size, len(points)),) + 2 * B.shape[:1], dtype=complex)
        for lo in range(0, len(points), size):
            s = np.asarray(points[lo:lo + size], dtype=complex)
            stack = operator(s[:, None, None], out=buffer[:s.size])
            try:
                Xs = np.linalg.solve(stack, B)
            except np.linalg.LinAlgError:  # it does not say which point
                Xs = [_gesv_or_none(A_s, B) for A_s in stack]
            for X in Xs:
                yield X if X is not None and np.isfinite(X).all() else None

    return pointwise() if sparse or dual else stacked()


def _gesv_or_none(A, B):
    try:
        return np.linalg.solve(A, B)
    except np.linalg.LinAlgError:
        return None


def _dual_blocks(obj, points, error):
    """Yields, per point of :func:`_shifted_solves` with ``dual``, the real
    block ``[X.real, X.imag, D.real, D.imag]``, whose span is closed under
    conjugation; raises ``error`` at the first point that is (near) a pole."""
    for s, XD in zip(points, _shifted_solves(obj, points, dual=True)):
        if XD is None:
            raise error(f"s={s} is (near) a pole")
        yield np.hstack([part for blk in XD for part in (blk.real, blk.imag)])


def _dual_directions(obj, points, error):
    """The blocks of :func:`_dual_blocks` side by side."""
    return np.hstack(list(_dual_blocks(obj, points, error)))


def _output_map(obj, s):
    """``C(s)`` of :func:`_shifted_solves`."""
    return obj.calC if isinstance(obj, FirstOrderRealization) else obj.C_p + s * obj.C_v


def _memoized(obj, name, key, compute):
    """``compute()``, kept in the memo of a :class:`SecondOrderSystem` under
    ``name`` for the latest ``key`` only, which bounds the memo at one entry
    per function.  Other objects compute every time.  An exception is never
    stored, so a repeated failing call raises again.  Callers return copies
    of what is stored."""
    if not isinstance(obj, SecondOrderSystem):
        return compute()
    hit = obj._memo.get(name)
    if hit is not None and hit[0] == key:
        return hit[1]
    value = compute()
    obj._memo[name] = (key, value)
    return value


def _transfer(obj, pts):
    """``H`` at every point of ``pts``, a NaN block where a solve fails."""
    out = np.full((pts.size, obj.p, obj.m), np.nan, dtype=complex)
    # exactly singular points produce inf/nan instead of LinAlgError on some
    # LAPACK paths; silence the numpy noise and catch them afterwards
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for i, (sk, X) in enumerate(zip(pts, _shifted_solves(obj, pts))):
            if X is not None:
                out[i] = _output_map(obj, sk) @ X
    return out


def eval_transfer(obj, s, skip_poles=False):
    """Evaluate the transfer function at one or several complex points.

    A sparse model factors ``s^2 M + s E + K`` at each point, with LAPACK's
    band LU when its pattern is banded (a chain) and with SuperLU
    otherwise.  A dense model, or a realization, stacks its operators for a
    chunk of points and solves the chunk with one ``numpy.linalg.solve``
    call; a chunk with a pole in it is solved again point by point, so the
    pole alone fails.

    A :class:`SecondOrderSystem` remembers its latest set of points: asked
    again for exactly the same points, it returns a copy of the stored
    values without solving.

    Parameters
    ----------
    obj
        :class:`SecondOrderSystem` or :class:`FirstOrderRealization`.
    s
        Complex scalar or 1d array of points.
    skip_poles
        Return a NaN block at points where the evaluation fails instead of
        raising.

    Returns
    -------
    H
        ``(p, m)`` array for scalar ``s``, else ``(len(s), p, m)``.

    Raises
    ------
    SingularAtFrequency
        If a point coincides with a system pole within solver tolerance.
    """
    pts = np.atleast_1d(np.asarray(s, dtype=complex))
    scalar = np.ndim(s) == 0
    out = _memoized(obj, "eval_transfer", pts.tobytes(),
                    lambda: _transfer(obj, pts)).copy()
    bad = ~np.all(np.isfinite(out), axis=(1, 2))
    if np.any(bad):
        if not skip_poles:
            raise SingularAtFrequency(f"s={pts[bad][0]} is (near) a pole")
        out[bad] = np.nan
    return out[0] if scalar else out


def generate_chain(n, masses=100.0, ground_stiffness=None, coupling_stiffness=2.0,
                   ground_damping=None, coupling_damping=5.0):
    """Mass-spring-damper chain benchmark.

    ``n`` masses in a row; mass ``i`` is tied to ground by a spring
    ``kappa_i`` and damper ``delta_i`` and to its right neighbour by a
    spring ``k_i`` and damper ``d_i``.  Stiffness assembly is the standard
    tridiagonal one: diagonal ``kappa_i + k_{i-1} + k_i`` (with
    ``k_0 = k_n = 0``), off-diagonal ``-k_i``; damping follows the same
    pattern.  The input is a force on the first mass and the outputs are the
    positions of masses 1, 2 and ``n-1``.

    Scalar parameters are broadcast; ``ground_stiffness``/``ground_damping``
    default to the heavier end-anchoring used throughout the examples
    (``kappa = 4`` and ``delta = 10`` at both ends, ``2`` and ``5`` inside).

    Returns a :class:`SecondOrderSystem` with ``M``, ``E`` and ``K`` as
    ``scipy.sparse.csc_array`` (diagonal and tridiagonal) and dense ``B_u``,
    ``C_p``, ``C_v``, all read-only.

    Raises
    ------
    InvalidParams
        For ``n < 2`` or non-positive masses, stiffnesses or dampings.
    """
    if n < 2:
        raise InvalidParams("chain needs at least two masses")

    def expand(val, size, name):
        arr = np.asarray(val, dtype=float)
        if arr.ndim == 0:
            arr = np.full(size, float(arr))
        if arr.shape != (size,):
            raise InvalidParams(f"{name} must be scalar or length {size}")
        if np.any(arr <= 0):
            raise InvalidParams(f"{name} must be positive")
        return arr

    if ground_stiffness is None:
        kappa = np.full(n, 2.0)
        kappa[0] = kappa[-1] = 4.0
    else:
        kappa = expand(ground_stiffness, n, "ground_stiffness")
    if ground_damping is None:
        delta = np.full(n, 5.0)
        delta[0] = delta[-1] = 10.0
    else:
        delta = expand(ground_damping, n, "ground_damping")
    mass = expand(masses, n, "masses")
    k = expand(coupling_stiffness, n - 1, "coupling_stiffness")
    d = expand(coupling_damping, n - 1, "coupling_damping")

    def tridiag(ground, coupling):
        pad = np.concatenate([[0.0], coupling, [0.0]])
        return scipy.sparse.diags_array(
            [-coupling, ground + pad[:-1] + pad[1:], -coupling],
            offsets=[-1, 0, 1], format="csc")

    M = scipy.sparse.diags_array(mass, format="csc")
    K = tridiag(kappa, k)
    E = tridiag(delta, d)
    B_u = np.zeros((n, 1))
    B_u[0, 0] = 1.0
    C_p = np.zeros((3, n))
    C_p[0, 0] = 1.0
    C_p[1, 1] = 1.0
    C_p[2, n - 2] = 1.0
    C_v = np.zeros((3, n))
    return SecondOrderSystem(*map(_frozen, (M, E, K, B_u, C_p, C_v)))


@dataclass
class StepSignal:
    """u(t) = amplitude * 1[t >= onset], applied to every input channel."""

    amplitude: float = 1.0
    onset: float = 0.0

    def sample(self, t, m):
        u = np.where(t >= self.onset, self.amplitude, 0.0)
        return np.tile(u[:, None], (1, m))


@dataclass
class SineSignal:
    """u(t) = amplitude * (sin(omega t) + offset) * 1[t >= onset]."""

    amplitude: float = 1.0
    omega: float = 1.0
    onset: float = 0.0
    offset: float = 0.0

    def sample(self, t, m):
        u = self.amplitude * (np.sin(self.omega * t) + self.offset)
        u = np.where(t >= self.onset, u, 0.0)
        return np.tile(u[:, None], (1, m))


@dataclass
class CustomSignal:
    """Explicit samples on the simulation grid, shape ``(len(t),)`` or ``(len(t), m)``."""

    samples: np.ndarray

    def sample(self, t, m):
        u = np.asarray(self.samples, dtype=float)
        if u.ndim == 1:
            u = np.tile(u[:, None], (1, m))
        if u.shape != (t.size, m):
            raise DimensionMismatch(f"custom samples must have shape ({t.size}, {m})")
        return u


def simulate(obj, signal, t, return_states=False):
    """Integrate the system response with the trapezoidal rule.

    Zero initial state.  The grid ``t`` must be uniformly spaced with step
    ``h``; one LU factorization is reused for all steps, so the run is
    deterministic for fixed inputs.

    A :class:`SecondOrderSystem` is stepped in second-order form, in
    position ``x`` and velocity ``v = x'``:

        S v_1 = (M - h/2 E - h^2/4 K) v_0 - h K x_0 + h/2 B_u (u_0 + u_1),
        x_1 = x_0 + h/2 (v_0 + v_1),   S = M + h/2 E + h^2/4 K,

    which is the trapezoidal rule on any first companion form, with one
    ``n x n`` factorization instead of one of size ``2n``.  A
    :class:`FirstOrderRealization` is stepped on its pencil with
    ``calE - h/2 calA``.  Sparse ``M``, ``E``, ``K`` stay sparse: one
    SuperLU factorization of ``S``, then one solve with it and one CSR
    product with ``[-h K, M - h/2 E - h^2/4 K]`` per step.  A dense model
    (either kind) solves with its LAPACK ``getrf`` once, for the step
    matrix ``Phi`` of ``[x; v]`` (or of ``q``) and the input map:
    with ``P = S^{-1} [-h K, M - h/2 E - h^2/4 K]``,
    ``Phi = [[I, h/2 I] + h/2 P; P]``, and for a realization
    ``Phi = (calE - h/2 calA)^{-1} (calE + h/2 calA)``.  With up to 32
    states it advances a group of ``L = 256 // d`` steps per product with
    a table of the powers ``Phi^1 ... Phi^L``, formed once per run, and
    carries one state per group; with more states, or when a power
    overflows, each step is one product with ``Phi``.  The outputs agree
    with stepping to rounding, not bit for bit.

    A :class:`SecondOrderSystem` remembers its latest outputs: asked again
    for the same grid and input samples, it returns a copy of the stored
    outputs without stepping.  A run with ``return_states`` is neither
    stored nor looked up, since its states would dominate the memory.

    Parameters
    ----------
    obj
        :class:`SecondOrderSystem` or :class:`FirstOrderRealization`.
    signal
        Object with ``sample(t, m) -> (len(t), m)``; see :class:`StepSignal`,
        :class:`SineSignal`, :class:`CustomSignal`.
    t
        Increasing, uniformly spaced time grid.
    return_states
        Also return the states, ``[x, x']`` per row for a second-order
        system.

    Raises
    ------
    NonFiniteState
        If the state becomes non-finite, reported at the first step where
        it does, or if the step matrix is exactly singular (``2/h`` is a
        pole).
    """
    t = np.asarray(t, dtype=float)
    if t.ndim != 1 or t.size < 2:
        raise InvalidParams("time grid must be a 1d array with at least two points")
    h = t[1] - t[0]
    if h <= 0 or np.max(np.abs(np.diff(t) - h)) > 1e-10 * max(h, 1.0):
        raise InvalidParams("time grid must be uniformly spaced and increasing")
    U = np.asarray(signal.sample(t, obj.m), dtype=float)
    if return_states:
        return _trapezoid(obj, t, U, return_states=True)
    Y = _memoized(obj, "simulate", (t.tobytes(), U.tobytes()),
                  lambda: _trapezoid(obj, t, U).outputs)
    return Trajectory(times=t, outputs=Y.copy())


def _trapezoid(obj, t, U, return_states=False):
    """The trapezoidal run of :func:`simulate` on a checked grid ``t`` with
    input samples ``U``: ``q_k = w_k + advance(q_{k-1})`` with the input rows
    ``w_k = (u_{k-1} + u_k) Gamma^T``, run in chunks of ``_CHUNK_BYTES``
    whose inputs are one product with ``Gamma^T`` and outputs one with
    ``C^T``; only the last state is carried to the next chunk unless every
    state is returned.

    A sparse model steps one row at a time with one SuperLU solve for the
    new velocity.  A dense model takes groups of ``L`` steps (see
    :func:`_step_tables`): a chunk's groups are one product of their input
    rows with the Toeplitz table of the powers of ``Phi^T``, then one
    ``d``-vector per group is carried in Python and added through
    ``[Phi^T ... (Phi^T)^L]``.  Without tables it runs the loop of a sparse
    model, with one row product with ``Phi^T`` per step.  A chunk with a
    non-finite state is stepped again one row at a time from the state
    carried into it, so the error names the step that the row loop finds."""
    h = t[1] - t[0]
    hh = 0.5 * h
    second_order = isinstance(obj, SecondOrderSystem)
    if second_order:
        hhK = hh * hh * obj.K
        lhs = obj.M + hh * obj.E + hhK
        blocks = [-h * obj.K, obj.M - hh * obj.E - hhK]
        rhs_mat = (scipy.sparse.hstack(blocks, format="csr")
                   if scipy.sparse.issparse(lhs) else np.hstack(blocks))
        hB = hh * obj.B_u
        C = np.hstack([obj.C_p, obj.C_v])
    else:
        lhs = obj.calE - hh * obj.calA
        rhs_mat = obj.calE + hh * obj.calA
        hB = hh * obj.calB
        C = obj.calC
    solve = _lu(lhs)
    if solve is None:
        raise NonFiniteState(f"trapezoidal step matrix is singular: s={2.0 / h:.6g} "
                             "is a pole")
    Usum = U[:-1] + U[1:]
    sparse = scipy.sparse.issparse(lhs)
    if sparse:  # a second-order model: z is the new velocity
        n = obj.n
        G = solve(hB)

        def advance(q, row):
            z = solve(rhs_mat @ q)
            # x += h/2 (v_0 + v_1), without overflowing in v_0 + v_1
            row[:n] += q[:n] + (hh * q[n:] + hh * z)
            row[n:] += z
    else:
        P, G = np.hsplit(solve(np.hstack([rhs_mat, hB])), [rhs_mat.shape[1]])
        PhiT = P.T
        if second_order:  # P q + G (u_0 + u_1) is the new velocity
            I = np.eye(obj.n)
            PhiT = np.vstack([np.hstack([I, hh * I]) + hh * P, P]).T

        def advance(q, row):
            row += q @ PhiT
    Gamma = np.vstack([hh * G, G]) if second_order else G
    d = Gamma.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):  # a power may overflow
        tables = None if sparse else _step_tables(PhiT)
    rows = max(1, (_CHUNK_BYTES - sum(a.nbytes for a in tables or ())) // (8 * d))
    Y = np.zeros((t.size, C.shape[0]))
    states = np.zeros((t.size, d)) if return_states else None

    def stepped(q, lo):
        Q = Usum[lo - 1:lo - 1 + rows] @ Gamma.T
        for row in Q:
            advance(q, row)
            q = row
        return Q

    def blocked(q, lo):
        # q_{k0+j} = sum_{i<=j} w_{k0+i} (Phi^T)^(j-i) + q_{k0-1} (Phi^T)^(j+1)
        # per group of L steps, its inputs zero-padded to whole groups
        T, Pow = tables
        L = T.shape[0] // d
        Us = Usum[lo - 1:lo - 1 + rows]
        groups = -(-len(Us) // L)
        W = np.zeros((groups * L, d))
        np.matmul(Us, Gamma.T, out=W[:len(Us)])
        Q = (W.reshape(groups, L * d) @ T).reshape(-1, d)
        del W
        starts = np.empty((groups, d))  # the state carried into each group
        starts[0] = q
        for k in range(1, groups):
            starts[k] = Q[k * L - 1] + starts[k - 1] @ Pow[:, -d:]
        Q += (starts @ Pow).reshape(-1, d)
        return Q[:len(Us)]

    def chunk(q, lo):
        Q = run(q, lo)
        finite = np.isfinite(Q).all(axis=1)
        if not finite.all() and run is blocked:
            Q = stepped(q, lo)
            finite = np.isfinite(Q).all(axis=1)
        if not finite.all():
            raise NonFiniteState("state became non-finite at "
                                 f"t={t[lo + np.argmin(finite)]:.6g}")
        Y[lo:lo + rows] = Q @ C.T
        if return_states:
            states[lo:lo + rows] = Q
        return Q[-1].copy()  # a view would keep the whole chunk alive

    run = stepped if tables is None else blocked
    q = np.zeros(d)
    # a blowing-up state overflows quietly; the first non-finite state is
    # reported as a typed error instead
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(1, t.size, rows):
            q = chunk(q, lo)
    return Trajectory(times=t, outputs=Y, states=states)


def _step_tables(PhiT):
    """The tables of :func:`_trapezoid`'s groups of ``L`` steps of a dense
    model with ``d`` states: the ``(L d) x (L d)`` block upper triangular
    Toeplitz table whose block ``(i, j)`` is ``(Phi^T)^(j-i)`` for
    ``j >= i``, and the ``d x (L d)`` row ``[Phi^T ... (Phi^T)^L]``.  ``L``
    is the largest whose Toeplitz table takes at most a quarter of
    ``_CHUNK_BYTES``.

    ``None``, and the run steps one row at a time, when a power is not
    finite or a group would hold fewer than 8 steps: the table's product
    costs ``L`` row products per step, and groups of 5 steps (``d = 48``)
    took longer than the row loop while groups of 8 (``d = 32``) took
    0.7-0.8 of its time (2001 steps, min of 15, one BLAS thread, 2-core
    Xeon)."""
    d = PhiT.shape[0]
    L = math.isqrt(_CHUNK_BYTES // 32) // d
    if L < 8:
        return None
    powers = [PhiT]
    for _ in range(L - 1):
        powers.append(powers[-1] @ PhiT)
    Pow = np.hstack(powers)
    if not np.isfinite(Pow).all():
        return None
    T = np.zeros((L * d, L * d))
    T[:d, :d] = np.eye(d)
    T[:d, d:] = Pow[:, :-d]
    for i in range(1, L):
        T[i * d:(i + 1) * d, i * d:] = T[:d, :(L - i) * d]
    return T, Pow


STABILITY_MAX_DIM = 5000  # largest dimension of a dense stability eigensolve


def check_stability(obj):
    """Dense eigenvalue-based stability check of the realization pencil.

    Second-order systems are checked through their companion form, once
    per system: a repeated call returns a copy of the stored report.  A report
    lists the pencil eigenvalues, the largest real part, strict c-stability,
    and the numerically marginal eigenvalues
    (``|Re| <= 1e-12 * max |lambda|``).

    Raises
    ------
    DimensionTooLarge
        If the realization dimension exceeds ``STABILITY_MAX_DIM``.
    """
    second_order = isinstance(obj, SecondOrderSystem)
    N = 2 * obj.n if second_order else obj.N
    if N > STABILITY_MAX_DIM:
        raise DimensionTooLarge(
            f"dense eigensolve guard: N={N} > {STABILITY_MAX_DIM}")
    rep = _memoized(obj, "check_stability", None, lambda: _stability(
        first_companion(obj) if second_order else obj))
    return replace(rep, eigenvalues=rep.eigenvalues.copy(),
                   marginal=rep.marginal.copy())


def _stability(real):
    lam = real.pencil_eigenvalues()
    finite = lam[np.isfinite(lam)]
    if finite.size < lam.size or finite.size == 0:
        return StabilityReport(False, np.inf, lam, np.array([]))
    scale = np.max(np.abs(finite))
    marginal = finite[np.abs(finite.real) <= 1e-12 * scale]
    max_re = float(np.max(finite.real))
    return StabilityReport(max_re < 0.0, max_re, finite, marginal)
