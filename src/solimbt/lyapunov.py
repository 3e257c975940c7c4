"""Generalized Lyapunov solvers with low-rank LDL^T factor handling.

The workhorse is a matrix-sign-function iteration that solves the pair

    calA P calE^T + calE P calA^T + G_c S_c G_c^T = 0,
    calA^T Q calE + calE^T Q calA + G_o S_o G_o^T = 0

simultaneously in the standard form ``X = calE^{-1} calA`` that the
realization forms once (Benner & Quintana-Orti, Numer. Algorithms 20,
1999): ``X P + P X^T + (calE^{-1} G_c) S_c (calE^{-1} G_c)^T = 0`` and
``X^T W + W X + G_o S_o G_o^T = 0`` with ``W = calE^T Q calE`` share the
iterates of ``X``, so one LAPACK ``getrf`` and ``getri`` per step serve
both, and a certified last step needs only ``getrs`` solves of the factors.
Right-hand sides are kept in factored indefinite form ``G S G^T``, which is
exactly what the limited balancing variants produce.

The rational-Krylov projection solver covers problems where dense sign
iteration is too expensive: it Galerkin-projects the realization onto the
span of shifted solves for both sides, builds the limited right-hand sides
on the projected realization with the same builders as the sign route, and
runs the sign iteration there.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as spla

from .errors import (
    DimensionMismatch,
    NonFinite,
    NotConverged,
    UnstablePencil,
    UnstableProjection,
)
from .system import _dual_directions

# Fixed settings of the sign iteration: it stops once the distance
# ``||X_k + I||_F / sqrt(N)`` of the iterate from its limit ``-I`` is at
# most SIGN_TOL, gives up after SIGN_MAXITER steps, and drops factor
# directions below COMPRESS_TOL relative at each step.
SIGN_TOL = 1e-12
SIGN_MAXITER = 100
COMPRESS_TOL = 1e-14

# Fixed settings of the projection solver: PROJECTION_SHIFTS shift
# frequencies, added to the subspace PROJECTION_BATCH at a time.
PROJECTION_SHIFTS = 40
PROJECTION_BATCH = 8


@dataclass
class GramianFactor:
    """Low-rank representation ``X = Z Y Z^T`` with symmetric core ``Y``.

    After compression ``Z`` has orthonormal columns and ``Y`` is diagonal.
    The represented Gramians are positive semidefinite in exact arithmetic,
    but the core may carry tiny negative eigenvalues from rounding; these are
    dropped when a Cholesky-like factor is requested.
    """

    Z: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        if self.Y.ndim == 1:
            self.Y = np.diag(self.Y)
        if self.Z.shape[1] != self.Y.shape[0]:
            raise DimensionMismatch("factor core size must match column count")

    @property
    def rank(self):
        return self.Z.shape[1]

    def matrix(self):
        return self.Z @ self.Y @ self.Z.T

    def trace(self):
        return float(np.einsum("ij,ji->", self.Y, self.Z.T @ self.Z))

    def cholesky_like(self):
        """Plain factor ``R`` with ``X ~= R R^T`` (negative core part dropped)."""
        Z, Y = ldl_compress(self.Z, self.Y, tol=0.0)
        w = np.diag(Y)
        keep = w > 0.0
        return Z[:, keep] * np.sqrt(w[keep])


@dataclass
class IndefiniteRhs:
    """Factored symmetric right-hand side ``G S G^T``."""

    G: np.ndarray
    S: np.ndarray

    @classmethod
    def definite(cls, G):
        return cls(G, np.eye(G.shape[1]))

    @classmethod
    def swap(cls, F, G):
        """``F G^T + G F^T`` as ``[F, G]`` against ``[[0, I], [I, 0]]``."""
        k = F.shape[1]
        return cls(np.hstack([F, G]), np.roll(np.eye(2 * k), k, axis=1))

    @classmethod
    def difference(cls, F, G):
        """``F F^T - G G^T`` as ``[F, G]`` against ``diag(I, -I)``."""
        return cls(np.hstack([F, G]), np.diag(np.repeat([1.0, -1.0], F.shape[1])))

    def dense(self):
        return self.G @ self.S @ self.G.T


def ldl_compress(Z, Y, tol=1e-14):
    """Rank-revealing compression of ``Z Y Z^T``.

    Economy QR of ``Z`` followed by an eigendecomposition of the projected
    core; eigenvalues with ``|w| <= tol * max |w|`` are discarded.  Returns an
    orthonormal ``Z`` and a diagonal ``Y`` representing the same matrix up to
    the drop tolerance.
    """
    if Z.shape[1] == 0:
        return Z, np.zeros((0, 0))
    Q, R = spla.qr(Z, mode="economic")
    core = R @ Y @ R.T
    core = 0.5 * (core + core.T)
    w, V = spla.eigh(core)
    wmax = np.max(np.abs(w)) if w.size else 0.0
    keep = np.abs(w) > tol * wmax
    if not np.any(keep):
        return np.zeros((Z.shape[0], 0)), np.zeros((0, 0))
    return Q @ V[:, keep], np.diag(w[keep])


def solve_lyap_sign_dual(X, rhs_c, rhs_o):
    """Sign-function iteration for the dual pair of standard-form Lyapunov
    equations ``X P + P X^T + G_c S_c G_c^T = 0`` and
    ``X^T W + W X + G_o S_o G_o^T = 0`` with :class:`IndefiniteRhs` factors
    ``rhs_c`` and ``rhs_o`` and a c-stable ``N x N`` ``X``.  Its settings
    are the module constants ``SIGN_TOL``, ``SIGN_MAXITER`` and
    ``COMPRESS_TOL``.  A step costs one ``getrf`` and ``getri`` (bit-equal
    to ``scipy.linalg.inv``).  Unscaled, ``X_{k+1} + I = (X_k + I)^2
    X_k^{-1} / 2``, so ``d = ||X_k + I||_F < 1`` bounds the next distance by
    ``d^2 / (2 (1 - d))``; once that is at most ``SIGN_TOL sqrt(N)``, the
    last step is thin: two ``getrs`` give ``X_k^{-1} G_c`` and
    ``X_k^{-T} G_o``, and ``X_k`` is not updated.

    Returns ``(P, W, info)``: :class:`GramianFactor` solutions whose factors
    are the compressed iterates, and a dict with ``num_iter``, ``rel_err``
    (``||X + I||_F / sqrt(N)``, or the bound after a thin last step), the
    per-step ``scaling`` factors and factor ``ranks`` ``(rank_c, rank_o)``,
    and ``thin_last``.

    Raises
    ------
    NonFinite
        If ``X`` or a factor has a non-finite entry.
    UnstablePencil
        If an iterate is singular, or the iteration diverges.
    NotConverged
        If the cap of ``SIGN_MAXITER`` iterations is hit.
    """
    X = np.array(X, dtype=float)  # the iterate, updated in place
    N = X.shape[0]
    B, Yc = rhs_c.G, rhs_c.S
    Ct, Yo = rhs_o.G, rhs_o.S
    if N == 0 or X.shape != (N, N) or B.shape[0] != N or Ct.shape[0] != N:
        raise DimensionMismatch("X must be square, N >= 1, and the factors need N rows")
    x_norm = spla.norm(X, check_finite=False)
    if not (np.isfinite(x_norm) and np.all(np.isfinite(B)) and np.all(np.isfinite(Ct))):
        raise NonFinite("sign iteration input has non-finite entries")

    getrf, getri, getrs, getri_lwork = spla.get_lapack_funcs(
        ("getrf", "getri", "getrs", "getri_lwork"), (X,))
    lwork = int(getri_lwork(N)[0])
    ident, x_inv = np.eye(N), np.empty((N, N))  # x_inv: X^{-1}, then X + I
    lu = np.empty((N, N), order="F")  # X, then its LU factors and its inverse
    sqrt_n = float(np.sqrt(N))
    norm_scale = max(x_norm, sqrt_n)
    dist = float(spla.norm(np.add(X, ident, out=x_inv), check_finite=False))
    scaling, ranks, thin = [], [], False
    while dist / sqrt_n > SIGN_TOL and len(scaling) < SIGN_MAXITER:
        # factoring an F-ordered copy of X, as scipy.linalg.inv(X) does,
        # gives an inverse bit-equal to inv's
        np.copyto(lu, X)
        lu_x, piv, status = getrf(lu, overwrite_a=True)
        if status > 0:
            raise UnstablePencil("singular iterate; pencil eigenvalue at the origin")
        bound = dist ** 2 / (2.0 * (1.0 - dist)) if dist < 1.0 else np.inf
        thin = dist / sqrt_n <= 1e-2 and bound <= SIGN_TOL * sqrt_n
        if thin:
            c = 1.0
            inv_b, inv_t_ct = getrs(lu_x, piv, B)[0], getrs(lu_x, piv, Ct, trans=1)[0]
        else:
            np.copyto(x_inv, getri(lu_x, piv, lwork=lwork, overwrite_lu=True)[0])
            inv_norm = spla.norm(x_inv, check_finite=False)
            if not np.isfinite(inv_norm):
                raise UnstablePencil("sign iteration produced non-finite values")
            # Frobenius-norm scaling, skipped close to convergence where it
            # would perturb the quadratic phase
            c = np.sqrt(x_norm / inv_norm) if dist / sqrt_n > 1e-2 else 1.0
            inv_b, inv_t_ct = x_inv @ B, x_inv.T @ Ct
        half_c, half_inv = 0.5 * c, 0.5 / c

        B, Yc = ldl_compress(np.hstack([B, inv_b]),
                             spla.block_diag(half_inv * Yc, half_c * Yc),
                             tol=COMPRESS_TOL)
        Ct, Yo = ldl_compress(np.hstack([Ct, inv_t_ct]),
                              spla.block_diag(half_inv * Yo, half_c * Yo),
                              tol=COMPRESS_TOL)
        scaling.append(float(c))
        ranks.append((B.shape[1], Ct.shape[1]))
        if thin:
            dist = bound
            break

        X *= half_inv
        x_inv *= half_c
        X += x_inv
        x_norm = spla.norm(X, check_finite=False)
        dist = float(spla.norm(np.add(X, ident, out=x_inv), check_finite=False))
        if x_norm > 1e8 * norm_scale:
            raise UnstablePencil("sign iteration diverged; pencil is not c-stable")
    rel_err = dist / sqrt_n
    if not rel_err <= SIGN_TOL:
        raise NotConverged(f"sign iteration: rel error {rel_err:.3e} > "
                           f"{SIGN_TOL:.1e} after {len(scaling)} steps")

    # the iterated factors converge to those of 2 P and 2 W
    info = {"num_iter": len(scaling), "rel_err": rel_err, "scaling": scaling,
            "ranks": ranks, "thin_last": thin}
    return GramianFactor(B, 0.5 * Yc), GramianFactor(Ct, 0.5 * Yo), info


def solve_lyap_pencil(real, rhs_c, rhs_o):
    """``(P, Q, info)`` of the pencil pair of a realization (module docstring)
    by :func:`solve_lyap_sign_dual` on ``real.standard_form()``, solving with
    ``calE`` through ``real.solve_calE``.  Raises ``UnstableRealization`` if
    ``calE`` is singular, and otherwise as :func:`solve_lyap_sign_dual`."""
    P, W, info = solve_lyap_sign_dual(
        real.standard_form()[0], IndefiniteRhs(real.solve_calE(rhs_c.G), rhs_c.S), rhs_o)
    # 1/sqrt(2) on the factors, not 1/2 on the cores: cholesky_like's QR, and so
    # every reduced model, depends on that scaling to the last bit
    return (GramianFactor(P.Z / np.sqrt(2.0), 2.0 * P.Y),
            GramianFactor(real.solve_calE(W.Z, trans="T") / np.sqrt(2.0), 2.0 * W.Y),
            info)


def _default_shifts(band, window, real):
    """Frequency range ``(lo, hi)`` of the default shifts."""
    if band is not None:
        lo, hi = band.hull
        return (hi * 1e-4 if lo <= 0.0 else lo), hi
    if window is not None and np.isfinite(window.tf):
        return 1.0 / window.tf, 10.0 * real.N / window.tf
    scale = spla.norm(real.calA) / spla.norm(real.calE)
    return 1e-3 * scale, 1e3 * scale


def solve_lyap_projection_dual(real, make_rhs, band=None, window=None):
    """Rational-Krylov projection solver for the dual Lyapunov pair.

    Builds one orthonormal basis ``V`` from the solves
    ``(i w calE - calA)^{-1} calB`` and ``(i w calE - calA)^{-H} calC^T``
    (one LU per shift serves both), Galerkin-projects the realization to
    ``(V^T calE V, V^T calA V, V^T calB, calC V)``, builds the right-hand
    sides on it with ``make_rhs(small) -> (rhs_c, rhs_o)`` and solves the
    small pair with :func:`solve_lyap_pencil`.  The ``PROJECTION_SHIFTS``
    shift frequencies (rad/s) are spread logarithmically over the band hull,
    over ``[1/tf, 10 N/tf]`` for a window, or else over ``10^{+-3}`` times
    the pencil scale ``||calA||_F / ||calE||_F``.  The subspace grows in
    batches of ``PROJECTION_BATCH`` shifts until the traces of both Gramians
    change by at most 1e-8 relatively, or until the basis spans the whole
    space.

    Returns
    -------
    (P, Q, info)
        :class:`GramianFactor` solutions and a dict with the subspace
        dimension ``dim`` and the ``trace_history`` of ``(tr P, tr Q)``.

    Raises
    ------
    UnstableProjection
        If the projected pencil is not c-stable (retry with the strictly
        dissipative realization).
    NotConverged
        If the shift budget is exhausted before the traces settle.
    """
    lo, hi = _default_shifts(band, window, real)
    shifts = np.logspace(np.log10(lo), np.log10(hi), PROJECTION_SHIFTS)

    raw = []
    trace_history = []
    for start in range(0, shifts.size, PROJECTION_BATCH):
        raw.append(_dual_directions(real, 1j * shifts[start:start + PROJECTION_BATCH],
                                    UnstablePencil))
        V = spla.orth(np.hstack(raw))
        small = real.project(V, V)
        if np.max(small.pencil_eigenvalues().real) >= 0.0:
            raise UnstableProjection(
                "projected pencil not c-stable; retry with the strictly "
                "dissipative realization")
        Ps, Qs, _ = solve_lyap_pencil(small, *make_rhs(small))
        traces = np.array([Ps.trace(), Qs.trace()])
        settled = bool(trace_history) and np.all(
            np.abs(traces - trace_history[-1]) <= 1e-8 * np.abs(traces))
        trace_history.append(traces)
        if settled or V.shape[1] >= real.N:
            break
    else:
        raise NotConverged("projection subspace exhausted before the traces settled")

    info = {"dim": V.shape[1], "trace_history": trace_history}
    return GramianFactor(V @ Ps.Z, Ps.Y), GramianFactor(V @ Qs.Z, Qs.Y), info
