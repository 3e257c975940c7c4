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

The projection solver Galerkin-projects the realization onto one basis of
shifted solves for both sides (``diag(V, V)`` from the ``n x n`` solves of
a second-order parent; Bai & Su, SIAM J. Sci. Comput. 26(5), 2005) and
runs the sign iteration there.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as spla
from scipy.sparse import issparse

from .errors import (
    DimensionMismatch,
    NonFinite,
    NotConverged,
    UnstablePencil,
    UnstableProjection,
)
from .system import FirstOrderRealization, _dual_blocks

# Fixed settings of the sign iteration: it stops once the distance
# ``||X_k + I||_F / sqrt(N)`` of the iterate from its limit ``-I`` is at
# most SIGN_TOL, gives up after SIGN_MAXITER steps, and drops factor
# directions below COMPRESS_TOL relative at each step.
SIGN_TOL = 1e-12
SIGN_MAXITER = 100
COMPRESS_TOL = 1e-14

# Fixed settings of the projection solver: PROJECTION_SHIFTS default shifts,
# and HYBRID_TOL, its (and the hybrid pre-reduction's default) rank cut.
PROJECTION_SHIFTS = 40
HYBRID_TOL = 1e-12


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


def _default_shifts(band, window, obj):
    """The ``PROJECTION_SHIFTS`` default shifts (rad/s) of a realization or a
    second-order system (as its identity-coupled companion pencil), spaced
    logarithmically over the band hull, over ``[1/tf, 10 N/tf]`` for a
    window, or else over ``10^{+-3} ||calA||_F / ||calE||_F``."""
    first = isinstance(obj, FirstOrderRealization)
    if band is not None:
        lo, hi = band.hull
        lo = hi * 1e-4 if lo <= 0.0 else lo
    elif window is not None and np.isfinite(window.tf):
        lo, hi = 1.0 / window.tf, 10.0 * (obj.N if first else 2 * obj.n) / window.tf
    else:
        sq = [np.sum(np.square(A.data if issparse(A) else A)) for A in
              ((obj.calA, obj.calE) if first else (obj.M, obj.E, obj.K))]
        scale = np.sqrt(sq[0] / sq[1] if first else (obj.n + sq[1] + sq[2]) / (obj.n + sq[0]))
        lo, hi = 1e-3 * scale, 1e3 * scale
    return np.logspace(np.log10(lo), np.log10(hi), PROJECTION_SHIFTS)


def _dual_basis(blocks, tol):
    """Orthonormal basis ``V`` of the real blocks of ``system._dual_blocks``,
    grown one block (point) at a time: :func:`_cgs2` projects a block out of
    ``V``, and the residual's singular directions above ``1e-3 tol`` times
    the largest block norm so far are projected again and join ``V`` unless
    less than half of one is left (rounding).  One SVD of the coefficients
    then applies the rank rule of ``scipy.linalg.orth(np.hstack(blocks),
    rcond=tol)`` in ``O(n k r)`` flops for ``k`` directions of rank ``r``.
    Entries below the smallest normal float, such as a chain's directions
    decay into, are zeroed in each block and new column of ``V``."""
    tiny = np.finfo(float).tiny
    coefs, scale, V = [], 0.0, None
    for D in blocks:
        D[np.abs(D) < tiny] = 0.0
        V = np.empty((len(D), 0)) if V is None else V
        Y, R = _cgs2(V, D)
        U, s, Wt = spla.svd(R, full_matrices=False, check_finite=False)
        scale = max(scale, np.linalg.norm(D))
        C = (s[:, None] * Wt)[:np.count_nonzero(s[:len(V) - V.shape[1]] > 1e-3 * tol * scale)]
        if not len(C):
            coefs.append(Y)
            continue
        Z, R = _cgs2(V, U[:, :len(C)])  # U may lean into V by rounding
        U, s, Wt = spla.svd(R, full_matrices=False, check_finite=False)
        new = U[:, s >= 0.5]
        new[np.abs(new) < tiny] = 0.0
        coefs.append(np.vstack([Y + Z @ C, (s[:, None] * Wt @ C)[s >= 0.5]]))
        V = np.hstack([V, new])
    P, sig, _ = spla.svd(np.hstack([np.pad(C, ((0, V.shape[1] - len(C)), (0, 0)))
                                    for C in coefs]), full_matrices=False)
    return V @ P[:, sig > tol * sig[:1]]


def _cgs2(V, X):
    """``(Y, R)``, ``X = V Y + R``: classical Gram-Schmidt, run twice (CGS2)."""
    Y = V.T @ X
    R = X - V @ Y
    Z = V.T @ R
    return Y + Z, R - V @ Z


def solve_lyap_projection_dual(real, make_rhs, band=None, window=None):
    """``(P, Q, info)`` of the dual Lyapunov pair by projection.

    Builds ``V`` by :func:`_dual_basis` (rank cut ``HYBRID_TOL``) at the
    :func:`_default_shifts` of ``real``.  A realization with a second-order
    ``parent`` takes the parent's ``n x n`` solves and is projected by
    ``Vb = diag(V, V)``, which gives the same kind of realization (coupling
    block ``V^T J V``, same ``gamma``) of ``apply_projection(parent, V, V)``;
    any other takes its own solves and ``Vb = V``.  ``make_rhs(small) ->
    (rhs_c, rhs_o)`` builds the right-hand sides on the projection
    ``small``, :func:`solve_lyap_pencil` solves there, both factors are
    lifted by ``Vb``, and ``info`` adds the projected dimension ``dim``.
    Raises ``UnstablePencil`` if a shift is (near) a pole, and
    ``UnstableProjection`` if the projected pencil is not c-stable (retry
    with the strictly dissipative realization)."""
    shifts = 1j * _default_shifts(band, window, real)
    V = _dual_basis(_dual_blocks(real.parent or real, shifts, UnstablePencil), HYBRID_TOL)
    if real.parent is not None:
        V = spla.block_diag(V, V)
    small = real.project(V, V)
    if np.max(small.pencil_eigenvalues().real) >= 0.0:
        raise UnstableProjection(
            "projected pencil not c-stable; retry with the strictly "
            "dissipative realization")
    Ps, Qs, info = solve_lyap_pencil(small, *make_rhs(small))
    return (GramianFactor(V @ Ps.Z, Ps.Y), GramianFactor(V @ Qs.Z, Qs.Y),
            {"dim": V.shape[1], **info})
