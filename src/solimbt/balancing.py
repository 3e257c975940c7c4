"""Square-root balancing: order selection, projector recipes, truncation.

Eight structure-preserving formulas build projection matrices from the
partitioned Gramian factors.  Each one balances a different pairing of the
position/velocity blocks; ``"so"`` keeps two separate pairs and recovers a
second-order model through a similarity transform of the projected
first-order system.

========= ================================ =========================================
formula   singular values of               projectors
========= ================================ =========================================
``v``     ``L_v^T M R_v``                  ``W = L_v U S^-1/2``, ``T = R_v V S^-1/2``
``fv``    ``L_p^T J R_p``                  ``T = R_p V S^-1/2``, ``W = T``
``vpm``   ``L_p^T J R_v``                  ``W = M^-T J^T L_p U S^-1/2``, ``T = R_v V S^-1/2``
``pm``    ``L_p^T J R_p``                  ``W = M^-T J^T L_p U S^-1/2``, ``T = R_p V S^-1/2``
``pv``    ``L_v^T M R_p``                  ``W = L_v U S^-1/2``, ``T = R_p V S^-1/2``
``vp``    ``L_p^T J R_v`` (S, V)           ``W = L_v U S^-1/2`` with U from
          ``L_v^T M R_p`` (U)              the second product, ``T = R_v V S^-1/2``
``p``     ``L_p^T J R_p`` (S, V)           ``W = L_v U S^-1/2`` with U from
          ``L_v^T M R_v`` (U)              the second product, ``T = R_p V S^-1/2``
``so``    both diagonal products           separate pairs ``(W_p, T_p)``, ``(W_v, T_v)``
========= ================================ =========================================
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as spla

from .errors import (
    EmptySpectrum,
    InvalidParams,
    RankDeficient,
    SingularM,
    SingularS,
)
from .gramians import infinite_gramians
from .system import FirstOrderRealization, _lu, make_second_order

FORMULAS = ("v", "fv", "vpm", "pm", "pv", "vp", "p", "so")


@dataclass
class BalancingResult:
    """Projector set for one formula at one order."""

    formula: str
    r: int
    sigma: np.ndarray
    W: np.ndarray | None = None
    T: np.ndarray | None = None
    W_p: np.ndarray | None = None
    T_p: np.ndarray | None = None
    W_v: np.ndarray | None = None
    T_v: np.ndarray | None = None

    @property
    def truncated_tail(self):
        return float(np.sum(self.sigma[self.r:]))


def select_order(sigma, tol=1e-4, fixed_r=None):
    """Smallest order whose truncated tail satisfies
    ``sum_{k > r} sigma_k <= tol * sigma_1``; ``fixed_r`` overrides.

    Raises
    ------
    EmptySpectrum
        If no characteristic values are available.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.size == 0:
        raise EmptySpectrum("no characteristic values to select from")
    if fixed_r is not None:
        if not (1 <= fixed_r <= sigma.size):
            raise InvalidParams(f"fixed order {fixed_r} outside [1, {sigma.size}]")
        return int(fixed_r)
    tails = np.concatenate([np.cumsum(sigma[::-1])[::-1][1:], [0.0]])
    ok = np.nonzero(tails <= tol * sigma[0])[0]
    return int(ok[0]) + 1 if ok.size else sigma.size


def _balanced_pairs(L, X, R, order_tol=1e-4, fixed_r=None):
    """The square-root balancing SVD of ``L^T X R``: ``(L U_r, sigma, R V_r)``.

    ``sigma`` holds all singular values; the order ``r`` is chosen from them
    by :func:`select_order`, and the leading ``r`` singular vector pairs are
    returned lifted back through the factors.  Signs are canonical: the
    largest-magnitude entry of each column of ``L U_r`` is positive, and the
    column of ``R V_r`` flips with it.  The lifted vectors do not depend on
    the sign or rotation freedom of the Gramian factors, so a rounding-level
    change of the model cannot flip a basis vector of the reduced model.

    Raises
    ------
    RankDeficient
        If ``sigma[r - 1]`` is below ``1e-14 sigma[0]``.
    """
    U, s, Vh = spla.svd(L.T @ X @ R, full_matrices=False)
    r = select_order(s, tol=order_tol, fixed_r=fixed_r)
    if s[r - 1] < 1e-14 * s[0]:
        raise RankDeficient(
            f"requested order {r} exceeds the numerical rank of the balancing product")
    LU, RV = L @ U[:, :r], R @ Vh[:r].T
    sign = np.where(LU[np.argmax(np.abs(LU), axis=0), np.arange(r)] < 0, -1.0, 1.0)
    return LU * sign, s, RV * sign


def second_order_projectors(parts, J, M, formula, order_tol=1e-4, fixed_r=None):
    """Build the projector set of one balancing formula.

    Parameters
    ----------
    parts
        :class:`~solimbt.gramians.PartitionedFactors`.
    J, M
        Coupling block of the companion form the Gramians belong to, and the
        mass matrix (dense or sparse; ``vpm``/``pm`` solve with ``M^T``
        through one LU factorization, SuperLU when ``M`` is sparse).
    formula
        One of :data:`FORMULAS`.

    Raises
    ------
    RankDeficient
        If the requested order exceeds the numerical rank.
    SingularM
        If the mass inverse required by ``vpm``/``pm`` fails.
    """
    if formula not in FORMULAS:
        raise InvalidParams(f"unknown balancing formula {formula!r}")
    Rp, Rv, Lp, Lv = parts.R_p, parts.R_v, parts.L_p, parts.L_v

    def minvt(X):
        solve = _lu(M)
        out = None if solve is None else solve(X, trans="T")
        if out is None or not np.all(np.isfinite(out)):
            raise SingularM("mass matrix solve failed in projector assembly")
        return out

    # (left factor, middle, right factor) of the product that gives sigma
    # and T, and of the one that gives W where it differs
    first, second = {
        "v": ((Lv, M, Rv), None),
        "fv": ((Lp, J, Rp), None),
        "vpm": ((Lp, J, Rv), None),
        "pm": ((Lp, J, Rp), None),
        "pv": ((Lv, M, Rp), None),
        "vp": ((Lp, J, Rv), (Lv, M, Rp)),
        "p": ((Lp, J, Rp), (Lv, M, Rv)),
        "so": ((Lp, J, Rp), (Lv, M, Rv)),
    }[formula]
    LU, sigma, RV = _balanced_pairs(*first, order_tol, fixed_r)
    r = LU.shape[1]
    sq = 1.0 / np.sqrt(sigma[:r])
    if formula == "so":
        LUv, sv, RVv = _balanced_pairs(*second, fixed_r=r)
        sqv = 1.0 / np.sqrt(sv[:r])
        return BalancingResult(formula=formula, r=r, sigma=sigma,
                               W_p=LU * sq, T_p=RV * sq,
                               W_v=LUv * sqv, T_v=RVv * sqv)
    if second is not None:
        LU, _, _ = _balanced_pairs(*second, fixed_r=r)
    T = RV * sq
    if formula in ("vpm", "pm"):
        W = minvt(J.T @ LU) * sq
    elif formula == "fv":
        W = T
    else:
        W = LU * sq
    return BalancingResult(formula=formula, r=r, sigma=sigma, W=W, T=T)


def apply_projection(sys, W, T):
    """Petrov-Galerkin truncation of a second-order system."""
    return make_second_order(
        W.T @ sys.M @ T, W.T @ sys.E @ T, W.T @ sys.K @ T,
        W.T @ sys.B_u, sys.C_p @ T, sys.C_v @ T)


def so_reconstruct(sys, J, res):
    """Second-order model from the two-pair (``"so"``) projection.

    The projected companion system has coupling block ``S = W_p^T J T_v``;
    a similarity transform with ``S`` turns it back into second-order form:

        M^ = S (W_v^T M T_v) S^-1,   E^ = S (W_v^T E T_v) S^-1,
        K^ = S (W_v^T K T_p),        B^ = S (W_v^T B_u),
        C_p^ = C_p T_p,              C_v^ = C_v T_v S^-1.

    Raises
    ------
    SingularS
        If ``S`` has condition number above 1e12.
    """
    S = res.W_p.T @ J @ res.T_v
    sv = spla.svdvals(S)
    if sv[-1] <= 0.0 or sv[0] > 1e12 * sv[-1]:
        raise SingularS("coupling matrix numerically singular "
                        f"(extreme singular values {sv[0]:.3e}, {sv[-1]:.3e})")

    def rdiv(X):  # X S^{-1}
        return spla.solve(S.T, X.T).T

    Wv, Tv, Tp = res.W_v, res.T_v, res.T_p
    Mh = S @ rdiv(Wv.T @ sys.M @ Tv)
    Eh = S @ rdiv(Wv.T @ sys.E @ Tv)
    Kh = S @ (Wv.T @ sys.K @ Tp)
    Bh = S @ (Wv.T @ sys.B_u)
    Cph = sys.C_p @ Tp
    Cvh = rdiv(sys.C_v @ Tv)
    return make_second_order(Mh, Eh, Kh, Bh, Cph, Cvh)


@dataclass
class FirstOrderRom:
    """Classical balanced truncation result on a first-order realization."""

    realization: FirstOrderRealization
    r: int
    sigma: np.ndarray
    error_bound: float


def first_order_bt(real, order_tol=1e-4, fixed_r=None):
    """Classical square-root balanced truncation of a first-order realization.

    Solves the infinite Gramian pair, takes the SVD of ``L^T calE R`` and
    truncates.  The reported bound is twice the truncated tail of the
    (Hankel) singular values; the worst-case transfer error over the whole
    frequency axis stays below it.
    """
    pair = infinite_gramians(real)
    R = pair.controllability.cholesky_like()
    L = pair.observability.cholesky_like()
    LU, sigma, RV = _balanced_pairs(L, real.calE, R, order_tol, fixed_r)
    r = LU.shape[1]
    sq = 1.0 / np.sqrt(sigma[:r])
    rom = real.project(LU * sq, RV * sq)
    bound = 2.0 * float(np.sum(sigma[r:]))
    return FirstOrderRom(realization=rom, r=r, sigma=sigma, error_bound=bound)
