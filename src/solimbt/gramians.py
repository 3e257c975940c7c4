"""System Gramians: classical, band-limited, window-limited and modified.

All flavors reduce to a pair of generalized Lyapunov equations whose
right-hand sides ``G S G^T`` differ only in the factor and the signature:

======== ================= ==================== ============================
flavor   ``G``             ``S``                built by
======== ================= ==================== ============================
infinite ``calB``          ``I``                :func:`infinite_gramians`
band     ``[B_lim, calB]`` ``[[0, I], [I, 0]]`` ``matfun.freq_limited_rhs``
window   ``[B_t0, B_tf]``  ``diag(I, -I)``      ``matfun.time_limited_rhs``
modified ``U |eta|^{1/2}`` ``I``                :func:`definite_surrogate`
======== ================= ==================== ============================

(observability analogously with ``calC^T``).  The modified factor comes
from ``ldl_compress(G, S) = (U, diag(eta))`` of a band or window pair and
dominates that right-hand side from above.  The builders and the sign
solver ``lyapunov.solve_lyap_pencil`` all read the realization's one
standard form ``X = calE^{-1} calA``, so ``calE`` is factored at most once
per realization.  :func:`partition` splits the factors at the
position/velocity boundary; the second-order characteristic values of
each product kind are the ``sigma`` that
``balancing.second_order_projectors`` returns.
"""

from dataclasses import dataclass, field

import numpy as np

from . import lyapunov, matfun
from .errors import DimensionMismatch, InvalidParams
from .lyapunov import GramianFactor, IndefiniteRhs, ldl_compress


@dataclass
class GramianPair:
    """Controllability/observability factors plus provenance."""

    controllability: GramianFactor
    observability: GramianFactor
    flavor: str
    band: matfun.FrequencyBand | None = None
    window: matfun.TimeWindow | None = None
    info: dict = field(default_factory=dict)


@dataclass
class PartitionedFactors:
    """Cholesky-like Gramian factors split at the position/velocity boundary.

    ``[R_p; R_v]`` stacks back to the controllability factor and
    ``[L_p; L_v]`` to the observability factor.
    """

    R_p: np.ndarray
    R_v: np.ndarray
    L_p: np.ndarray
    L_v: np.ndarray


def _solve_pair(real, make_rhs, flavor, band=None, window=None, solver="sign"):
    """Solve both Lyapunov equations.  ``make_rhs(real)`` returns the
    factored ``(rhs_c, rhs_o)`` of a realization: the full one for the sign
    solver, the projected one for the projection solver."""
    if solver == "sign":
        P, Q, info = lyapunov.solve_lyap_pencil(real, *make_rhs(real))
    elif solver == "projection":
        P, Q, info = lyapunov.solve_lyap_projection_dual(
            real, make_rhs, band=band, window=window)
    else:
        raise InvalidParams(f"unknown solver {solver!r}")
    return GramianPair(P, Q, flavor, band=band, window=window, info=info)


def infinite_gramians(real, solver="sign"):
    """Classical Gramian pair of a c-stable realization."""
    return _solve_pair(real, lambda r: (IndefiniteRhs.definite(r.calB),
                                        IndefiniteRhs.definite(r.calC.T)),
                       "infinite", solver=solver)


def frequency_limited_gramians(real, band, solver="sign"):
    """Band-limited Gramian pair (right-hand sides of
    ``matfun.freq_limited_rhs``)."""
    return _solve_pair(real, lambda r: matfun.freq_limited_rhs(r, band),
                       "band", band=band, solver=solver)


def time_limited_gramians(real, window, solver="sign"):
    """Window-limited Gramian pair (right-hand sides of
    ``matfun.time_limited_rhs``)."""
    return _solve_pair(real, lambda r: matfun.time_limited_rhs(r, window),
                       "window", window=window, solver=solver)


SURROGATE_CUTOFF = 1e-12  # relative size of a core eigenvalue taken as zero


def definite_surrogate(rhs):
    """Definite replacement of an indefinite factored right-hand side.

    ``ldl_compress`` writes ``G S G^T = U diag(eta) U^T`` with orthonormal
    ``U``, dropping ``|eta|`` below ``SURROGATE_CUTOFF`` relative; the result
    ``U diag(|eta|)^{1/2}`` gives ``U |diag(eta)| U^T >= G S G^T``.
    """
    U, Y = ldl_compress(rhs.G, rhs.S, tol=SURROGATE_CUTOFF)
    return U * np.sqrt(np.abs(np.diag(Y)))


def modified_gramians(real, band=None, window=None):
    """Definite-right-hand-side surrogates of the limited Gramians.

    The modified pair dominates the corresponding limited pair in the
    semidefinite order, restoring the stability guarantees of classical
    balancing while staying band/window aware.
    """
    if (band is None) == (window is None):
        raise InvalidParams("pass exactly one of band or window")
    if band is not None:
        flavor, limited = "band_modified", lambda r: matfun.freq_limited_rhs(r, band)
    else:
        flavor, limited = "window_modified", lambda r: matfun.time_limited_rhs(r, window)
    return _solve_pair(
        real, lambda r: tuple(IndefiniteRhs.definite(definite_surrogate(x))
                              for x in limited(r)),
        flavor, band=band, window=window)


def partition(pair, n):
    """Split Cholesky-like Gramian factors at the position/velocity boundary."""
    R = pair.controllability.cholesky_like()
    L = pair.observability.cholesky_like()
    if R.shape[0] != 2 * n or L.shape[0] != 2 * n:
        raise DimensionMismatch("factors do not match a 2n-dimensional realization")
    return PartitionedFactors(R_p=R[:n], R_v=R[n:], L_p=L[:n], L_v=L[n:])

