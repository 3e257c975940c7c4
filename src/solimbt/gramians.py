"""System Gramians: classical, band-limited, window-limited and modified.

All flavors reduce to a pair of generalized Lyapunov equations whose
right-hand sides differ:

======== ==========================================================
infinite ``calB calB^T``                      (definite)
band     ``B_lim calB^T + calB B_lim^T``      (indefinite, rank 2m)
window   ``B_t0 B_t0^T - B_tf B_tf^T``        (indefinite, rank 2m)
modified eigenvalue-split definite surrogate of a limited right-hand
         side; dominates the limited Gramian from above
======== ==========================================================

(observability analogously with ``calC``).  The indefinite cases are passed
to the solvers in factored ``G S G^T`` form with the natural 2x2 block
signature.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as spla

from . import lyapunov, matfun
from .errors import DimensionMismatch, InvalidParams
from .lyapunov import GramianFactor, IndefiniteRhs


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


@dataclass
class CharacteristicValues:
    kind: str
    values: np.ndarray


def _solve_pair(real, make_rhs, flavor, band=None, window=None, solver="sign"):
    """Solve both Lyapunov equations.  ``make_rhs(real)`` returns the
    factored ``(rhs_c, rhs_o)`` of a realization: the full one for the sign
    solver, the projected one for the projection solver."""
    if solver == "sign":
        P, Q, info = lyapunov.solve_lyap_sign_dual(real.calE, real.calA,
                                                   *make_rhs(real))
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


def _limited_rhs(real, band, window):
    """Factored right-hand sides ``(rhs_c, rhs_o)`` of a band or a window."""
    if band is not None:
        rhs = matfun.freq_limited_rhs(real, band)
        Gc, Go = (rhs.B_lim, real.calB), (rhs.C_lim.T, real.calC.T)
    else:
        rhs = matfun.time_limited_rhs(real, window)
        Gc, Go = (rhs.B_t0, rhs.B_tf), (rhs.C_t0.T, rhs.C_tf.T)

    def signature(k):
        ident, zero = np.eye(k), np.zeros((k, k))
        if band is not None:
            return np.block([[zero, ident], [ident, zero]])
        return np.block([[ident, zero], [zero, -ident]])

    return (IndefiniteRhs(np.hstack(Gc), signature(real.m)),
            IndefiniteRhs(np.hstack(Go), signature(real.p)))


def frequency_limited_gramians(real, band, solver="sign"):
    """Band-limited Gramian pair.

    The right-hand sides couple the band-limited maps with the plain ones:
    ``[B_lim, calB]`` against the swap signature ``[[0, I], [I, 0]]`` (and the
    transposed analogue for the outputs).
    """
    return _solve_pair(real, lambda r: _limited_rhs(r, band, None),
                       "band", band=band, solver=solver)


def time_limited_gramians(real, window, solver="sign"):
    """Window-limited Gramian pair.

    Right-hand sides are differences of propagated maps at the window
    endpoints, ``[B_t0, B_tf]`` against ``diag(I, -I)``.
    """
    return _solve_pair(real, lambda r: _limited_rhs(r, None, window),
                       "window", window=window, solver=solver)


SURROGATE_CUTOFF = 1e-12  # relative size of a core eigenvalue taken as zero


def definite_surrogate(rhs):
    """Definite replacement of an indefinite factored right-hand side.

    Eigendecomposes ``G S G^T`` through its thin factor, keeps the
    nonzero-eigenvalue directions ``U_1`` and returns
    ``U_1 diag(|eta|)^{1/2}``, so the surrogate is
    ``U_1 |diag(eta)| U_1^T >= G S G^T``.
    """
    Q, R = spla.qr(rhs.G, mode="economic")
    core = R @ rhs.S @ R.T
    core = 0.5 * (core + core.T)
    eta, V = spla.eigh(core)
    emax = np.max(np.abs(eta)) if eta.size else 0.0
    keep = np.abs(eta) > SURROGATE_CUTOFF * emax
    return (Q @ V[:, keep]) * np.sqrt(np.abs(eta[keep]))


def modified_gramians(real, band=None, window=None):
    """Definite-right-hand-side surrogates of the limited Gramians.

    The modified pair dominates the corresponding limited pair in the
    semidefinite order, restoring the stability guarantees of classical
    balancing while staying band/window aware.
    """
    if (band is None) == (window is None):
        raise InvalidParams("pass exactly one of band or window")
    flavor = "band_modified" if band is not None else "window_modified"
    return _solve_pair(
        real, lambda r: tuple(IndefiniteRhs.definite(definite_surrogate(x))
                              for x in _limited_rhs(r, band, window)),
        flavor, band=band, window=window)


def partition(pair, n):
    """Split Cholesky-like Gramian factors at the position/velocity boundary."""
    R = pair.controllability.cholesky_like()
    L = pair.observability.cholesky_like()
    if R.shape[0] != 2 * n or L.shape[0] != 2 * n:
        raise DimensionMismatch("factors do not match a 2n-dimensional realization")
    return PartitionedFactors(R_p=R[:n], R_v=R[n:], L_p=L[:n], L_v=L[n:])


def characteristic_values(parts, J, M):
    """Second-order characteristic values of all four kinds.

    Computed as singular values of the small factored products (the Gramian
    products themselves are never formed):

    =================== =================
    position            ``L_p^T J R_p``
    position_velocity   ``L_v^T M R_p``
    velocity_position   ``L_p^T J R_v``
    velocity            ``L_v^T M R_v``
    =================== =================
    """
    prods = {
        "position": parts.L_p.T @ J @ parts.R_p,
        "position_velocity": parts.L_v.T @ M @ parts.R_p,
        "velocity_position": parts.L_p.T @ J @ parts.R_v,
        "velocity": parts.L_v.T @ M @ parts.R_v,
    }
    return {kind: CharacteristicValues(kind, spla.svdvals(prod))
            for kind, prod in prods.items()}
