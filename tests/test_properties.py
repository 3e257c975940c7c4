"""Property suites (hypothesis), run derandomized so the suite is
deterministic: every run draws the same examples."""

from unittest import mock

import numpy as np
import scipy.linalg as spla
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import solimbt as slt
from solimbt import matfun
from solimbt.system import _rcond

from helpers import stable_generic

DETERMINISTIC = settings(derandomize=True, database=None, deadline=None,
                         max_examples=60)


@st.composite
def bands(draw):
    """One or two intervals; the first may start at zero."""
    lo = draw(st.one_of(st.just(0.0), st.floats(0.01, 5.0)))
    ivs = [(lo, lo + draw(st.floats(0.05, 5.0)))]
    if draw(st.booleans()):
        a = ivs[0][1] + draw(st.floats(0.05, 3.0))
        ivs.append((a, a + draw(st.floats(0.05, 5.0))))
    return slt.FrequencyBand(ivs)


@st.composite
def pencils(draw):
    """c-stable generic pencils, N <= 12: spectrum left of -0.5 and a
    well-conditioned calE."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return stable_generic(rng, draw(st.integers(1, 12)),
                          m=draw(st.integers(1, 3)), p=draw(st.integers(1, 3)))


def _rel(X, Y):
    return np.linalg.norm(X - Y) / np.linalg.norm(Y)


@DETERMINISTIC
@given(real=pencils(), band=bands())
def test_band_rhs_eig_route_agrees_with_schur_fallback(real, band):
    # only pencils whose eigenvectors admit the eig route count
    V = spla.eig(spla.solve(real.calE, real.calA))[1]
    assume(_rcond(V) >= matfun.EIG_RCOND_MIN)
    rhs = slt.freq_limited_rhs(real, band)
    with mock.patch.object(matfun, "EIG_RCOND_MIN", np.inf):  # force Schur
        rhs_s = slt.freq_limited_rhs(real, band)
    assert _rel(rhs.B_lim, rhs_s.B_lim) <= 1e-9
    assert _rel(rhs.C_lim, rhs_s.C_lim) <= 1e-9


@DETERMINISTIC
@given(real=pencils(), t=st.floats(0.0, 50.0))
def test_expm_action_agrees_with_dense(real, t):
    # the Taylor kernel on its own, whatever its cost against the dense route
    Xt = t * spla.solve(real.calE, real.calA)
    B = spla.solve(real.calE, real.calB)
    ref = spla.expm(Xt) @ B
    R = matfun._expm_action(B, *matfun._taylor_plan(Xt))
    assert np.linalg.norm(R - ref) <= 1e-12 * max(np.linalg.norm(ref), np.linalg.norm(B))


@st.composite
def factored_rhs(draw, N):
    """``G S G^T`` with a definite, a swap (band) or a ``diag(I, -I)``
    (window) signature."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, 3))
    ident, zero = np.eye(k), np.zeros((k, k))
    S = draw(st.sampled_from([
        np.eye(2 * k),
        np.block([[zero, ident], [ident, zero]]),
        np.block([[ident, zero], [zero, -ident]])]))
    return slt.IndefiniteRhs(rng.standard_normal((N, 2 * k)), S)


@DETERMINISTIC
@given(data=st.data(), real=pencils())
def test_sign_matches_oracle_on_general_pencils(data, real):
    # calE is nonsymmetric and full, so both the calE^{-1} transform of the
    # controllability factor and the final calE^{-T} solve are exercised
    rhs_c = data.draw(factored_rhs(real.N))
    rhs_o = data.draw(factored_rhs(real.N))
    P, Q, _ = slt.solve_lyap_sign_dual(real.calE, real.calA, rhs_c, rhs_o)
    P_ref = slt.solve_lyap_dense_oracle(real.calA, real.calE, rhs_c.dense())
    Q_ref = slt.solve_lyap_dense_oracle(real.calA.T, real.calE.T, rhs_o.dense())
    assert _rel(P.matrix(), P_ref) <= 1e-9
    assert _rel(Q.matrix(), Q_ref) <= 1e-9
