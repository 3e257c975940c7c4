"""Matrix functions and limited right-hand sides."""

import warnings

import numpy as np
import pytest
import scipy.linalg as spla
from numpy.testing import assert_allclose

import solimbt as slt
from solimbt import errors, matfun
from solimbt.matfun import TWO_PI

from helpers import _gauss_legendre, count_calls, quadrature_gramian, rhs_blocks, stable_generic


# ---------------------------------------------------------------- band/window

def test_band_validation():
    with pytest.raises(errors.InvalidParams):
        slt.FrequencyBand([])
    with pytest.raises(errors.InvalidParams):
        slt.FrequencyBand([(-1.0, 2.0)])
    with pytest.raises(errors.InvalidParams):
        slt.FrequencyBand([(2.0, 2.0)])
    with pytest.raises(errors.InvalidParams):
        slt.FrequencyBand([(1.0, 4.0), (2.0, 5.0)])  # overlap
    with pytest.raises(errors.InvalidParams):
        slt.FrequencyBand([(3.0, 4.0), (1.0, 2.0)])  # unsorted


def test_band_from_hz_hull_mask():
    band = slt.FrequencyBand.from_hz([(1.0, 2.0), (5.0, 10.0)])
    assert_allclose(band.intervals,
                    [(TWO_PI, 2 * TWO_PI), (5 * TWO_PI, 10 * TWO_PI)])
    assert band.hull == (TWO_PI, 10 * TWO_PI)
    m = band.mask(np.array([0.0, TWO_PI, 3 * TWO_PI, 6 * TWO_PI]))
    assert m.tolist() == [False, True, False, True]


def test_window_validation_and_union():
    with pytest.raises(errors.InvalidParams):
        slt.TimeWindow(2.0, 1.0)
    with pytest.raises(errors.InvalidParams):
        slt.TimeWindow(-1.0, 1.0)


# ----------------------------------------------------------------------- expm

def test_expm_matches_scipy():
    rng = np.random.default_rng(1)
    for scale in (0.1, 1.0, 60.0):
        A = scale * rng.standard_normal((9, 9))
        assert_allclose(slt.expm(A), spla.expm(A),
                        rtol=1e-11, atol=1e-11 * spla.norm(spla.expm(A)))
    Ac = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    assert_allclose(slt.expm(Ac), spla.expm(Ac), rtol=1e-11, atol=1e-11)


def test_expm_basics():
    assert_allclose(slt.expm(np.zeros((3, 3))), np.eye(3))
    # one-parameter group property
    rng = np.random.default_rng(2)
    A = rng.standard_normal((5, 5))
    assert_allclose(slt.expm(0.3 * A) @ slt.expm(0.7 * A), slt.expm(A),
                    rtol=1e-11, atol=1e-12)


def test_expm_errors():
    with pytest.raises(errors.DimensionMismatch):
        slt.expm(np.ones((2, 3)))
    with pytest.raises(errors.NonFinite):
        slt.expm(np.array([[np.nan]]))
    with pytest.raises(errors.NonFinite):
        slt.expm(np.array([[1e21]]))  # would need > 64 squarings
    with pytest.raises(errors.DimensionMismatch):
        slt.expm(np.eye(3), np.ones((2, 1)))
    with pytest.raises(errors.DimensionMismatch):
        slt.expm(np.eye(3), np.ones(3))
    with pytest.raises(errors.NonFinite):
        slt.expm(np.eye(3), np.array([[1.0], [np.inf], [0.0]]))


def test_expm_action_matches_dense(monkeypatch):
    rng = np.random.default_rng(3)
    A = rng.standard_normal((12, 12))
    # (A, B, dense exponentials): Taylor steps for a small ||A|| with one or
    # several columns and for a zero A; a dense product past the crossover
    # (EXPM_ACTION_MAX), where the Taylor bound grows with ||A||
    cases = [(0.1 * A, rng.standard_normal((12, 3)), 0),
             (0.1 * A, rng.standard_normal((12, 1)), 0),
             (np.zeros((12, 12)), rng.standard_normal((12, 2)), 0),
             (40.0 * A, rng.standard_normal((12, 2)), 1)]
    refs = [spla.expm(A) @ B for A, B, _ in cases]
    dense = count_calls(monkeypatch, spla, "expm")
    for (A, B, want), ref in zip(cases, refs):
        n0 = len(dense)
        R = slt.expm(A, B)
        assert len(dense) - n0 == want
        assert R.shape == B.shape
        assert np.linalg.norm(R - ref) <= 1e-12 * np.linalg.norm(ref)
    assert np.array_equal(slt.expm(np.zeros((12, 12)), cases[2][1]), cases[2][1])


def test_expm_action_deterministic():
    # no norm estimator: bit-identical results whatever numpy's global RNG
    # holds, and that state is left alone
    rng = np.random.default_rng(4)
    A, B = 0.2 * rng.standard_normal((30, 30)), rng.standard_normal((30, 3))
    np.random.seed(5)
    state = np.random.get_state()
    R = slt.expm(A, B)
    after = np.random.get_state()
    assert all(np.array_equal(a, b) for a, b in zip(state, after))
    assert np.array_equal(slt.expm(A, B), R)
    np.random.seed(6)
    assert np.array_equal(slt.expm(A, B), R)


def test_expm_action_overflow(monkeypatch):
    # a large trace is shifted out of the Taylor steps and comes back as
    # exp(mu / s), which overflows
    monkeypatch.setattr(spla, "expm", _no_dense_expm)
    A = 800.0 * np.eye(10) + 0.01 * np.eye(10, k=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(errors.NonFinite):
            slt.expm(A, np.ones((10, 2)))


def _no_dense_expm(A):
    raise AssertionError("dense expm called")


# ----------------------------------------------------------------------- logm

def test_logm_rotation_frozen():
    # log of a rotation by pi/2 is the generator scaled by pi/2
    R = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert_allclose(slt.logm_principal(R),
                    np.array([[0.0, -np.pi / 2], [np.pi / 2, 0.0]]),
                    atol=1e-13)


def test_logm_roundtrip():
    rng = np.random.default_rng(3)
    A = 3.0 * np.eye(7) + 0.5 * rng.standard_normal((7, 7))
    assert_allclose(slt.expm(slt.logm_principal(A)), A, rtol=1e-11, atol=1e-11)


def test_logm_branch_cut():
    with pytest.raises(errors.BranchCutViolation):
        slt.logm_principal(np.array([[-1.0]]))
    with pytest.raises(errors.BranchCutViolation):
        slt.logm_principal(-np.eye(2))  # rotation by pi
    with pytest.raises(errors.BranchCutViolation):
        slt.logm_principal(np.zeros((2, 2)))
    with pytest.raises(errors.NonFinite):
        slt.logm_principal(np.array([[np.inf]]))


def _no_eigensolve(*args, **kwargs):
    raise AssertionError("separate eigensolve")


def test_logm_branch_cut_triangular(monkeypatch):
    # upper-triangular input: the spectrum is read off the diagonal
    monkeypatch.setattr(np.linalg, "eigvals", _no_eigensolve)
    T = np.array([[2.0, 1.0, 0.5], [0.0, -3.0, 1.0], [0.0, 0.0, 1.0]])
    with pytest.raises(errors.BranchCutViolation):
        slt.logm_principal(T)
    Tc = T + 0.5j * np.triu(np.ones((3, 3)))
    assert_allclose(slt.expm(slt.logm_principal(Tc)), Tc, rtol=1e-12, atol=1e-12)


def _jordan_like(c):
    # non-normal: scipy's logm loses accuracy as c grows
    return np.eye(8) + c * np.eye(8, k=1)


def test_logm_silent_below_own_threshold():
    # scipy's estimate here is ~4e-11: above scipy's 1000*eps, below our 1e-8
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        slt.logm_principal(_jordan_like(10.0))


def test_logm_warns_once_above_own_threshold():
    # estimate ~4e-5: exactly our UserWarning, none of scipy's
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        slt.logm_principal(_jordan_like(100.0))
    assert [w.category for w in caught] == [UserWarning]
    assert "matrix logarithm may be inaccurate" in str(caught[0].message)


# ----------------------------------------------------------- band-limited rhs

def _scalar_real(a=-1.0, e=1.0, b=1.0, c=1.0):
    return slt.FirstOrderRealization(np.array([[e]]), np.array([[a]]),
                                     np.array([[b]]), np.array([[c]]))


def test_band_selector_scalar_frozen():
    # For x' = -x with e = b = c = 1, B_lim is the selector F itself:
    # (arctan(w2) - arctan(w1)) / pi = 0.10241638234956672 on [1, 2].
    real = _scalar_real()
    band = slt.FrequencyBand([(1.0, 2.0)])
    F = rhs_blocks(slt.freq_limited_rhs(real, band))[0]
    expected = (np.arctan(2.0) - np.arctan(1.0)) / np.pi
    assert F.shape == (1, 1)
    assert F[0, 0] == pytest.approx(expected, abs=1e-13)
    assert F[0, 0] == pytest.approx(0.10241638234956672, abs=1e-14)


def test_band_selector_scalar_additive():
    real = _scalar_real()
    F_a, F_b, F_ab = (rhs_blocks(slt.freq_limited_rhs(real, slt.FrequencyBand([iv])))[0]
                      for iv in ((1.0, 2.0), (2.0, 3.0), (1.0, 3.0)))
    assert F_a[0, 0] + F_b[0, 0] == pytest.approx(F_ab[0, 0], abs=1e-13)


def test_band_selector_zero_start_path():
    # A single [0, w] interval takes a one-logarithm shortcut; it must agree
    # with the general interval-product route up to the (tiny) [0, eps] sliver.
    rng = np.random.default_rng(5)
    real = stable_generic(rng, 6)
    B0, _, C0, _ = rhs_blocks(slt.freq_limited_rhs(real, slt.FrequencyBand([(0.0, 2.0)])))
    B_eps, _, C_eps, _ = rhs_blocks(
        slt.freq_limited_rhs(real, slt.FrequencyBand([(1e-9, 2.0)])))
    assert_allclose(B0, B_eps, rtol=1e-6, atol=1e-8)
    assert_allclose(C0, C_eps, rtol=1e-6, atol=1e-8)


def _dense_band_oracle(real, band):
    """``F_Omega`` from the product of dense pencil solves and scipy's logm."""
    calE, calA = real.calE, real.calA
    G = np.eye(real.N, dtype=complex)
    for a, b in band.intervals:
        G = G @ np.linalg.solve(calA + 1j * a * calE, calA + 1j * b * calE)
    L = np.real((1j / np.pi) * spla.logm(G))
    return L @ np.linalg.inv(calE)


def _assert_matches_dense_oracle(real, band):
    """``B_lim`` and ``C_lim`` within 1e-10 relative of the oracle."""
    F_ref = _dense_band_oracle(real, band)
    B_lim, _, C_lim, _ = rhs_blocks(slt.freq_limited_rhs(real, band))
    B_ref = real.calE @ F_ref @ real.calB
    C_ref = real.calC @ F_ref @ real.calE
    assert np.linalg.norm(B_lim - B_ref) <= 1e-10 * np.linalg.norm(B_ref)
    assert np.linalg.norm(C_lim - C_ref) <= 1e-10 * np.linalg.norm(C_ref)


def test_band_selector_matches_dense_oracle():
    rng = np.random.default_rng(11)
    real = stable_generic(rng, 10, m=2, p=3)  # calE is not the identity
    _assert_matches_dense_oracle(real, slt.FrequencyBand([(0.3, 1.0), (2.0, 4.0)]))


def test_band_selector_needs_no_separate_eigensolve(monkeypatch):
    # stability, branch cut and logarithm all come from one eigendecomposition
    real = stable_generic(np.random.default_rng(12), 8)
    monkeypatch.setattr(np.linalg, "eigvals", _no_eigensolve)
    monkeypatch.setattr(slt.FirstOrderRealization, "pencil_eigenvalues",
                        _no_eigensolve)
    for band in (slt.FrequencyBand([(0.0, 2.0)]),
                 slt.FrequencyBand([(0.3, 1.0), (2.0, 4.0)])):
        B_lim, _, C_lim, _ = rhs_blocks(slt.freq_limited_rhs(real, band))
        assert np.all(np.isfinite(B_lim)) and np.all(np.isfinite(C_lim))
    with pytest.raises(errors.UnstableRealization):
        slt.freq_limited_rhs(_scalar_real(a=1.0), slt.FrequencyBand([(1.0, 2.0)]))


def _no_schur_fallback(*args, **kwargs):
    raise AssertionError("Schur fallback taken")


def test_band_rhs_takes_eig_route_on_chain(monkeypatch):
    # a chain's eigenvectors are well conditioned: no triangular logarithm
    monkeypatch.setattr(matfun, "logm_principal", _no_schur_fallback)
    real = slt.first_companion(slt.generate_chain(60))
    _assert_matches_dense_oracle(real, slt.FrequencyBand.from_hz([(0.01, 0.1)]))


BANDS = {
    "zero_start": slt.FrequencyBand([(0.0, 2.0)]),
    "one": slt.FrequencyBand([(0.5, 1.5)]),
    "three": slt.FrequencyBand([(0.1, 0.4), (0.9, 1.3), (2.0, 6.0)]),
}


@pytest.mark.parametrize("band", BANDS.values(), ids=BANDS.keys())
def test_band_rhs_eig_route_matches_dense_oracle(monkeypatch, band):
    monkeypatch.setattr(matfun, "logm_principal", _no_schur_fallback)
    real = stable_generic(np.random.default_rng(13), 12, m=2, p=3)
    _assert_matches_dense_oracle(real, band)


def _near_defective(rng, N=10, delta=1e-10):
    """Stable pencil whose ``calE^-1 calA`` has a Jordan block at -1,
    perturbed by ``delta``, next to a generic stable block."""
    base = stable_generic(rng, N - 2)
    D = np.zeros((N, N))
    D[:2, :2] = [[-1.0, 1.0], [0.0, -1.0 - delta]]
    D[2:, 2:] = spla.solve(base.calE, base.calA)
    S = rng.standard_normal((N, N))
    calE = np.eye(N) + 0.1 * rng.standard_normal((N, N))
    return slt.FirstOrderRealization(calE, calE @ (S @ D @ np.linalg.inv(S)),
                                     rng.standard_normal((N, 2)),
                                     rng.standard_normal((2, N)))


def test_band_rhs_near_defective_takes_schur_fallback(monkeypatch):
    real = _near_defective(np.random.default_rng(21))
    calls = []

    def spy(A, *args, **kwargs):
        calls.append(A.shape)
        return slt.logm_principal(A, *args, **kwargs)

    monkeypatch.setattr(matfun, "logm_principal", spy)
    for band in (BANDS["zero_start"], slt.FrequencyBand([(0.3, 1.0), (2.0, 4.0)])):
        _assert_matches_dense_oracle(real, band)
    assert calls == [(10, 10)] * 2  # one per band


def test_band_rhs_errors_on_eig_route(monkeypatch):
    # both checks read the eigenvalues of the one eigendecomposition
    monkeypatch.setattr(slt.FirstOrderRealization, "pencil_eigenvalues",
                        _no_eigensolve)
    monkeypatch.setattr(matfun, "logm_principal", _no_schur_fallback)
    band = slt.FrequencyBand([(1.0, 3.0)])
    with pytest.raises(errors.UnstableRealization):
        slt.freq_limited_rhs(_scalar_real(a=1.0), band)
    # eigenvalues -1e-14 +- 2i: the interval [1, 3] maps -1e-14 - 2i onto
    # the band-product value -1 - 2e-14 i, on the branch cut within 1e-12
    d, w = 1e-14, 2.0
    real = slt.FirstOrderRealization(np.eye(2), np.array([[-d, w], [-w, -d]]),
                                     np.ones((2, 1)), np.ones((1, 2)))
    with pytest.raises(errors.BranchCutViolation):
        slt.freq_limited_rhs(real, band)
    assert np.all(np.isfinite(rhs_blocks(slt.freq_limited_rhs(
        real, slt.FrequencyBand([(0.0, 3.0)])))[0]))


def test_band_selector_requires_stable():
    real = _scalar_real(a=1.0)
    with pytest.raises(errors.UnstableRealization):
        slt.freq_limited_rhs(real, slt.FrequencyBand([(1.0, 2.0)]))


def test_freq_limited_rhs_scalar():
    real = _scalar_real(b=2.0, c=3.0)
    band = slt.FrequencyBand([(1.0, 2.0)])
    B_lim, calB, C_lim, calC = rhs_blocks(slt.freq_limited_rhs(real, band))
    f = (np.arctan(2.0) - np.arctan(1.0)) / np.pi
    assert B_lim[0, 0] == pytest.approx(2.0 * f, abs=1e-13)
    assert C_lim[0, 0] == pytest.approx(3.0 * f, abs=1e-13)
    assert (calB[0, 0], calC[0, 0]) == (2.0, 3.0)


def test_freq_limited_rhs_shapes():
    rng = np.random.default_rng(6)
    real = stable_generic(rng, 7, m=2, p=3)
    rhs_c, rhs_o = slt.freq_limited_rhs(real, slt.FrequencyBand([(0.5, 1.5)]))
    B_lim, _, C_lim, _ = rhs_blocks((rhs_c, rhs_o))
    assert B_lim.shape == (7, 2)
    assert C_lim.shape == (3, 7)
    assert rhs_c.G.shape == (7, 4) and rhs_c.S.shape == (4, 4)
    assert rhs_o.G.shape == (7, 6) and rhs_o.S.shape == (6, 6)


def test_limited_rhs_pairs_stand_for_their_right_hand_sides():
    # the factored pairs are B_lim calB^T + calB B_lim^T (and the output
    # analogue) for a band, B_t0 B_t0^T - B_tf B_tf^T for a window
    real = stable_generic(np.random.default_rng(8), 7, m=2, p=3)
    pair = slt.freq_limited_rhs(real, slt.FrequencyBand([(0.5, 1.5)]))
    B_lim, calB, C_lim, calC = rhs_blocks(pair)
    assert np.array_equal(calB, real.calB) and np.array_equal(calC, real.calC)
    assert_allclose(pair[0].dense(), B_lim @ calB.T + calB @ B_lim.T,
                    rtol=1e-14, atol=1e-14)
    assert_allclose(pair[1].dense(), C_lim.T @ calC + calC.T @ C_lim,
                    rtol=1e-14, atol=1e-14)
    pair = slt.time_limited_rhs(real, slt.TimeWindow(0.5, 2.0))
    B_t0, B_tf, C_t0, C_tf = rhs_blocks(pair)
    assert_allclose(pair[0].dense(), B_t0 @ B_t0.T - B_tf @ B_tf.T,
                    rtol=1e-14, atol=1e-14)
    assert_allclose(pair[1].dense(), C_t0.T @ C_t0 - C_tf.T @ C_tf,
                    rtol=1e-14, atol=1e-14)


# ---------------------------------------------------------------- time-limited

def test_time_limited_rhs_scalar():
    real = _scalar_real()
    rhs_c, rhs_o = slt.time_limited_rhs(real, slt.TimeWindow(0.0, 1.0))
    B_t0, B_tf, _, C_tf = rhs_blocks((rhs_c, rhs_o))
    assert B_t0[0, 0] == pytest.approx(1.0)
    assert B_tf[0, 0] == pytest.approx(np.exp(-1.0), abs=1e-14)
    assert C_tf[0, 0] == pytest.approx(np.exp(-1.0), abs=1e-14)
    # t0 = 0 takes the unpropagated maps into new factors, not aliases
    assert not np.shares_memory(rhs_c.G, real.calB)
    assert not np.shares_memory(rhs_o.G, real.calC)
    assert np.array_equal(B_t0, real.calB)


def test_time_limited_rhs_matches_direct_exponential(monkeypatch):
    # calE exp(calE^-1 calA t) calE^-1 calB == exp(calA calE^-1 t) calB, by
    # the Taylor action (small t ||X||) and past the crossover by one dense
    # exponential per endpoint
    rng = np.random.default_rng(7)
    real = stable_generic(rng, 20, m=2, p=3)
    dense = count_calls(monkeypatch, spla, "expm")
    for win, n_dense in ((slt.TimeWindow(0.05, 0.1), 0), (slt.TimeWindow(0.4, 40.0), 2)):
        n0 = len(dense)
        B_t0, B_tf, C_t0, C_tf = rhs_blocks(slt.time_limited_rhs(real, win))
        assert len(dense) - n0 == n_dense
        for t, Bt, Ct in ((win.t0, B_t0, C_t0), (win.tf, B_tf, C_tf)):
            direct_B = spla.expm(real.calA @ np.linalg.inv(real.calE) * t) @ real.calB
            direct_C = real.calC @ spla.expm(np.linalg.inv(real.calE) @ real.calA * t)
            assert_allclose(Bt, direct_B, rtol=1e-10, atol=1e-12)
            assert_allclose(Ct, direct_C, rtol=1e-10, atol=1e-12)


@pytest.fixture(scope="module")
def chain300():
    return slt.first_companion(slt.generate_chain(300))


def test_time_limited_rhs_short_window_forms_no_exponential(chain300, monkeypatch):
    real, win = chain300, slt.TimeWindow(0.0, 20.0)
    X = np.linalg.solve(real.calE, real.calA)
    W = spla.expm(20.0 * X)
    monkeypatch.setattr(spla, "expm", _no_dense_expm)
    plans = count_calls(monkeypatch, matfun, "_taylor_plan")
    _, B_tf, _, C_tf = rhs_blocks(slt.time_limited_rhs(real, win))
    assert len(plans) == 2  # one per side of the propagated end, none repeated
    ref_B = real.calE @ (W @ np.linalg.solve(real.calE, real.calB))
    assert np.linalg.norm(B_tf - ref_B) <= 1e-12 * np.linalg.norm(ref_B)
    ref_C = real.calC @ W
    assert np.linalg.norm(C_tf - ref_C) <= 1e-12 * np.linalg.norm(ref_C)


def test_time_limited_rhs_long_window_one_exponential_per_end(chain300, monkeypatch):
    # past the crossover each endpoint takes one dense exp(X t) for both
    # sides, not one for X and one for X^T
    dense = count_calls(monkeypatch, spla, "expm")
    slt.time_limited_rhs(chain300, slt.TimeWindow(400.0, 1000.0))
    assert len(dense) == 2


def test_time_limited_rhs_rejects_infinite_window():
    real = _scalar_real()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(errors.InvalidParams, match=r"\[0\.0, inf\].*bt"):
            slt.time_limited_rhs(real, slt.TimeWindow(0.0, np.inf))
        # the projection solver reaches it without a warning from its shifts
        for solver in ("sign", "projection"):
            cfg = slt.ReductionConfig(method="tlbt", solver=solver,
                                      window=slt.TimeWindow(0.0, np.inf))
            with pytest.raises(errors.InvalidParams):
                slt.reduce(slt.generate_chain(6), cfg)


# ------------------------------------------------------------------ quadrature

def test_quadrature_scalar_frozen():
    real = _scalar_real()
    band = slt.FrequencyBand([(1.0, 2.0)])
    Z = quadrature_gramian(real, band, points_per_interval=200)
    P = float((Z @ Z.T)[0, 0])
    assert P == pytest.approx((np.arctan(2.0) - np.arctan(1.0)) / np.pi,
                              abs=1e-12)
    Zo = quadrature_gramian(real, band, points_per_interval=200,
                            side="observability")
    assert float((Zo @ Zo.T)[0, 0]) == pytest.approx(P, abs=1e-12)
    with pytest.raises(errors.InvalidParams):
        quadrature_gramian(real, band, side="sideways")


def test_quadrature_batched_solves_match_node_loop():
    # the stacked solves reproduce one LAPACK solve per node, chunk
    # boundaries included (300 nodes per interval)
    real = stable_generic(np.random.default_rng(8), 7, m=2, p=3)
    band = slt.FrequencyBand([(0.5, 2.5), (3.0, 4.0)])
    x, w = np.polynomial.legendre.leggauss(300)
    for side in ("controllability", "observability"):
        cols = []
        for a, b in band.intervals:
            for wk, gk in zip(0.5 * (b - a) * x + 0.5 * (b + a), 0.5 * (b - a) * w):
                S = 1j * wk * real.calE - real.calA
                R = (spla.solve(S, real.calB) if side == "controllability"
                     else spla.solve(S.conj().T, real.calC.T))
                cols += [np.sqrt(gk / np.pi) * R.real, np.sqrt(gk / np.pi) * R.imag]
        Z_ref = np.hstack(cols)
        Z = quadrature_gramian(real, band, points_per_interval=300, side=side)
        assert Z.shape == Z_ref.shape
        assert_allclose(Z, Z_ref, rtol=0, atol=1e-13 * np.abs(Z_ref).max())
    nodes, weights = _gauss_legendre(300)
    assert _gauss_legendre(300)[0] is nodes
    assert not nodes.flags.writeable and not weights.flags.writeable
