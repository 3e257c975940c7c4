"""Gramian pairs of every flavor, partitioning and characteristic values."""

import warnings

import numpy as np
import pytest
import scipy.linalg as spla
from numpy.testing import assert_allclose

import solimbt as slt
from solimbt import errors
from solimbt.gramians import definite_surrogate

from helpers import count_calls, min_eig, rhs_blocks, solve_lyap_dense_oracle, stable_generic


def _scalar_so(M=1.0, E=2.0, K=1.0):
    return slt.make_second_order([[M]], [[E]], [[K]], [[1.0]],
                                 [[1.0]], [[0.0]])


def test_scalar_infinite_pair_frozen():
    # M = 1, E = 2, K = 1 (critically damped oscillator), companion form with
    # identity coupling block.  Solving the 2x2 Lyapunov equations by hand:
    #   P = diag(1/4, 1/4),   Q = [[5/4, 1/2], [1/2, 1/4]].
    real = slt.first_companion(_scalar_so())
    pair = slt.infinite_gramians(real)
    assert_allclose(pair.controllability.matrix(), 0.25 * np.eye(2),
                    rtol=0, atol=1e-12)
    assert_allclose(pair.observability.matrix(),
                    np.array([[1.25, 0.5], [0.5, 0.25]]), rtol=0, atol=1e-12)
    assert pair.flavor == "infinite"


def test_scalar_characteristic_values_frozen():
    # Rank-one products: sigma_pos = sqrt(q11 p11) = sqrt(5)/4,
    # sigma_vel = sqrt(q22 p22) = 1/4, and the mixed kinds swap the blocks.
    # Formula p balances the position product, v the velocity one, pv the
    # position-velocity one (L_v^T M R_p) and vp the velocity-position one.
    sys = _scalar_so()
    pair = slt.infinite_gramians(slt.first_companion(sys))
    parts = slt.partition(pair, sys.n)
    expected = {"p": np.sqrt(5) / 4, "v": 0.25, "pv": 0.25, "vp": np.sqrt(5) / 4}
    for formula, value in expected.items():
        sigma = slt.second_order_projectors(parts, np.eye(1), sys.M, formula,
                                            fixed_r=1).sigma
        assert sigma[0] == pytest.approx(value, abs=1e-12)
        # anything beyond the first value of a rank-one product is noise
        assert np.all(sigma[1:] < 1e-12)


def test_scalar_unit_triple_frozen():
    # M = E = K = 1: by hand P = I/2 and Q = [[1, 1/2], [1/2, 1/2]]; also
    # cross-checked against the dense reference solver.
    real = slt.first_companion(_scalar_so(E=1.0))
    pair = slt.infinite_gramians(real)
    assert_allclose(pair.controllability.matrix(), 0.5 * np.eye(2),
                    rtol=0, atol=1e-12)
    assert_allclose(pair.observability.matrix(),
                    np.array([[1.0, 0.5], [0.5, 0.5]]), rtol=0, atol=1e-12)
    Pref = solve_lyap_dense_oracle(real.calA, real.calE,
                                   real.calB @ real.calB.T)
    assert_allclose(pair.controllability.matrix(), Pref, atol=1e-12)


def test_band_pair_matches_oracle():
    rng = np.random.default_rng(10)
    real = stable_generic(rng, 10, m=2, p=2)
    band = slt.FrequencyBand([(0.4, 1.2), (2.0, 3.0)])
    pair = slt.frequency_limited_gramians(real, band)
    B_lim, _, C_lim, _ = rhs_blocks(slt.freq_limited_rhs(real, band))
    Pref = solve_lyap_dense_oracle(
        real.calA, real.calE,
        B_lim @ real.calB.T + real.calB @ B_lim.T)
    Qref = solve_lyap_dense_oracle(
        real.calA.T, real.calE.T,
        C_lim.T @ real.calC + real.calC.T @ C_lim)
    assert_allclose(pair.controllability.matrix(), Pref, rtol=1e-8, atol=1e-10)
    assert_allclose(pair.observability.matrix(), Qref, rtol=1e-8, atol=1e-10)
    assert pair.band is band


def test_window_pair_matches_oracle():
    rng = np.random.default_rng(12)
    real = stable_generic(rng, 9, m=1, p=2)
    win = slt.TimeWindow(0.3, 2.0)
    pair = slt.time_limited_gramians(real, win)
    B_t0, B_tf, C_t0, C_tf = rhs_blocks(slt.time_limited_rhs(real, win))
    Pref = solve_lyap_dense_oracle(
        real.calA, real.calE,
        B_t0 @ B_t0.T - B_tf @ B_tf.T)
    Qref = solve_lyap_dense_oracle(
        real.calA.T, real.calE.T,
        C_t0.T @ C_t0 - C_tf.T @ C_tf)
    assert_allclose(pair.controllability.matrix(), Pref, rtol=1e-8, atol=1e-10)
    assert_allclose(pair.observability.matrix(), Qref, rtol=1e-8, atol=1e-10)


def test_limits_recover_classical_gramians():
    rng = np.random.default_rng(13)
    real = stable_generic(rng, 10, m=2, p=2)
    full = slt.infinite_gramians(real)
    P = full.controllability.matrix()
    wide = slt.frequency_limited_gramians(real, slt.FrequencyBand([(0.0, 1e6)]))
    assert spla.norm(wide.controllability.matrix() - P) <= 1e-3 * spla.norm(P)
    late = slt.time_limited_gramians(real, slt.TimeWindow(0.0, 50.0))
    assert spla.norm(late.controllability.matrix() - P) <= 1e-10 * spla.norm(P)


def test_definite_surrogate():
    rng = np.random.default_rng(14)
    G = rng.standard_normal((8, 3))
    indef = slt.IndefiniteRhs(G, np.diag([1.0, 1.0, -1.0]))
    R = definite_surrogate(indef)
    D = R @ R.T - indef.dense()
    assert min_eig(D) >= -1e-12 * spla.norm(R @ R.T)
    # a definite right-hand side passes through unchanged
    dfn = slt.IndefiniteRhs.definite(G)
    R = definite_surrogate(dfn)
    assert_allclose(R @ R.T, G @ G.T, rtol=1e-12, atol=1e-12)


def test_modified_dominates_limited():
    sys = slt.generate_chain(6)
    real = slt.first_companion(sys)
    band = slt.FrequencyBand([(0.05, 0.3)])
    lim = slt.frequency_limited_gramians(real, band)
    mod = slt.modified_gramians(real, band=band)
    for attr in ("controllability", "observability"):
        M = getattr(mod, attr).matrix()
        L = getattr(lim, attr).matrix()
        assert min_eig(M - L) >= -1e-10 * spla.norm(M)
    assert mod.flavor == "band_modified"

    win = slt.TimeWindow(0.0, 25.0)
    lim = slt.time_limited_gramians(real, win)
    mod = slt.modified_gramians(real, window=win)
    for attr in ("controllability", "observability"):
        M = getattr(mod, attr).matrix()
        L = getattr(lim, attr).matrix()
        assert min_eig(M - L) >= -1e-10 * spla.norm(M)
    assert mod.flavor == "window_modified"


def test_modified_validation():
    real = slt.first_companion(slt.generate_chain(3))
    with pytest.raises(errors.InvalidParams):
        slt.modified_gramians(real)
    with pytest.raises(errors.InvalidParams):
        slt.modified_gramians(real, band=slt.FrequencyBand([(0.1, 1.0)]),
                              window=slt.TimeWindow(0.0, 1.0))


@pytest.mark.parametrize("solve, error", [
    (lambda real: slt.frequency_limited_gramians(real, slt.FrequencyBand([(0.0, 1.0)])),
     errors.UnstableRealization),
    (lambda real: slt.time_limited_gramians(real, slt.TimeWindow(0.0, 1.0)),
     errors.UnstableRealization),
    (lambda real: slt.solve_lyap_pencil(real, slt.IndefiniteRhs.definite(real.calB),
                                        slt.IndefiniteRhs.definite(real.calC.T)),
     errors.UnstableRealization),
    (slt.infinite_gramians, errors.UnstableRealization),
])
def test_singular_calE_raises_typed_error(solve, error):
    # calE = diag(1, 0): an infinite pencil eigenvalue, caught by the
    # realization's one solver with calE before any step
    real = slt.FirstOrderRealization(np.diag([1.0, 0.0]), -np.eye(2),
                                     np.ones((2, 1)), np.ones((1, 2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match="singular calE") as info:
            solve(real)
    assert info.value.category == "numerical"  # CLI exit code 3


@pytest.mark.parametrize("build, factored", [
    (slt.strictly_dissipative, True), (slt.first_companion, False)])
def test_pairs_factor_calE_once_unless_diagonal(monkeypatch, build, factored):
    # the builders and the sign solver of the bt, flbt and tlbt pairs read
    # one realization's standard form and calE solver: the SPD calE of the
    # dissipative form is factored once, and the diagonal calE of a chain's
    # companion form never (its solver multiplies by the reciprocal
    # diagonal); neither goes through scipy's general solve
    lus = count_calls(monkeypatch, slt.system, "_lu")
    solves = count_calls(monkeypatch, spla, "solve")
    real = build(slt.generate_chain(30))
    slt.infinite_gramians(real)
    slt.frequency_limited_gramians(real, slt.FrequencyBand.from_hz([(1.0, 100.0)]))
    slt.time_limited_gramians(real, slt.TimeWindow(0.0, 20.0))
    assert [a is real.calE for a in lus] == [True] * factored
    assert not any(a is real.calE for a in solves)


def test_partition_roundtrip():
    sys = slt.generate_chain(4)
    pair = slt.infinite_gramians(slt.first_companion(sys))
    parts = slt.partition(pair, sys.n)
    R = pair.controllability.cholesky_like()
    L = pair.observability.cholesky_like()
    assert_allclose(np.vstack([parts.R_p, parts.R_v]), R)
    assert_allclose(np.vstack([parts.L_p, parts.L_v]), L)
    with pytest.raises(errors.DimensionMismatch):
        slt.partition(pair, 3)


def test_projection_solver_dispatch():
    sys = slt.generate_chain(5)
    real = slt.strictly_dissipative(sys)
    band = slt.FrequencyBand([(0.05, 0.3)])
    sign = slt.frequency_limited_gramians(real, band)
    proj = slt.frequency_limited_gramians(real, band, solver="projection")
    assert_allclose(proj.controllability.matrix(),
                    sign.controllability.matrix(), rtol=1e-6, atol=1e-10)
    assert_allclose(proj.observability.matrix(),
                    sign.observability.matrix(), rtol=1e-6, atol=1e-10)
    assert 0 < proj.info["dim"] <= real.N
    with pytest.raises(errors.InvalidParams):
        slt.infinite_gramians(real, solver="magic")


def test_projection_solver_builds_no_full_order_rhs(monkeypatch):
    # the projection solver evaluates the band/window on the projected
    # realization only; n=40 is large enough for the subspace to stop short
    sizes = []

    def spy(builder):
        def wrapped(real, *args, **kwargs):
            sizes.append(real.N)
            return builder(real, *args, **kwargs)
        return wrapped

    for name in ("freq_limited_rhs", "time_limited_rhs"):
        monkeypatch.setattr(slt.matfun, name, spy(getattr(slt.matfun, name)))
    sys = slt.generate_chain(40)
    for config in (slt.ReductionConfig(method="flbt", solver="projection",
                                       band=slt.FrequencyBand([(0.05, 0.3)]),
                                       realization="dissipative", fixed_order=2),
                   slt.ReductionConfig(method="tlbt", solver="projection",
                                       window=slt.TimeWindow(0.0, 5.0),
                                       realization="dissipative", fixed_order=2)):
        sizes.clear()
        rom = slt.reduce(sys, config)
        assert rom.stable and rom.r == 2
        assert rom.details["solver"] == "projection"
        assert sizes and max(sizes) < 2 * sys.n


def _rel(X, ref):
    return np.linalg.norm(X - ref) / np.linalg.norm(ref)


def test_projection_matches_sign_route_n300():
    # the paper's benchmark size: one subspace serves both sides, for a band
    # and a window on the dissipative form, and the identity-coupled
    # companion form projects to a c-stable pencil
    sys = slt.generate_chain(300)
    real = slt.strictly_dissipative(sys)
    for build, arg in ((slt.frequency_limited_gramians,
                        slt.FrequencyBand([(0.05, 0.3)])),
                       (slt.time_limited_gramians, slt.TimeWindow(0.0, 25.0))):
        sign = build(real, arg)
        proj = build(real, arg, solver="projection")
        assert proj.info["dim"] < real.N
        for side in ("controllability", "observability"):
            assert _rel(getattr(proj, side).matrix(),
                        getattr(sign, side).matrix()) <= 1e-8
    companion = slt.first_companion(sys)
    proj = slt.infinite_gramians(companion, solver="projection")
    sign = slt.infinite_gramians(companion)
    assert _rel(proj.controllability.matrix(),
                sign.controllability.matrix()) <= 1e-5
