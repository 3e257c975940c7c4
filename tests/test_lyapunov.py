"""Lyapunov solvers: sign iteration, dense reference, projection."""

import warnings

import numpy as np
import pytest
import scipy.linalg as spla
from numpy.testing import assert_allclose

import solimbt as slt
from solimbt import errors, lyapunov, system
from solimbt.lyapunov import ldl_compress

from helpers import (SingularOperator, TooLarge, contr_residual, obs_residual,
                     random_second_order, solve_lyap_dense_oracle, stable_generic)


# ------------------------------------------------------------------- factors

def test_ldl_compress_reconstructs():
    rng = np.random.default_rng(0)
    Z = rng.standard_normal((20, 12))
    Y = rng.standard_normal((12, 12))
    Y = 0.5 * (Y + Y.T)
    Zc, Yc = ldl_compress(Z, Y)
    assert_allclose(Zc @ Yc @ Zc.T, Z @ Y @ Z.T, rtol=1e-12, atol=1e-10)
    assert_allclose(Zc.T @ Zc, np.eye(Zc.shape[1]), atol=1e-12)
    assert_allclose(Yc, np.diag(np.diag(Yc)))


def test_ldl_compress_drops_redundancy():
    rng = np.random.default_rng(1)
    base = rng.standard_normal((15, 3))
    Z = np.hstack([base, base, base])  # numerical rank 3
    Zc, Yc = ldl_compress(Z, np.eye(9))
    assert Zc.shape[1] == 3
    assert_allclose(Zc @ Yc @ Zc.T, Z @ Z.T, rtol=1e-12, atol=1e-10)


def test_ldl_compress_empty_and_zero():
    Zc, Yc = ldl_compress(np.zeros((5, 0)), np.zeros((0, 0)))
    assert Zc.shape == (5, 0)
    Zc, Yc = ldl_compress(np.zeros((5, 2)), np.eye(2))
    assert Zc.shape[1] == 0


def test_gramian_factor_api():
    Z = np.eye(2)
    f = slt.GramianFactor(Z, np.array([1.0, -1.0]))  # 1d core is promoted
    assert f.Y.shape == (2, 2)
    assert f.rank == 2
    assert_allclose(f.matrix(), np.diag([1.0, -1.0]))
    assert f.trace() == pytest.approx(0.0)
    # the Cholesky-like factor drops the negative part
    R = f.cholesky_like()
    assert_allclose(R @ R.T, np.diag([1.0, 0.0]), atol=1e-14)
    with pytest.raises(errors.DimensionMismatch):
        slt.GramianFactor(np.ones((3, 2)), np.eye(3))


def test_indefinite_rhs():
    G = np.array([[1.0, 2.0], [0.0, 1.0]])
    rhs = slt.IndefiniteRhs.definite(G)
    assert_allclose(rhs.S, np.eye(2))
    assert_allclose(rhs.dense(), G @ G.T)


# -------------------------------------------------------------- sign iteration

def test_sign_scalar_frozen():
    # x' = -2x, B = 2, C = 1: P = B^2 / 4 = 1 and Q = 1/4 (calE = 1, so X = A
    # and W = Q).
    P, Q, info = slt.solve_lyap_sign_dual(
        np.array([[-2.0]]), slt.IndefiniteRhs.definite(np.array([[2.0]])),
        slt.IndefiniteRhs.definite(np.array([[1.0]])))
    assert P.matrix()[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert Q.matrix()[0, 0] == pytest.approx(0.25, abs=1e-13)
    assert info["num_iter"] <= 10
    assert info["rel_err"] <= 1e-12


def test_sign_matches_oracle_definite():
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        real = stable_generic(rng, 12, m=2, p=3)
        P, Q, _ = slt.solve_lyap_pencil(
            real, slt.IndefiniteRhs.definite(real.calB),
            slt.IndefiniteRhs.definite(real.calC.T))
        Pref = solve_lyap_dense_oracle(real.calA, real.calE,
                                       real.calB @ real.calB.T)
        Qref = solve_lyap_dense_oracle(real.calA.T, real.calE.T,
                                       real.calC.T @ real.calC)
        assert_allclose(P.matrix(), Pref, rtol=1e-9, atol=1e-11)
        assert_allclose(Q.matrix(), Qref, rtol=1e-9, atol=1e-11)


def test_sign_indefinite_rhs_and_residuals():
    rng = np.random.default_rng(3)
    real = stable_generic(rng, 10, m=2, p=2)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    rhs_c = slt.IndefiniteRhs(rng.standard_normal((10, 2)), swap)
    rhs_o = slt.IndefiniteRhs(rng.standard_normal((10, 2)), np.diag([1.0, -1.0]))
    P, Q, _ = slt.solve_lyap_pencil(real, rhs_c, rhs_o)
    rc = contr_residual(real.calA, real.calE, P.matrix(), rhs_c.dense())
    ro = obs_residual(real.calA, real.calE, Q.matrix(), rhs_o.dense())
    assert rc <= 1e-10 * spla.norm(rhs_c.dense())
    assert ro <= 1e-10 * spla.norm(rhs_o.dense())


def test_sign_not_converged():
    # An anti-stable X drives the iterate to +I instead of -I.
    one = np.array([[1.0]])
    with pytest.raises(errors.NotConverged):
        slt.solve_lyap_sign_dual(one, slt.IndefiniteRhs.definite(one),
                                 slt.IndefiniteRhs.definite(one))


def test_sign_imaginary_axis_pencil():
    # Eigenvalues +-i: the first step lands exactly on a singular iterate.
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    G = np.eye(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(errors.UnstablePencil, match="singular iterate"):
            slt.solve_lyap_sign_dual(A, slt.IndefiniteRhs.definite(G),
                                     slt.IndefiniteRhs.definite(G))


@pytest.mark.parametrize("build", [
    slt.first_companion, slt.strictly_dissipative])
def test_sign_chain_iteration_count(build):
    # Frobenius-norm scaling of the standard-form iterate settles within
    # 7 steps on every right-hand side
    real = build(slt.generate_chain(100))
    pairs = [slt.infinite_gramians(real),
             slt.frequency_limited_gramians(real, slt.FrequencyBand.from_hz([(1.0, 100.0)])),
             slt.time_limited_gramians(real, slt.TimeWindow(0.0, 20.0))]
    assert max(pair.info["num_iter"] for pair in pairs) <= 7


@pytest.mark.parametrize("where", ["nan-in-X", "inf-in-X", "nan-in-factor"])
def test_sign_non_finite_input(where):
    # typed, before any LAPACK call: not scipy's untyped ValueError, and not
    # a NaN distance that ends the loop with unconverged factors
    X, G = -np.eye(3) - np.diag([1.0, 2.0], 1), np.ones((3, 1))
    if where == "nan-in-factor":
        G[1, 0] = np.nan
    else:
        X[0, 2] = np.nan if where == "nan-in-X" else np.inf
    with pytest.raises(errors.NonFinite):
        slt.solve_lyap_sign_dual(X, slt.IndefiniteRhs.definite(G),
                                 slt.IndefiniteRhs.definite(np.ones((3, 1))))


def test_sign_route_never_calls_inv(monkeypatch):
    # the iteration inverts through LAPACK directly
    def refuse(*args, **kwargs):
        raise AssertionError("scipy.linalg.inv called")
    monkeypatch.setattr(spla, "inv", refuse)
    rom = slt.reduce(slt.generate_chain(20), slt.ReductionConfig(method="bt"))
    assert rom.r >= 1 and rom.details["gramian_info"]["num_iter"] >= 1


def test_sign_chain300_thin_last_step():
    # the benchmark size: 7 steps on every right-hand side, the last one
    # thin, with the certified bound as its error
    real = slt.first_companion(slt.generate_chain(300))
    for pair in (slt.infinite_gramians(real),
                 slt.frequency_limited_gramians(real, slt.FrequencyBand.from_hz([(1.0, 100.0)])),
                 slt.time_limited_gramians(real, slt.TimeWindow(0.0, 20.0))):
        info = pair.info
        assert info["num_iter"] == 7
        assert info["rel_err"] <= lyapunov.SIGN_TOL
        assert info["thin_last"] is True
        assert len(info["scaling"]) == len(info["ranks"]) == 7
        assert info["scaling"][0] != 1.0 and info["scaling"][-1] == 1.0


@pytest.mark.parametrize("method", ["bt", "flbt", "tlbt"])
def test_sign_route_matches_oracle_on_chain(method):
    # the Kronecker oracle caps N at 60, so chain(20) (N = 40) stands in for
    # the larger chains; the last step is thin here too
    real = slt.first_companion(slt.generate_chain(20))
    if method == "bt":
        rhs = (slt.IndefiniteRhs.definite(real.calB), slt.IndefiniteRhs.definite(real.calC.T))
        pair = slt.infinite_gramians(real)
    elif method == "flbt":
        band = slt.FrequencyBand([(0.05, 0.3)])
        rhs = slt.freq_limited_rhs(real, band)
        pair = slt.frequency_limited_gramians(real, band)
    else:
        window = slt.TimeWindow(0.0, 20.0)
        rhs = slt.time_limited_rhs(real, window)
        pair = slt.time_limited_gramians(real, window)
    assert pair.info["thin_last"] is True
    Pref = solve_lyap_dense_oracle(real.calA, real.calE, rhs[0].dense())
    Qref = solve_lyap_dense_oracle(real.calA.T, real.calE.T, rhs[1].dense())
    for factor, ref in ((pair.controllability, Pref), (pair.observability, Qref)):
        assert spla.norm(factor.matrix() - ref) <= 1e-9 * spla.norm(ref)


def test_sign_dimension_checks():
    one = np.array([[1.0]])
    with pytest.raises(errors.DimensionMismatch):
        slt.solve_lyap_sign_dual(-np.eye(2, 3),
                                 slt.IndefiniteRhs.definite(np.ones((3, 1))),
                                 slt.IndefiniteRhs.definite(np.ones((3, 1))))
    with pytest.raises(errors.DimensionMismatch):
        slt.solve_lyap_sign_dual(-one,
                                 slt.IndefiniteRhs.definite(np.ones((2, 1))),
                                 slt.IndefiniteRhs.definite(one))
    with pytest.raises(errors.DimensionMismatch):  # no state
        slt.solve_lyap_sign_dual(np.zeros((0, 0)),
                                 slt.IndefiniteRhs.definite(np.zeros((0, 1))),
                                 slt.IndefiniteRhs.definite(np.zeros((0, 1))))


# -------------------------------------------------------------- dense oracle

def test_oracle_scalar():
    # -2x + 4 = 0 on both sides: X = 1
    X = solve_lyap_dense_oracle(np.array([[-2.0]]), np.array([[1.0]]),
                                np.array([[4.0]]))
    assert X[0, 0] == pytest.approx(1.0, abs=1e-14)


def test_oracle_guards():
    with pytest.raises(TooLarge):
        solve_lyap_dense_oracle(-np.eye(61), np.eye(61), np.eye(61))
    with pytest.raises(errors.DimensionMismatch):
        solve_lyap_dense_oracle(-np.eye(3), np.eye(3), np.eye(2))
    # mirrored eigenvalues +1/-1 make the operator singular
    with pytest.raises(SingularOperator):
        solve_lyap_dense_oracle(np.diag([1.0, -1.0]), np.eye(2),
                                np.eye(2))


# ----------------------------------------------------------------- projection

def _definite_rhs(real):
    return (slt.IndefiniteRhs.definite(real.calB),
            slt.IndefiniteRhs.definite(real.calC.T))


def _assert_pair_matches_oracle(real, P, Q, rtol, atol):
    refP = solve_lyap_dense_oracle(real.calA, real.calE,
                                   real.calB @ real.calB.T)
    refQ = solve_lyap_dense_oracle(real.calA.T, real.calE.T,
                                   real.calC.T @ real.calC)
    assert_allclose(P.matrix(), refP, rtol=rtol, atol=atol)
    assert_allclose(Q.matrix(), refQ, rtol=rtol, atol=atol)


def test_projection_infinite_matches_oracle():
    rng = np.random.default_rng(5)
    sys = random_second_order(rng, 5, m=1, p=2)
    real = slt.strictly_dissipative(sys)
    P, Q, info = slt.solve_lyap_projection_dual(real, _definite_rhs)
    _assert_pair_matches_oracle(real, P, Q, rtol=1e-8, atol=1e-10)
    assert info["dim"] <= real.N


def test_projection_companion_realization():
    # identity-coupled companion form: full subspace makes it exact
    sys = slt.generate_chain(5)
    real = slt.first_companion(sys)
    P, Q, _ = slt.solve_lyap_projection_dual(real, _definite_rhs)
    _assert_pair_matches_oracle(real, P, Q, rtol=1e-7, atol=1e-9)


def test_projection_with_a_parent_solves_second_order_systems_only(monkeypatch):
    # a realization of a second-order system takes its basis from the
    # parent's n x n shifted solves, never from 2n x 2n first-order ones
    seen = []
    solves = system._shifted_solves

    def spy(obj, *args, **kwargs):
        seen.append(obj)
        return solves(obj, *args, **kwargs)

    monkeypatch.setattr(system, "_shifted_solves", spy)
    sys = slt.generate_chain(20)
    for real in (slt.first_companion(sys), slt.strictly_dissipative(sys)):
        seen.clear()
        P, Q, info = slt.solve_lyap_projection_dual(real, _definite_rhs)
        assert seen == [sys]
        assert info["dim"] % 2 == 0 and P.Z.shape[0] == Q.Z.shape[0] == real.N


def test_projection_band_window_match_sign_route():
    sys = slt.generate_chain(6)
    real = slt.strictly_dissipative(sys)
    band = slt.FrequencyBand([(0.05, 0.3)])
    win = slt.TimeWindow(0.0, 25.0)
    for build, arg in ((slt.frequency_limited_gramians, band),
                       (slt.time_limited_gramians, win)):
        sign = build(real, arg)
        proj = build(real, arg, solver="projection")
        for side in ("controllability", "observability"):
            assert_allclose(getattr(proj, side).matrix(),
                            getattr(sign, side).matrix(), rtol=1e-6, atol=1e-10)


def test_projection_unstable_projected_matrix():
    real = slt.FirstOrderRealization(np.eye(1), np.array([[0.1]]),
                                     np.ones((1, 1)), np.ones((1, 1)))
    with pytest.raises(errors.UnstableProjection):
        slt.solve_lyap_projection_dual(real, _definite_rhs)
    # a shift on a pole (+-i) of the full pencil: the band's first shift is 1
    osc = slt.FirstOrderRealization(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]),
                                    np.ones((2, 1)), np.ones((1, 2)))
    with pytest.raises(errors.UnstablePencil):
        slt.solve_lyap_projection_dual(osc, _definite_rhs,
                                       band=slt.FrequencyBand([(1.0, 2.0)]))
