"""Reduction pipeline: shifts, hybrid pre-reduction, reduce(), error reports."""

import warnings

import numpy as np
import pytest
import scipy.linalg as spla
import scipy.sparse
from numpy.testing import assert_allclose

import solimbt as slt
from solimbt import errors
from solimbt.system import _dense

from helpers import count_calls, random_second_order


def test_alpha_shift_roundtrip():
    rng = np.random.default_rng(0)
    sys = random_second_order(rng, 5, m=2, p=2)
    back = slt.alpha_backsubstitute(slt.alpha_shift(sys, 0.3), 0.3)
    for a, b in ((sys.M, back.M), (sys.E, back.E), (sys.K, back.K),
                 (sys.B_u, back.B_u), (sys.C_p, back.C_p), (sys.C_v, back.C_v)):
        assert spla.norm(a - b) <= 1e-14 * max(spla.norm(a), 1.0)


def test_alpha_shift_moves_the_argument():
    # H_shifted(s) = H(s + alpha)
    rng = np.random.default_rng(1)
    sys = random_second_order(rng, 4, m=1, p=2)
    shifted = slt.alpha_shift(sys, 0.2)
    pts = 1j * np.array([0.1, 1.0, 3.0])
    assert_allclose(slt.eval_transfer(shifted, pts),
                    slt.eval_transfer(sys, pts + 0.2), rtol=1e-11, atol=1e-13)
    with pytest.raises(errors.InvalidParams):
        slt.alpha_shift(sys, -0.1)


def test_hybrid_prereduce_interpolates():
    sys = slt.generate_chain(40)
    omegas = np.array([0.05, 0.1, 0.2, 0.3])
    pre, V = slt.hybrid_prereduce(sys, omegas)
    assert pre.n == V.shape[1] < sys.n
    assert_allclose(V.T @ V, np.eye(pre.n), atol=1e-12)
    H = slt.eval_transfer(sys, 1j * omegas)
    Hp = slt.eval_transfer(pre, 1j * omegas)
    scale = np.max([np.linalg.norm(h, 2) for h in H])
    assert np.max([np.linalg.norm(d, 2) for d in H - Hp]) <= 1e-10 * scale
    # symmetry/definiteness survive the congruence
    assert spla.eigvalsh(pre.M)[0] > 0
    assert spla.norm(pre.K - pre.K.T) <= 1e-12 * spla.norm(pre.K)


def test_hybrid_prereduce_pole_and_validation():
    undamped = slt.make_second_order([[1.0]], [[0.0]], [[1.0]], [[1.0]],
                                     [[1.0]], [[0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(errors.SingularShiftedSystem):
            slt.hybrid_prereduce(undamped, np.array([1.0]))  # pole at +-i
    for omegas in ([], [-1.0, 1.0], [0.5, np.nan], [0.5, np.inf], ["x"]):
        with pytest.raises(errors.InvalidParams):
            slt.hybrid_prereduce(undamped, np.array(omegas))


def test_hybrid_prereduce_pole_sparse():
    sp = scipy.sparse.csc_array
    undamped = slt.make_second_order(sp([[1.0]]), sp([[0.0]]), sp([[1.0]]),
                                     [[1.0]], [[1.0]], [[0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(errors.SingularShiftedSystem):
            slt.hybrid_prereduce(undamped, np.array([0.5, 1.0]))


def test_hybrid_prereduce_decomposes_one_point_at_a_time(monkeypatch):
    # the basis grows point by point: on chain(1200) with 200 points every
    # SVD or QR of an n-row block is at most one point's 2m + 2p columns
    # wide, and the one other SVD is that of the r0 x k coefficients
    sys = slt.generate_chain(1200)
    shapes = []
    for name in ("svd", "qr"):
        def recorded(a, *args, _fn=getattr(spla, name), **kwargs):
            shapes.append(np.shape(a))
            return _fn(a, *args, **kwargs)
        monkeypatch.setattr(spla, name, recorded)
    pre, _ = slt.hybrid_prereduce(sys, np.logspace(-2, 1, 200))
    width = 2 * (sys.m + sys.p)
    tall = [cols for rows, cols in shapes if rows == sys.n]
    rest = [shape for shape in shapes if shape[0] != sys.n]
    assert len(tall) >= 200 and max(tall) <= width
    assert len(rest) == 1 and pre.n <= rest[0][0] < sys.n and rest[0][1] == 200 * width


@pytest.mark.parametrize("tol", [1e-12, 1e-15])
def test_hybrid_prereduce_basis_stays_orthonormal(tol):
    # 100 points on chain(100) add directions a little above rounding at
    # many points; a basis that takes them as the residual's SVD gives them
    # loses its orthogonality within a dozen points
    sys = slt.generate_chain(100)
    pre, V = slt.hybrid_prereduce(sys, np.logspace(-3, 1, 100), tol)
    assert_allclose(V.T @ V, np.eye(pre.n), atol=1e-12)


@pytest.mark.parametrize("sparse", [False, True])
def test_hybrid_prereduce_without_inputs_or_outputs(sparse):
    # zero B_u, C_p and C_v give no direction, so the pre-reduced model has
    # no state: DimensionMismatch, as from make_second_order
    n = 4
    mats = [np.eye(n), np.eye(n), 2.0 * np.eye(n)]
    if sparse:
        mats = [scipy.sparse.csc_array(A) for A in mats]
    sys = slt.make_second_order(*mats, np.zeros((n, 1)), np.zeros((2, n)), np.zeros((2, n)))
    with pytest.raises(errors.DimensionMismatch):
        slt.hybrid_prereduce(sys, np.array([0.5, 1.0]))


def test_config_validation():
    band = slt.FrequencyBand([(0.1, 1.0)])
    win = slt.TimeWindow(0.0, 1.0)
    bad = [
        dict(method="nope"),
        dict(formula="nope"),
        dict(method="flbt"),                      # band missing
        dict(method="tlbt"),                      # window missing
        dict(realization="nope"),
        dict(solver="nope"),
        dict(method="bt", modified=True),
        dict(method="flbt", band=band, modified=True, solver="projection"),
        dict(alpha=-1.0),
        dict(order_tol=0.0),
        dict(order_tol=-1.0),
        dict(alpha="1"),                          # not a number
        dict(alpha=None),
        dict(alpha=True),                         # a bool is no number
        dict(order_tol="1e-8"),
        dict(order_tol=None),
        dict(order_tol=True),
    ]
    for kwargs in bad:
        with pytest.raises(errors.InvalidParams):
            slt.ReductionConfig(**kwargs).validate()
    slt.ReductionConfig(method="flbt", band=band).validate()
    slt.ReductionConfig(method="tlbt", window=win).validate()
    slt.ReductionConfig(solver="projection").validate()
    slt.ReductionConfig(alpha=1, order_tol=np.float64(1e-6)).validate()
    slt.ReductionConfig(realization="dissipative", gamma=0.1).validate()
    slt.ReductionConfig(realization="dissipative", j="identity").validate()
    slt.ReductionConfig(j=np.eye(3)).validate()


_BAND = slt.FrequencyBand([(0.1, 1.0)])
_WINDOW = slt.TimeWindow(0.0, 1.0)


@pytest.mark.parametrize("kwargs", [
    dict(hybrid="abc"),
    dict(hybrid=(np.array([0.1, 1.0]), "x")),
    dict(method="flbt", band=[(1, 2)]),
    dict(method="tlbt", window=(0, 1)),
    dict(method="bt", band=_BAND),
    dict(method="flbt", band=_BAND, window=_WINDOW),
    dict(hybrid=(np.array([0.1, 1.0]), np.nan)),
    dict(hybrid=(np.array([0.1, 1.0]), 1.0)),
    dict(gamma=-1.0),
    dict(method="bt", gamma=0.1),
    dict(realization="dissipative", j="neg_k"),
    dict(realization="dissipative", j=np.eye(4)),
    dict(hybrid=(np.array([-0.1, 1.0]), 1e-12)),
    dict(hybrid=(np.array([[0.1, 1.0]]), 1e-12)),
    dict(hybrid=("abc", 1e-12)),
], ids=["hybrid-string", "hybrid-tol-string", "band-list", "window-tuple",
        "band-with-bt", "window-with-flbt", "hybrid-tol-nan", "hybrid-tol-one",
        "gamma-negative-with-companion", "gamma-with-companion",
        "j-with-dissipative", "j-array-with-dissipative",
        "hybrid-omegas-negative", "hybrid-omegas-2d", "hybrid-omegas-string"])
def test_config_errors_raise_invalid_params(kwargs, capfd):
    # reduce runs validate first, so a malformed config fails before any work
    # as a config error, not as a bare ValueError, TypeError or AttributeError
    # (or, for a NaN tol or one of 1, as a singular or empty pre-reduced
    # model), and nothing reaches stderr; a setting that the chosen
    # realization ignores is rejected, not dropped
    with pytest.raises(errors.InvalidParams):
        slt.ReductionConfig(**kwargs).validate()
    with pytest.raises(errors.InvalidParams):
        slt.reduce(slt.generate_chain(4), slt.ReductionConfig(**kwargs))
    assert capfd.readouterr().err == ""


def test_reduce_coupling_block_choices():
    # the characteristic values do not depend on J, however it is given
    sys = slt.generate_chain(20)
    two = 2.0 * np.eye(sys.n)
    sigmas = [slt.reduce(sys, slt.ReductionConfig(method="bt", formula="fv",
                                                  j=j)).sigma
              for j in ("identity", "neg_k", two, two.tolist())]
    assert sigmas[0][0] == pytest.approx(0.2015, abs=1e-4)
    for sigma in sigmas[1:]:
        assert_allclose(sigma[:5], sigmas[0][:5], rtol=1e-8)


def test_reduce_bt_basic():
    sys = slt.generate_chain(8)
    rom = slt.reduce(sys, slt.ReductionConfig(method="bt", formula="pv"))
    assert isinstance(rom.system, slt.SecondOrderSystem)
    assert 1 <= rom.r < 8
    assert rom.method == "bt" and rom.formula == "pv"
    assert rom.sigma.size >= rom.r
    assert rom.truncated_tail >= 0.0
    assert rom.stable
    for key in ("timings", "gramian_info", "realization", "solver",
                "max_real_part"):
        assert key in rom.details
    assert "total" in rom.details["timings"]


def test_reduce_band_and_window_methods():
    sys = slt.generate_chain(8)
    band = slt.FrequencyBand([(0.05, 0.3)])
    win = slt.TimeWindow(0.0, 20.0)
    flbt = slt.reduce(sys, slt.ReductionConfig(method="flbt", band=band))
    assert flbt.details["band"] is band
    tlbt = slt.reduce(sys, slt.ReductionConfig(method="tlbt", window=win))
    assert tlbt.details["window"] is win
    assert flbt.r >= 1 and tlbt.r >= 1


def test_reduced_model_stability_checked_once(monkeypatch):
    # the reports reuse the verdict of reduce instead of a second QZ
    from solimbt import pipeline
    checked = []
    original = pipeline.check_stability

    def counting(obj, *args, **kwargs):
        checked.append(obj)
        return original(obj, *args, **kwargs)

    monkeypatch.setattr(pipeline, "check_stability", counting)
    sys = slt.generate_chain(8)
    t = np.linspace(0.0, 20.0, 201)
    configs = (slt.ReductionConfig(method="bt"),
               slt.ReductionConfig(method="flbt", band=slt.FrequencyBand([(0.05, 0.3)])),
               slt.ReductionConfig(method="tlbt", window=slt.TimeWindow(0.0, 20.0)))
    for cfg in configs:
        rom = slt.reduce(sys, cfg)
        freq = slt.frequency_error_report(sys, rom, 1e-2, 1.0, 20)
        time_ = slt.time_error_report(sys, rom, slt.StepSignal(), t)
        assert freq.rom_stable is rom.stable and time_.rom_stable is rom.stable
    assert len(checked) == len(configs)
    # a bare system is still checked
    rep = slt.frequency_error_report(sys, rom.system, 1e-2, 1.0, 20)
    assert len(checked) == len(configs) + 1 and rep.rom_stable == rom.stable


def test_reduce_every_formula_runs():
    sys = slt.generate_chain(8)
    band = slt.FrequencyBand([(0.05, 0.3)])
    pts = 1j * np.logspace(-2, 0, 10)
    H = slt.eval_transfer(sys, pts)
    scale = np.max([np.linalg.norm(h, 2) for h in H])
    for formula in slt.FORMULAS:
        rom = slt.reduce(sys, slt.ReductionConfig(
            method="flbt", band=band, formula=formula, fixed_order=4))
        assert rom.r == 4
        assert rom.system.n == 4
        # sanity only: the reduced response stays within an order of
        # magnitude of the original's scale
        Hr = slt.eval_transfer(rom.system, pts)
        assert np.max([np.linalg.norm(h, 2) for h in Hr]) <= 10 * scale


def test_rom_matrices_stable_under_last_bit_changes():
    # Gramian factors and SVDs leave the sign of every basis vector free; a
    # one-ulp change of K must not flip one and change ROM entries by O(1)
    sys = slt.generate_chain(20)
    K = sys.K.copy()
    K[0, 0] = np.nextafter(K[0, 0], np.inf)
    bumped = slt.make_second_order(sys.M, sys.E, K, sys.B_u, sys.C_p, sys.C_v)
    band = slt.FrequencyBand([(0.0, 0.5)])
    for formula in slt.FORMULAS:
        cfg = slt.ReductionConfig(method="flbt", band=band, formula=formula,
                                  fixed_order=4)
        a, b = (slt.reduce(model, cfg).system for model in (sys, bumped))
        for name in ("M", "E", "K", "B_u", "C_p"):  # the chain's C_v is 0
            assert _rel(getattr(b, name), getattr(a, name)) <= 1e-8, (formula, name)


def test_reduce_dissipative_route_matches_companion():
    sys = slt.generate_chain(10)
    band = slt.FrequencyBand([(0.05, 0.3)])
    kw = dict(method="flbt", band=band, formula="pv", fixed_order=3)
    comp = slt.reduce(sys, slt.ReductionConfig(**kw))
    diss = slt.reduce(sys, slt.ReductionConfig(realization="dissipative", **kw))
    assert "gamma" in diss.details
    pts = 1j * np.logspace(-2, 0, 20)
    Hc = slt.eval_transfer(comp.system, pts)
    Hd = slt.eval_transfer(diss.system, pts)
    scale = np.max([np.linalg.norm(h, 2) for h in Hc])
    assert np.max([np.linalg.norm(d, 2) for d in Hc - Hd]) <= 1e-8 * scale


def test_reduce_with_alpha_and_neg_k():
    sys = slt.generate_chain(6)
    rom = slt.reduce(sys, slt.ReductionConfig(method="bt", alpha=0.01,
                                              j="neg_k", fixed_order=3))
    assert rom.details["alpha"] == 0.01
    assert rom.r == 3
    assert np.all(np.isfinite(rom.system.K))


def test_reduce_hybrid_band_warning():
    sys = slt.generate_chain(20)
    band = slt.FrequencyBand([(0.05, 0.3)])
    inside = np.array([0.1, 0.2])
    cfg = slt.ReductionConfig(method="flbt", band=band, fixed_order=2,
                              hybrid=(inside, 1e-12))
    with pytest.warns(UserWarning):
        rom = slt.reduce(sys, cfg)
    assert rom.details["prereduced_order"] < 20

    straddling = np.array([0.01, 0.1, 1.0])
    cfg = slt.ReductionConfig(method="flbt", band=band, fixed_order=2,
                              hybrid=(straddling, 1e-12))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        slt.reduce(sys, cfg)


def test_frequency_report_identical_models():
    sys = slt.generate_chain(5)
    band = slt.FrequencyBand([(0.05, 0.3)])
    rep = slt.frequency_error_report(sys, sys, 0.01, 1.0, 40, band=band)
    assert rep.kind == "frequency"
    assert rep.grid.size == 40
    assert rep.global_max_abs <= 1e-12
    assert rep.global_max_rel <= 1e-12
    assert rep.local_max_abs is not None
    assert rep.skipped == []
    assert rep.rom_order is None  # plain system, no reduction metadata
    assert rep.rom_stable


def test_frequency_report_reduced_model_metadata():
    sys = slt.generate_chain(6)
    rom = slt.reduce(sys, slt.ReductionConfig(method="bt", fixed_order=2))
    rep = slt.frequency_error_report(sys, rom, 0.01, 1.0, 25)
    assert rep.rom_order == 2
    assert rep.local_max_abs is None  # no band given
    assert rep.global_max_abs > 0


def test_frequency_report_skips_poles():
    undamped = slt.make_second_order([[1.0]], [[0.0]], [[1.0]], [[1.0]],
                                     [[1.0]], [[0.0]])
    rep = slt.frequency_error_report(undamped, undamped, 1.0, 10.0, 5)
    assert rep.skipped == [0]  # the first grid point sits on the pole
    assert np.isnan(rep.orig_norm[0])
    assert np.isfinite(rep.orig_norm[1:]).all()


def test_frequency_report_skips_poles_sparse():
    # logspace(-1, 1, 3) puts omega = 1 exactly on the pole
    sp = scipy.sparse.csc_array
    undamped = [[1.0]], [[0.0]], [[1.0]], [[1.0]], [[1.0]], [[0.0]]
    dense = slt.make_second_order(*undamped)
    sparse = slt.make_second_order(*(sp(A) for A in undamped[:3]), *undamped[3:])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reps = [slt.frequency_error_report(orig, dense, 0.1, 10.0, 3)
                for orig in (dense, sparse)]
    for rep in reps:
        assert rep.skipped == [1]
        assert np.isnan(rep.orig_norm[1]) and np.isnan(rep.abs_err[1])
    assert np.array_equal(reps[0].orig_norm, reps[1].orig_norm, equal_nan=True)


def test_frequency_report_zero_reference():
    silent = slt.make_second_order([[1.0]], [[1.0]], [[1.0]], [[1.0]],
                                   [[0.0]], [[0.0]])
    rep = slt.frequency_error_report(silent, silent, 0.1, 1.0, 10)
    assert rep.global_max_rel is None
    assert np.isnan(rep.rel_err).all()


def test_frequency_report_matches_pointwise():
    sys = slt.generate_chain(5)
    rom = slt.reduce(sys, slt.ReductionConfig(method="bt", fixed_order=2))
    rep = slt.frequency_error_report(sys, rom, 0.01, 1.0, 30)
    # the batched sweep does the arithmetic of a point-by-point loop
    ref = [np.linalg.norm(slt.eval_transfer(sys, 1j * w)
                          - slt.eval_transfer(rom.system, 1j * w), 2)
           for w in rep.grid]
    assert np.array_equal(rep.abs_err, ref)


def _same_report(a, b):
    return all(np.array_equal(getattr(a, k), getattr(b, k), equal_nan=True)
               for k in ("grid", "orig_norm", "abs_err", "rel_err")) and all(
        getattr(a, k) == getattr(b, k) for k in
        ("global_max_abs", "global_max_rel", "local_max_abs", "local_max_rel",
         "rom_stable", "skipped"))


def test_reports_compute_the_original_once(monkeypatch):
    # the sparse original is swept and stepped by the first pair of reports
    # only; the dense ROM of the second pair needs no sparse factorization
    # (SuperLU or band LU) at all
    from solimbt import system
    sys = slt.generate_chain(30)
    t = np.linspace(0.0, 20.0, 201)
    win = slt.TimeWindow(0.0, 10.0)
    a, b = (slt.reduce(sys, slt.ReductionConfig(method="bt", fixed_order=r)).system
            for r in (2, 4))

    def reports(orig, rom):
        return (slt.frequency_error_report(orig, rom, 1e-2, 1.0, 40),
                slt.time_error_report(orig, rom, slt.StepSignal(), t, window=win))

    reports(sys, a)
    solves = count_calls(monkeypatch, system, "_shifted_solves")
    lus = count_calls(monkeypatch, scipy.sparse.linalg, "splu")
    bands = count_calls(monkeypatch, system, "_band_lu")
    second = reports(sys, b)
    assert len(solves) == 1 and solves[0] is b and lus == bands == []
    fresh = reports(slt.generate_chain(30), b)
    assert all(_same_report(x, y) for x, y in zip(second, fresh))


def test_time_report():
    sys = slt.generate_chain(5)
    rom = slt.reduce(sys, slt.ReductionConfig(method="bt", fixed_order=3))
    t = np.linspace(0.0, 40.0, 801)
    win = slt.TimeWindow(0.0, 10.0)
    rep = slt.time_error_report(sys, rom, slt.StepSignal(), t, window=win)
    assert rep.kind == "time"
    assert rep.global_max_abs >= rep.local_max_abs
    assert np.isnan(rep.rel_err[0])  # both trajectories start at rest
    assert rep.rom_order == 3

    same = slt.time_error_report(sys, sys, slt.StepSignal(), t)
    assert same.global_max_abs == 0.0
    assert same.local_max_abs is None


def test_time_report_divergence_propagates():
    stable = slt.generate_chain(2)
    runaway = slt.make_second_order(np.eye(2), -2.0 * np.eye(2), np.eye(2),
                                    np.ones((2, 1)), np.ones((3, 2)),
                                    np.zeros((3, 2)))
    t = np.arange(0.0, 800.0, 0.5)
    with pytest.raises(errors.NonFiniteState):
        slt.time_error_report(stable, runaway, slt.StepSignal(), t)


# ------------------------------------------------- sparse-loaded model bundles

@pytest.fixture(scope="module")
def chain_pair(tmp_path_factory):
    """The n=200 chain, densified and sparse as loaded from a bundle."""
    dense = _dense(slt.generate_chain(200))
    assert isinstance(dense.M, np.ndarray)
    path = tmp_path_factory.mktemp("bundle") / "chain"
    slt.save_bundle(path, dense)
    sparse, _ = slt.load_bundle(path)
    assert all(scipy.sparse.issparse(A) for A in (sparse.M, sparse.E, sparse.K))
    return dense, sparse


def _rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


def test_sparse_bundle_responses_match_dense(chain_pair):
    dense, sparse = chain_pair
    pts = 1j * np.logspace(-3, 1, 60)
    assert _rel(slt.eval_transfer(sparse, pts), slt.eval_transfer(dense, pts)) <= 1e-12

    omegas = np.array([0.01, 0.05, 0.1, 0.3, 1.0])
    pre_d, _ = slt.hybrid_prereduce(dense, omegas)
    pre_s, _ = slt.hybrid_prereduce(sparse, omegas)
    assert pre_s.n == pre_d.n < dense.n
    H = slt.eval_transfer(dense, 1j * omegas)
    assert _rel(slt.eval_transfer(pre_s, 1j * omegas), H) <= 1e-12

    rep_d = slt.frequency_error_report(dense, pre_d, 1e-3, 10.0, 80)
    rep_s = slt.frequency_error_report(sparse, pre_d, 1e-3, 10.0, 80)
    assert rep_s.skipped == rep_d.skipped == []
    assert _rel(rep_s.orig_norm, rep_d.orig_norm) <= 1e-12
    assert np.max(np.abs(rep_s.abs_err - rep_d.abs_err)) <= 1e-12 * np.max(rep_d.orig_norm)


def test_sparse_bundle_dense_pipeline_unchanged(chain_pair):
    # reduce without hybrid and check_stability densify the model where
    # they start, so a sparse-loaded bundle gives the dense results; simulate
    # steps it with SuperLU, to rounding of the dense stepper
    dense, sparse = chain_pair
    configs = (dict(method="bt", fixed_order=6),
               dict(method="bt", fixed_order=6, alpha=0.05, realization="dissipative"))
    for kwargs in configs:
        rom_d = slt.reduce(dense, slt.ReductionConfig(**kwargs))
        rom_s = slt.reduce(sparse, slt.ReductionConfig(**kwargs))
        for name in ("M", "E", "K", "B_u", "C_p", "C_v"):
            assert np.array_equal(getattr(rom_s.system, name),
                                  getattr(rom_d.system, name))
        assert np.array_equal(rom_s.sigma, rom_d.sigma)
    t = np.linspace(0.0, 20.0, 201)
    traj_d = slt.simulate(dense, slt.StepSignal(), t)
    traj_s = slt.simulate(sparse, slt.StepSignal(), t)
    assert _rel(traj_s.outputs, traj_d.outputs) <= 1e-12
    stab_d, stab_s = slt.check_stability(dense), slt.check_stability(sparse)
    assert stab_s.is_c_stable and stab_s.max_real_part == stab_d.max_real_part
