"""Model bundles on disk and the four CLI subcommands.

The CLI is exercised in-process through ``solimbt.cli.main`` so exit codes
and file outputs can be asserted directly.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse

import solimbt as slt
from solimbt import cli, errors, pipeline
from solimbt.cli import main

from helpers import count_calls, random_second_order


# ------------------------------------------------------------------- bundles

def test_bundle_roundtrip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    sys_a = random_second_order(rng, 7, m=2, p=3)
    slt.save_bundle(tmp_path / "a", sys_a, name="specimen")
    loaded, name = slt.load_bundle(tmp_path / "a")
    assert name == "specimen"
    for orig, back in ((sys_a.M, loaded.M), (sys_a.E, loaded.E),
                       (sys_a.K, loaded.K)):
        assert isinstance(back, np.ndarray)  # full patterns load dense
        assert np.array_equal(orig, back)
    for orig, back in ((sys_a.B_u, loaded.B_u), (sys_a.C_p, loaded.C_p),
                       (sys_a.C_v, loaded.C_v)):
        assert np.array_equal(orig, back)
    # saving the same system twice produces identical bytes
    slt.save_bundle(tmp_path / "b", sys_a, name="specimen")
    for fname in ("M.mtx", "E.mtx", "K.mtx", "B.mtx", "Cp.mtx", "Cv.mtx",
                  "system.json"):
        assert (tmp_path / "a" / fname).read_bytes() == \
               (tmp_path / "b" / fname).read_bytes()


def test_bundle_bytes_are_canonical(tmp_path):
    # a dense save, a save of the same model with CSC matrices, and a load
    # and a second save give the same bytes, also for nonsymmetric
    # matrices, whose entry order could differ
    rng = np.random.default_rng(3)
    n = 4
    mats = [rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.6) + 3 * np.eye(n)
            for _ in range(3)]
    assert all(not np.array_equal(A, A.T) for A in mats)
    maps = rng.standard_normal((n, 1)), rng.standard_normal((2, n)), np.zeros((2, n))
    sys_a = slt.make_second_order(*mats, *maps)
    slt.save_bundle(tmp_path / "dense", sys_a)
    slt.save_bundle(tmp_path / "sparse", slt.make_second_order(
        *map(scipy.sparse.csc_array, mats), *maps))
    loaded, _ = slt.load_bundle(tmp_path / "dense")
    assert isinstance(loaded.M, np.ndarray)  # 9 to 12 of 16 entries stored
    slt.save_bundle(tmp_path / "loaded", loaded)
    for fname in ("M.mtx", "E.mtx", "K.mtx", "B.mtx", "Cp.mtx", "Cv.mtx",
                  "system.json"):
        assert (tmp_path / "dense" / fname).read_bytes() == \
               (tmp_path / "sparse" / fname).read_bytes() == \
               (tmp_path / "loaded" / fname).read_bytes()


def test_bundle_loads_dense_when_every_pattern_is_half_full(tmp_path):
    # M = I fills half of a 2x2 pattern but a third of a 3x3 one; one
    # sparser matrix keeps all three sparse
    for n, dense in ((2, True), (3, False)):
        chain = slt.generate_chain(n)
        for name, M in (("chain", chain.M), ("full", np.ones((n, n)) + n * np.eye(n))):
            sys_a = slt.make_second_order(M, chain.E.toarray(), chain.K.toarray(),
                                          chain.B_u, chain.C_p, chain.C_v)
            slt.save_bundle(tmp_path / f"{name}{n}", sys_a)
            loaded, _ = slt.load_bundle(tmp_path / f"{name}{n}")
            assert all(isinstance(A, np.ndarray) == (dense or name == "full")
                       for A in (loaded.M, loaded.E, loaded.K))
            assert np.array_equal(scipy.sparse.csc_array(loaded.M).toarray(),
                                  scipy.sparse.csc_array(sys_a.M).toarray())


def test_bundle_errors(tmp_path):
    with pytest.raises(errors.IoError):
        slt.load_bundle(tmp_path / "missing")
    sys_a = slt.generate_chain(3)
    slt.save_bundle(tmp_path / "c", sys_a)
    hdr = json.loads((tmp_path / "c" / "system.json").read_text())
    hdr["n"] = 99
    (tmp_path / "c" / "system.json").write_text(json.dumps(hdr))
    with pytest.raises(errors.DimensionMismatch):
        slt.load_bundle(tmp_path / "c")


# ------------------------------------------------------------------ generate

def test_generate_deterministic(tmp_path):
    out1, out2 = str(tmp_path / "m1"), str(tmp_path / "m2")
    assert main(["generate", "--n", "12", "--out", out1]) == 0
    assert main(["generate", "--n", "12", "--out", out2]) == 0
    for fname in ("M.mtx", "E.mtx", "K.mtx", "B.mtx", "Cp.mtx", "Cv.mtx",
                  "system.json"):
        assert (tmp_path / "m1" / fname).read_bytes() == \
               (tmp_path / "m2" / fname).read_bytes()
    loaded, _ = slt.load_bundle(out1)
    ref = slt.generate_chain(12)
    for back in (loaded.M, loaded.E, loaded.K, ref.M, ref.E, ref.K):
        assert scipy.sparse.issparse(back)
    assert np.array_equal(loaded.K.toarray(), ref.K.toarray())


# -------------------------------------------------------------------- reduce

def _write_job(path, **overrides):
    job = {
        "input": overrides.pop("input"),
        "output": overrides.pop("output"),
        "method": "flbt",
        "band": {"intervals": [[0.01, 0.05]], "unit": "hz"},
        "order": {"fixed": 3},
    }
    job.update(overrides)  # an override of None drops the key
    path.write_text(json.dumps({k: v for k, v in job.items() if v is not None}))
    return path


def test_reduce_job(tmp_path, capsys):
    model = str(tmp_path / "model")
    main(["generate", "--n", "12", "--out", model])
    cfg = _write_job(tmp_path / "job.json", input=model,
                     output=str(tmp_path / "rom"))
    assert main(["reduce", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "order 3" in out

    report = json.loads((tmp_path / "rom" / "report.json").read_text())
    assert report["rom_order"] == 3
    assert report["method"] == "flbt"
    assert isinstance(report["stable"], bool)
    assert len(report["sigma"]) <= 50
    assert "wall_time_s" in report and "timings" in report
    info = report["gramian_info"]
    steps = info["num_iter"]
    assert 1 <= steps <= 10 and info["rel_err"] <= slt.lyapunov.SIGN_TOL
    assert len(info["scaling"]) == steps and info["scaling"][-1] == 1.0
    assert len(info["ranks"]) == steps and all(len(r) == 2 for r in info["ranks"])
    assert info["thin_last"] is True
    rom, _ = slt.load_bundle(tmp_path / "rom")
    assert rom.n == 3 and isinstance(rom.M, np.ndarray)


def test_reduce_job_projection_info(tmp_path):
    # the projection route pre-reduces the model and runs the sign solver on
    # the small one: report.json holds the pre-reduced order, and the
    # Gramian info the small realization's dimension and the sign info
    model = str(tmp_path / "model")
    main(["generate", "--n", "12", "--out", model])
    cfg = _write_job(tmp_path / "job.json", input=model, output=str(tmp_path / "rom"),
                     solver="projection", realization="dissipative")
    assert main(["reduce", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "rom" / "report.json").read_text())
    info = report["gramian_info"]
    assert 1 <= report["prereduced_order"] <= 12
    assert info["dim"] == 2 * report["prereduced_order"]
    assert info["num_iter"] >= 1 and isinstance(info["rel_err"], float)


def test_reduce_job_tlbt(tmp_path):
    model = str(tmp_path / "model")
    main(["generate", "--n", "10", "--out", model])
    job = {"input": model, "output": str(tmp_path / "rom"),
           "method": "tlbt", "window": {"t0": 0, "tf": 20},
           "order": {"fixed": 3}}
    (tmp_path / "job.json").write_text(json.dumps(job))
    assert main(["reduce", "--config", str(tmp_path / "job.json")]) == 0


def test_reduce_job_hybrid(tmp_path, monkeypatch, capsys):
    # a valid hybrid block: 20 sample points pre-reduce the chain once, the
    # job exits 0 with its report, and the adaptive-order ROM is accurate in
    # the band
    model = str(tmp_path / "model")
    main(["generate", "--n", "60", "--out", model])
    cfg = _write_job(tmp_path / "job.json", input=model, output=str(tmp_path / "rom"),
                     order={"tol": 1e-4},
                     hybrid={"points": 20, "fmin": 0.005, "fmax": 0.2, "unit": "hz"})
    pre = count_calls(monkeypatch, pipeline, "hybrid_prereduce")
    assert main(["reduce", "--config", str(cfg)]) == 0
    assert len(pre) == 1 and pre[0].n == 60
    report = json.loads((tmp_path / "rom" / "report.json").read_text())
    assert report["rom_order"] == 7 and report["stable"] is True
    assert "prereduce" in report["timings"]
    capsys.readouterr()
    summary = tmp_path / "err.json"
    assert main(["analyze", "--original", model, "--reduced", str(tmp_path / "rom"),
                 "--fmin", "0.001", "--fmax", "1", "--points", "100",
                 "--band", "0.01,0.05", "--out", str(tmp_path / "err.csv"),
                 "--summary", str(summary)]) == 0
    data = json.loads(summary.read_text())
    assert data["local_max_rel"] <= 1e-3
    assert data["local_max_rel"] < data["global_max_rel"]


def test_reduce_config_errors(tmp_path, capsys):
    model = str(tmp_path / "model")
    main(["generate", "--n", "6", "--out", model])

    def run(job):
        (tmp_path / "bad.json").write_text(json.dumps(job))
        code = main(["reduce", "--config", str(tmp_path / "bad.json")])
        return code, capsys.readouterr().err

    base = {"input": model, "output": str(tmp_path / "rom")}
    code, err = run({**base, "method": "flbt"})
    assert code == 2 and "band" in err
    code, err = run({**base, "method": "tlbt"})
    assert code == 2 and "window" in err
    # an infinite window end is a config error, not a numerical failure
    code, err = run({**base, "method": "tlbt", "window": {"t0": 0, "tf": np.inf}})
    assert code == 2 and "window" in err and "bt" in err
    # a job file that still sets a removed key ("variant", "solver_options")
    # must fail, not be ignored
    for key, value in (("typo_key", 1), ("variant", "left"),
                       ("solver_options", {"tol": 1e-6})):
        code, err = run({**base, "method": "bt", key: value})
        assert code == 2 and key in err
    code, err = run({**base, "method": "bt",
                     "band": {"intervals": [[1, 2]]}})
    assert code == 2  # band only makes sense for flbt
    code, err = run({**base, "method": "bt", "order": {"r": 3}})
    assert code == 2
    code, err = run({**base, "method": "flbt",
                     "band": {"intervals": [[0.01, 0.05]]},
                     "hybrid": {"weird": 1}})
    assert code == 2

    (tmp_path / "bad.json").write_text("{not json")
    assert main(["reduce", "--config", str(tmp_path / "bad.json")]) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("override", [
    {"modified": "false"}, {"order": {"fixed": 2.5}}, {"order": {"fixed": True}},
    {"order": {"fixed": "3"}}, {"gamma": "x"}, {"band": [[1, 2]]}, {"input": 5},
    {"alpha": [1]}, {"alpha": "1"},
    {"method": "tlbt", "band": None, "window": {"t0": [0], "tf": 20}},
    {"order": {"tol": [1]}}, {"band": {"intervals": 5}},
    {"hybrid": {"fmin": "x", "fmax": 10}},
    {"hybrid": {"fmin": 0.5, "fmax": 10, "unit": "Hz"}},
    {"band": {"intervals": [[0.01, 0.05]], "unit": "Hz"}},
    {"alpha": -1}, {"order": {"tol": -1}}, {"order": {"tol": 0}},
    {"hybrid": {"fmin": -1, "fmax": 10}}, {"hybrid": {"fmin": 0.5, "fmax": np.inf}},
    {"hybrid": "abc"}, {"hybrid": {"fmin": 0.5, "fmax": 10, "tol": "x"}},
    {"method": "flbt", "band": None, "window": [0, 1]},
    {"method": "bt"}, {"window": {"t0": 0, "tf": 1}},
    {"hybrid": {"fmin": 0.5, "fmax": 10, "tol": 1}},
    {"method": "bt", "band": None, "gamma": 0.1},
    {"method": "bt", "band": None, "realization": "dissipative", "j": "neg_k"},
], ids=["modified-string", "fixed-float", "fixed-bool", "fixed-string",
        "gamma-string", "band-list", "input-number", "alpha-list",
        "alpha-string", "window-t0-list", "tol-list", "intervals-number",
        "hybrid-fmin-string", "hybrid-unit-Hz", "band-unit-Hz",
        "alpha-negative", "tol-negative", "tol-zero", "hybrid-fmin-negative",
        "hybrid-fmax-infinite", "hybrid-string", "hybrid-tol-string",
        "window-list", "band-with-bt", "window-with-flbt", "hybrid-tol-one",
        "gamma-with-companion", "j-with-dissipative"])
def test_reduce_config_value_of_wrong_type(tmp_path, capfd, override):
    # a value of the wrong JSON type or out of range, or a unit other than
    # "hz" and "rad", is a config error: it neither crashes, runs nor is
    # coerced ("false" is a true string, 2.5 would run order 2, "Hz" would
    # read as rad/s, alpha -1 would run unshifted, a hybrid tol of 1 would
    # keep no direction, gamma and j would be ignored); the one line of the
    # error is all that reaches stderr
    model = str(tmp_path / "model")
    main(["generate", "--n", "10", "--out", model])
    cfg = _write_job(tmp_path / "job.json", **{
        "input": model, "output": str(tmp_path / "rom"), **override})
    assert main(["reduce", "--config", str(cfg)]) == 2
    err = capfd.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1
    assert not (tmp_path / "rom").exists()


def test_readme_lists_every_config_key():
    # the names back-ticked in the first column of the README's
    # "Recognized keys" table are exactly the keys a job file may set
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = readme.split("Recognized keys", 1)[1].split("\n\n")[1].splitlines()
    listed = [name for row in rows
              for name in re.findall(r"`([^`]+)`", row.split("|")[1])]
    assert sorted(listed) == sorted(cli._CONFIG_KEYS)


def test_reduce_numerical_failure_exit_code(tmp_path, capsys):
    # flbt needs a c-stable model; negative damping puts poles in the right
    # half plane, which is a numerical (exit 3), not a config, failure.
    runaway = slt.make_second_order(np.eye(2), -2.0 * np.eye(2), np.eye(2),
                                    np.ones((2, 1)), np.ones((1, 2)),
                                    np.zeros((1, 2)))
    slt.save_bundle(tmp_path / "bad_model", runaway)
    job = {"input": str(tmp_path / "bad_model"),
           "output": str(tmp_path / "rom"), "method": "flbt",
           "band": {"intervals": [[0.01, 0.05]]}}
    (tmp_path / "job.json").write_text(json.dumps(job))
    assert main(["reduce", "--config", str(tmp_path / "job.json")]) == 3
    assert "numerical failure" in capsys.readouterr().err


ERROR_TYPES = [c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, errors.SolimbtError)]
LEAF_ERRORS = [c for c in ERROR_TYPES
               if not any(c in d.__bases__ for d in ERROR_TYPES)]


@pytest.mark.parametrize("exc", LEAF_ERRORS, ids=lambda c: c.__name__)
def test_reduce_exit_code_per_error_type(tmp_path, monkeypatch, capsys, exc):
    # every concrete error maps to exit 2 (config) or 3 (numerical)
    model = str(tmp_path / "model")
    main(["generate", "--n", "4", "--out", model])
    cfg = _write_job(tmp_path / "job.json", input=model,
                     output=str(tmp_path / "rom"))

    def fail(*args, **kwargs):
        raise exc("injected failure")

    monkeypatch.setattr(pipeline, "reduce", fail)
    assert main(["reduce", "--config", str(cfg)]) == \
        (2 if exc.category == "config" else 3)
    assert "injected failure" in capsys.readouterr().err


# ------------------------------------------------------------------- analyze

def test_analyze(tmp_path, capsys):
    model = str(tmp_path / "model")
    main(["generate", "--n", "12", "--out", model])
    cfg = _write_job(tmp_path / "job.json", input=model,
                     output=str(tmp_path / "rom"))
    main(["reduce", "--config", str(cfg)])
    capsys.readouterr()

    csv = tmp_path / "err.csv"
    summary = tmp_path / "err.json"
    code = main(["analyze", "--original", model, "--reduced",
                 str(tmp_path / "rom"), "--fmin", "0.001", "--fmax", "1",
                 "--points", "40", "--band", "0.01,0.05",
                 "--out", str(csv), "--summary", str(summary)])
    assert code == 0
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "omega_rad_s,orig_norm,abs_err,rel_err"
    assert len(lines) == 41
    data = json.loads(summary.read_text())
    assert data["points"] == 40
    assert data["skipped"] == []
    assert data["local_max_abs"] is not None
    assert data["local_max_abs"] <= data["global_max_abs"]
    assert isinstance(data["local_max_rel"], float)
    # stdout carries the same summary
    assert json.loads(capsys.readouterr().out)["points"] == 40


# ------------------------------------------------------------------ simulate

def test_simulate_basic(tmp_path, capsys):
    model = str(tmp_path / "model")
    main(["generate", "--n", "6", "--out", model])
    capsys.readouterr()
    csv = tmp_path / "traj.csv"
    code = main(["simulate", "--model", model, "--tf", "10", "--dt", "0.1",
                 "--out", str(csv)])
    assert code == 0
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "t_s,y_1,y_2,y_3"
    assert len(lines) == 102  # 101 samples + header
    assert json.loads(capsys.readouterr().out) == {"outputs": 3, "points": 101}


def test_simulate_reference(tmp_path, monkeypatch):
    model = str(tmp_path / "model")
    main(["generate", "--n", "8", "--out", model])
    cfg = _write_job(tmp_path / "job.json", input=model,
                     output=str(tmp_path / "rom"))
    main(["reduce", "--config", str(cfg)])

    # each model is simulated once
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return slt.simulate(*args, **kwargs)

    for module in (cli, pipeline):
        monkeypatch.setattr(module, "simulate", counted)
    csv = tmp_path / "err.csv"
    summary = tmp_path / "err.json"
    code = main(["simulate", "--model", str(tmp_path / "rom"),
                 "--reference", model, "--signal", "sin", "--omega", "0.2",
                 "--tf", "20", "--dt", "0.1", "--window", "0,10",
                 "--out", str(csv), "--summary", str(summary)])
    assert code == 0
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "t_s,y_1,y_2,y_3,abs_err,rel_err"
    # at t = 0 both models are at rest: relative error column is empty
    assert lines[1].endswith(",")
    data = json.loads(summary.read_text())
    assert data["local_max_abs"] <= data["global_max_abs"]
    assert len(calls) == 2


def test_simulate_divergence_exit_code(tmp_path, capsys):
    runaway = slt.make_second_order(np.eye(2), -2.0 * np.eye(2), np.eye(2),
                                    np.ones((2, 1)), np.ones((1, 2)),
                                    np.zeros((1, 2)))
    slt.save_bundle(tmp_path / "model", runaway)
    summary = tmp_path / "sum.json"
    code = main(["simulate", "--model", str(tmp_path / "model"),
                 "--tf", "800", "--dt", "0.5",
                 "--out", str(tmp_path / "traj.csv"),
                 "--summary", str(summary)])
    assert code == 3
    data = json.loads(summary.read_text())
    assert data["diverged"] is True
    assert data["global_max_abs"] == "inf"
    assert json.loads(capsys.readouterr().err)["diverged"] is True


# ------------------------------------------------------------------- general

def test_argparse_exit_codes():
    assert main(["simulate"]) == 2       # missing required arguments
    assert main(["no-such-command"]) == 2
    assert main(["generate", "-h"]) == 0


def test_main_builds_the_parser_once_and_dispatches_per_call(tmp_path, monkeypatch):
    # the first call builds the parser and later calls reuse it; the handler
    # is looked up by sub-command name per call, so one rebound after the
    # first call (as a tracer or a test rebinds cli.cmd_*) is the one that runs
    monkeypatch.setattr(cli, "_parser", None)
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    model = str(tmp_path / "m")
    assert main(["generate", "--n", "4", "--out", model]) == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_generate", lambda args: seen.append(args.n) or 7)
    assert main(["generate", "--n", "5", "--out", model]) == 7
    assert main(["no-such-command"]) == 2
    assert len(built) == 1 and seen == [5]


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "solimbt.cli", "generate", "--n", "4",
         "--out", str(tmp_path / "m")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "wrote chain model" in proc.stdout
