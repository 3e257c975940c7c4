"""The four benchmark workloads and the output checks run on every job.

A workload builds its input from the seed (:meth:`Workload.setup`) and then
runs jobs on it (:meth:`Workload.job`).  A job is a closed-loop unit of user
work: reduce a model and validate the ROMs against the original.  Every
operation of a job (one reduce, one report or one CLI command) is counted;
it fails if it raises, returns non-finite output, exits nonzero or fails an
output check.  Thresholds are those of acceptance criteria 06, 07 and 12.
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
import time
import types
from dataclasses import dataclass, field

import numpy as np
import scipy.io
import scipy.sparse

import solimbt as slt
from solimbt import cli

TWO_PI = 2.0 * np.pi
BAND = slt.FrequencyBand.from_hz([(1.0, 100.0)])
WINDOW = slt.TimeWindow(0.0, 20.0)
SWEEP = (TWO_PI * 0.01, TWO_PI * 1000.0)
METHODS = ("bt", "flbt", "tlbt")
SINE = slt.SineSignal(omega=1.0, onset=5.0)
SIM_GRID = np.arange(0.0, 100.0 + 0.025, 0.05)  # 2001 samples
MAX_TLBT_ORDER = 10
MAX_INBAND_REL = 1e-2


def chain(n, seed):
    """Mass-spring-damper chain; the seed scales every mass and every
    coupling stiffness and damping by a factor in [0.8, 1.2]."""
    rng = np.random.default_rng(seed)
    return slt.generate_chain(
        n, masses=100.0 * rng.uniform(0.8, 1.2, n),
        coupling_stiffness=2.0 * rng.uniform(0.8, 1.2, n - 1),
        coupling_damping=5.0 * rng.uniform(0.8, 1.2, n - 1))


def system_digest(sys):
    h = hashlib.blake2b(digest_size=16)
    for A in (sys.M, sys.E, sys.K, sys.B_u, sys.C_p, sys.C_v):
        h.update(np.ascontiguousarray(A).tobytes())
    return h.hexdigest()


@dataclass
class Rom:
    label: str
    op: str  # the operation that produced it
    digest: str
    order: int
    stable: bool
    err: float | None = None  # in-band, in-window or global relative error


@dataclass
class JobResult:
    """Timings, ROMs and operation outcomes of one job."""

    reduce_s: float = 0.0
    validate_s: float = 0.0
    roms: dict = field(default_factory=dict)
    attempted: int = 0
    failures: dict = field(default_factory=dict)  # operation -> reason

    @property
    def failed(self):
        return len(self.failures)

    def op(self, label, stage, fn, *args, **kwargs):
        """Run one operation, time it into ``stage`` and record a failure."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # any exception is a failed operation
            self.fail(label, f"{type(exc).__name__}: {exc}")
            return None
        finally:
            setattr(self, stage, getattr(self, stage) + time.perf_counter() - t0)

    def fail(self, label, reason):
        self.failures.setdefault(label, reason)

    def check(self, label, ok, reason):
        if not ok:
            self.fail(label, reason)

    def add_rom(self, label, op, sys, order, stable):
        finite = all(np.all(np.isfinite(A)) for A in
                     (sys.M, sys.E, sys.K, sys.B_u, sys.C_p, sys.C_v))
        self.check(op, finite, "ROM has non-finite entries")
        self.roms[label] = Rom(label, op, system_digest(sys), int(order), bool(stable))
        return self.roms[label]

    def set_err(self, rom, label, value):
        if value is None or not np.isfinite(value):
            self.fail(label, f"non-finite error {value}")
        elif rom.stable:
            rom.err = max(rom.err or 0.0, float(value))

    def rom_err(self):
        errs = [r.err for r in self.roms.values() if r.err is not None]
        return max(errs) if errs else None


def check_flbt(res, label, rep):
    """Criterion 06 on a stable band-limited ROM."""
    if not rep.rom_stable:
        return
    res.check(label, rep.local_max_rel is not None
              and rep.local_max_rel <= MAX_INBAND_REL
              and rep.local_max_rel <= 0.1 * rep.global_max_rel,
              f"in-band {rep.local_max_rel} vs global {rep.global_max_rel}")


class Workload:
    name = ""
    n = 0
    why = ""

    def setup(self, seed, workdir, n=None):
        """Build the job input from the seed; returns the context of a job."""
        return chain(n or self.n, seed)

    def job(self, ctx):
        raise NotImplementedError


class ReduceSweep(Workload):
    """``reduce`` with bt, flbt and tlbt, each ROM followed by a sweep."""

    realization = "companion"
    solver = "sign"

    def job(self, model):
        res = JobResult()
        for method in METHODS:
            cfg = slt.ReductionConfig(
                method=method, formula="pv",
                band=BAND if method == "flbt" else None,
                window=WINDOW if method == "tlbt" else None,
                realization=self.realization, solver=self.solver)
            label = f"reduce:{method}"
            out = res.op(label, "reduce_s", slt.reduce, model, cfg)
            if out is None:
                continue
            rom = res.add_rom(method, label, out.system, out.r, out.stable)
            if method == "tlbt":
                res.check(label, out.r <= MAX_TLBT_ORDER, f"tlbt order {out.r}")
            band = BAND if method == "flbt" else None
            label = f"sweep:{method}"
            rep = res.op(label, "validate_s", slt.frequency_error_report,
                         model, out, *SWEEP, 100, band=band)
            if rep is None:
                continue
            res.set_err(rom, label, rep.local_max_rel if band else rep.global_max_rel)
            if method == "flbt":
                check_flbt(res, label, rep)
        return res


class ReduceN300(ReduceSweep):
    name = "reduce-n300"
    n = 300
    why = ("n=300 chain, bt/flbt/tlbt via the sign solver: the dense O(N^3) "
           "Gramian stage (matfun, lyapunov) does most of the work")


class KrylovN300(ReduceSweep):
    name = "krylov-n300"
    n = 300
    realization = "dissipative"
    solver = "projection"
    why = ("n=300 chain, strictly dissipative realization and rational-Krylov "
           "projection solver instead of the sign iteration")


class ValidateN300(Workload):
    name = "validate-n300"
    n = 300
    why = ("one tlbt Gramian pair, 8 formulas, each ROM swept and simulated: "
           "the response path (eval_transfer, simulate, reports) dominates")

    def job(self, model):
        res = JobResult()
        J = np.eye(model.n)

        def gramian_parts():
            real = slt.first_companion(model)
            return slt.partition(slt.time_limited_gramians(real, WINDOW), model.n)

        parts = res.op("gramians", "reduce_s", gramian_parts)
        if parts is None:
            return res

        def project(formula):
            bal = slt.second_order_projectors(parts, J, model.M, formula)
            if formula == "so":
                return slt.so_reconstruct(model, J, bal), bal.r
            return slt.apply_projection(model, bal.W, bal.T), bal.r

        for formula in slt.FORMULAS:
            label = f"project:{formula}"
            out = res.op(label, "reduce_s", project, formula)
            if out is None:
                continue
            sys, r = out
            res.check(label, r <= MAX_TLBT_ORDER, f"tlbt order {r}")
            label = f"sweep:{formula}"
            rep = res.op(label, "validate_s", slt.frequency_error_report,
                         model, sys, *SWEEP, 200)
            stable = rep.rom_stable if rep is not None else False
            rom = res.add_rom(formula, f"project:{formula}", sys, r, stable)
            if rep is not None:
                res.set_err(rom, label, rep.global_max_rel)
            label = f"simulate:{formula}"
            rep = res.op(label, "validate_s", slt.time_error_report,
                         model, sys, SINE, SIM_GRID, window=WINDOW)
            if rep is None:
                continue
            res.set_err(rom, label, rep.local_max_rel)
            if stable:
                res.check(label, rep.local_max_abs <= rep.global_max_abs,
                          f"in-window {rep.local_max_abs} > global {rep.global_max_abs}")
        return res


def read_bundle(directory):
    """The matrices of a bundle, read without going through solimbt, so the
    check adds no calls to the layers it measures."""
    mats = {}
    for key, attr in (("M", "M"), ("E", "E"), ("K", "K"), ("B", "B_u"),
                      ("Cp", "C_p"), ("Cv", "C_v")):
        A = scipy.io.mmread(os.path.join(directory, key + ".mtx"))
        mats[attr] = A.toarray() if scipy.sparse.issparse(A) else np.asarray(A)
    return types.SimpleNamespace(**mats)


@dataclass
class CliPaths:
    bundle: str
    config: str
    rom: str
    csv: str
    summary: str


class CliHybridN1200(Workload):
    name = "cli-hybrid-n1200"
    n = 1200
    why = ("n=1200 bundle through the CLI with hybrid pre-reduction: mmio, "
           "dense shifted solves at n=1200 and the sweep dominate")

    def setup(self, seed, workdir, n=None):
        os.makedirs(workdir, exist_ok=True)
        p = CliPaths(*(os.path.join(workdir, f) for f in
                       ("model", "job.json", "rom", "err.csv", "err.json")))
        slt.save_bundle(p.bundle, chain(n or self.n, seed), name="chain")
        job = {"input": p.bundle, "output": p.rom, "method": "flbt",
               "formula": "pv", "band": {"intervals": [[1.0, 100.0]], "unit": "hz"},
               "hybrid": {"points": 20, "fmin": 0.5, "fmax": 200.0, "unit": "hz"}}
        with open(p.config, "w") as fh:
            json.dump(job, fh)
        return p

    def job(self, p):
        res = JobResult()
        shutil.rmtree(p.rom, ignore_errors=True)
        for f in (p.csv, p.summary):
            if os.path.exists(f):
                os.remove(f)

        def run(*argv):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main(list(argv))
            if code != 0:
                raise RuntimeError(f"exit code {code}: {err.getvalue().strip()}")
            return code

        if res.op("cli:reduce", "reduce_s", run, "reduce", "--config", p.config) == 0:
            try:
                with open(os.path.join(p.rom, "report.json")) as fh:
                    report = json.load(fh)
                rom_sys = read_bundle(p.rom)
            except (OSError, ValueError) as exc:
                res.fail("cli:reduce", f"unreadable output: {exc}")
            else:
                res.add_rom("hybrid", "cli:reduce", rom_sys, report["rom_order"],
                            report["stable"])
        label = "cli:analyze"
        if res.op(label, "validate_s", run, "analyze", "--original", p.bundle,
                  "--reduced", p.rom, "--fmin", "1", "--fmax", "100",
                  "--points", "100", "--band", "1,100", "--out", p.csv,
                  "--summary", p.summary) == 0:
            try:
                with open(p.summary) as fh:
                    summary = json.load(fh)
            except (OSError, ValueError) as exc:
                res.fail(label, f"unreadable err.json: {exc}")
            else:
                rel = summary.get("local_max_rel")
                rom = res.roms.get("hybrid")
                if rom is not None:
                    res.set_err(rom, label, rel)
                res.check(label, isinstance(rel, float) and rel <= MAX_INBAND_REL,
                          f"in-band {rel}")
        return res


WORKLOADS = {w.name: w for w in (ReduceN300(), ValidateN300(),
                                 CliHybridN1200(), KrylovN300())}
