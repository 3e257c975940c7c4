"""solimbt benchmark: time to a validated reduced-order model (ROM).

Run from the repository root::

    python3 bench/run.py --workload reduce-n300 --seed 0 --seconds 38 --trace 0
    python3 bench/run.py --workload all --seed 0

``--workload`` is one of ``reduce-n300``, ``validate-n300``,
``cli-hybrid-n1200``, ``krylov-n300`` or ``all`` (each workload in its own
process, one after the other).  ``BENCHMARK.json`` times the first three.  The seed perturbs the generated chain model;
the program sees only the model.  Jobs run in a closed loop with one client
for about ``--seconds`` seconds after setup.  With ``--trace 0`` the run
reports the end-to-end metrics; with ``--trace 1`` it alternates untraced
and traced jobs and reports the per-layer metrics instead.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  BLAS runs single-threaded and
``SOLIMBT_THREADS`` is pinned to 1.
"""

import argparse
import collections
import dataclasses
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

# the workloads BENCHMARK.json times; krylov-n300 runs only when named, so
# that a timed run of every workload fits the run budget at a steady length
WORKLOAD_NAMES = ("reduce-n300", "validate-n300", "cli-hybrid-n1200")
ALL_WORKLOADS = WORKLOAD_NAMES + ("krylov-n300",)
SETUP_REPEATS = 3
WARMUP_N = 60  # chain size of the warm-up job run during setup
WORK_DIR = ".bench_work"

END_TO_END_UNITS = {"job_s": "s", "reduce_s": "s", "validate_s": "s",
                    "setup_s": "s", "peak_rss_mb": "MB", "rom_order": "count"}


PER_LAYER_EXTRAS = ("trace.overhead_s", "warnings.count", "warnings.deprecation",
                    "machine.gemm_gflops")


def per_layer_names():
    from tracing import Tracer, job_metrics

    return list(job_metrics(Tracer(), 0, 0.0)) + list(PER_LAYER_EXTRAS)


def per_layer_unit(name):
    if name.endswith("gflops"):
        return "Gflop/s"
    if name.endswith(".gflop"):
        return "Gflop"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith("unique_frac"):
        return "1"
    if name == "mmio.bytes":
        return "B"
    return "count"


def prepare(root):
    """Pin thread counts and put the checkout's ``src`` first on the path.

    Must run before numpy is imported.  Returns False when the checkout has
    no solimbt source to benchmark.
    """
    src = root / "src"
    if not (src / "solimbt" / "__init__.py").is_file():
        return False
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "SOLIMBT_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    return True


@dataclasses.dataclass
class JobRecord:
    job_s: float
    res: object  # workloads.JobResult
    warnings: list
    layer: dict | None = None  # per-layer metrics of a traced job


def run_job(wl, ctx, caught, tracer=None, job_id=0):
    """One job, timed; warnings raised during it are sliced off ``caught``."""
    from tracing import job_metrics

    n0 = len(caught)
    if tracer is None:
        t0 = time.perf_counter()
        res = wl.job(ctx)
        job_s = time.perf_counter() - t0
        return JobRecord(job_s, res, caught[n0:])
    with tracer:
        tracer.start_job(job_id)
        t0 = time.perf_counter()
        res = wl.job(ctx)
        job_s = time.perf_counter() - t0
    return JobRecord(job_s, res, caught[n0:], job_metrics(tracer, job_id, job_s))


def setup(wl, seed, workdir):
    """Model generation, bundle writes and a warm-up job on a small chain,
    repeated; returns the job context, the setup times and the warm-up result."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ctx = wl.setup(seed, workdir)
        warm = wl.job(wl.setup(seed, workdir / "warmup", n=WARMUP_N))
        times.append(time.perf_counter() - t0)
    return ctx, times, warm


def measure(wl, ctx, seconds, caught, tracer=None):
    """Closed loop for about ``seconds``: a job (or, when tracing, an untraced
    and a traced job) starts only if its expected time still fits."""
    plain, traced = [], []
    t_start = time.perf_counter()
    while True:
        plain.append(run_job(wl, ctx, caught))
        if tracer is not None:
            traced.append(run_job(wl, ctx, caught, tracer, len(traced)))
        elapsed = time.perf_counter() - t_start
        if elapsed + elapsed / len(plain) > seconds:
            break
    return plain, traced


def check_identical(jobs):
    """Every job must return ROM matrices bit-identical to the first job's."""
    first = jobs[0].res.roms
    for rec in jobs[1:]:
        for label, rom in rec.res.roms.items():
            ref = first.get(label)
            if ref is None or ref.digest != rom.digest:
                rec.res.fail(rom.op, f"ROM {label} differs from the first job's")


def high_percentile(samples):
    """Highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    fits = [p for p in (50.0, 90.0, 99.0, 99.9) if len(samples) * (1.0 - p / 100.0) >= 10]
    if not fits:
        return None
    q = statistics.quantiles(samples, n=1000, method="inclusive")
    return fits[-1], q[int(round(fits[-1] * 10)) - 1]


def module_of(filename):
    for name, mod in list(sys.modules.items()):
        if getattr(mod, "__file__", None) == filename:
            return name
    return os.path.basename(filename)


def warning_summary(caught):
    counts = collections.Counter()
    first = {}
    for w in caught:
        key = (w.category.__name__, module_of(w.filename))
        counts[key] += 1
        first.setdefault(key, str(w.message))
    return [{"category": c, "module": m, "count": n, "first": first[(c, m)]}
            for (c, m), n in sorted(counts.items())]


def run_workload(name, seed, seconds, trace, root):
    import machine
    import tracing
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    workdir = root / WORK_DIR / f"{name}-{os.getpid()}"
    with warnings.catch_warnings(record=True) as caught:
        # record every warning, also those Python hides by default, so each
        # one is counted; they are reported on stderr, never raised
        warnings.simplefilter("always")
        try:
            gemm = machine.gemm_gflops()
            ctx, setup_times, warm = setup(wl, seed, workdir)
            tracer = tracing.Tracer() if trace else None
            plain, traced = measure(wl, ctx, seconds, caught, tracer)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    jobs = plain + traced
    check_identical(jobs)

    job_s = [j.job_s for j in plain]
    attempted = sum(j.res.attempted for j in jobs)
    failed = sum(j.res.failed for j in jobs)
    orders = [sum(r.order for r in j.res.roms.values()) for j in plain]
    errs = [e for e in (j.res.rom_err() for j in plain) if e is not None]
    info = {
        "workload": name, "seed": seed, "why": wl.why,
        "jobs": len(plain), "traced_jobs": len(traced),
        "job_s_samples": job_s,
        "job_s_high_percentile": high_percentile(job_s),
        "setup_s_samples": setup_times,
        "rom_err": max(errs) if errs else None,
        "unstable_roms": statistics.median(
            sum(not r.stable for r in j.res.roms.values()) for j in plain),
        "error_rate": failed / attempted if attempted else 1.0,
        "failures": sorted({f"{k}: {v}" for j in jobs for k, v in j.res.failures.items()}),
        "warmup_failures": sorted(f"{k}: {v}" for k, v in warm.failures.items()),
        "warnings": warning_summary(caught),
        "environment": {**machine.environment(), "machine.gemm_gflops": gemm},
    }
    if trace:
        layer = {k: statistics.median(j.layer[k] for j in traced)
                 for k in traced[0].layer}
        layer["trace.overhead_s"] = (statistics.median(j.job_s for j in traced)
                                     - statistics.median(job_s))
        layer["warnings.count"] = statistics.median(len(j.warnings) for j in jobs)
        layer["warnings.deprecation"] = statistics.median(
            sum(issubclass(w.category, DeprecationWarning) for w in j.warnings)
            for j in jobs)
        layer["machine.gemm_gflops"] = gemm
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in layer.items()}
        write_spans(root / WORK_DIR / f"spans-{name}-seed{seed}.jsonl", tracer)
    else:
        values = {
            "job_s": statistics.median(job_s),
            "reduce_s": statistics.median(j.res.reduce_s for j in plain),
            "validate_s": statistics.median(j.res.validate_s for j in plain),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "rom_order": statistics.median(orders),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    for w in info["warnings"]:
        print(f"warning x{w['count']}: {w['category']} from {w['module']}: {w['first']}",
              file=sys.stderr)
    return {"correct": failed == 0 and bool(jobs), "attempted": attempted,
            "failed": failed, "metrics": metrics}, info


def write_spans(path, tracer):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for i, s in enumerate(tracer.spans):
            fh.write(json.dumps({"id": i, "name": s.name, "layer": s.layer,
                                 "job": s.job, "parent": s.parent, "start": s.start,
                                 "end": s.end, "counts": s.counts}) + "\n")


def print_report(result, info):
    print(json.dumps({"info": info}, default=str))
    print(f"{info['workload']} (seed {info['seed']}): {info['jobs']} jobs, "
          f"closed loop, 1 client; {result['attempted']} operations, "
          f"{result['failed']} failed (error_rate {info['error_rate']:.4g})")
    for k, m in result["metrics"].items():
        print(f"  {k:44s} {m['value']:.6g} {m['unit']}")
    print(f"  rom_err {info['rom_err']}, unstable_roms {info['unstable_roms']}, "
          f"job_s over {len(info['job_s_samples'])} samples, high percentile "
          f"{info['job_s_high_percentile'] or 'none (fewer than 10 samples beyond p50)'}")
    for f in info["failures"]:
        print(f"  FAILED {f}")
    for f in info["warmup_failures"]:
        print(f"  warm-up job FAILED {f}")
    print("  output checks: " + ("all passed" if result["correct"] else "FAILED"))


def run_all(args):
    """Every workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in ALL_WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, m in res["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=ALL_WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=38.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    root = Path.cwd()
    if not prepare(root):
        print(f"no solimbt source under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result, info = run_workload(args.workload, args.seed, args.seconds, args.trace, root)
    print_report(result, info)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
