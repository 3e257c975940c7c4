"""Self-tests of the benchmark harness.  Run from the repository root::

    python3 bench/selftest.py

(a) Slowed stage: traced reduce-n300 jobs alternate with jobs in which
    ``matfun.expm`` is wrapped with a fixed added delay.  The delay must
    show up in the median self time of ``matfun.expm`` and in no other
    span's median self time beyond noise.
(b) Same counts: traced jobs on the same seed record identical counts
    (calls, points, steps, iterations, ranks, dimensions, orders); on
    validate-n300 both ``unique_frac`` values are 9/16.
(c) ``BENCHMARK.json`` names exactly the workloads and metrics that
    ``run.py`` prints, with the same units.

Exits nonzero and lists the failures when a test fails.
"""

import collections
import functools
import json
import statistics
import sys
import time
from pathlib import Path

import run

DELAY_S = 1.0
REPEATS = 3  # plain and slowed jobs each
# a span's median self time may move by this much without the delay
NOISE_S = 0.2
NOISE_FRAC = 0.2


def traced_job(wl, ctx, tracer, job):
    rec = run.run_job(wl, ctx, [], tracer, job)
    spans = tracer.job_spans(job)
    own = tracer.self_times(spans)
    by_name = collections.defaultdict(float)
    for s in spans:
        by_name[s.name] += own[id(s)]
    counts = [(s.name, sorted(s.counts.items())) for s in spans]
    return rec, dict(by_name), counts


def slowed_stage(failures):
    import tracing
    from solimbt import matfun
    from workloads import WORKLOADS

    wl = WORKLOADS["reduce-n300"]
    ctx = wl.setup(0, None)
    wl.job(wl.setup(0, None, n=run.WARMUP_N))
    tracer = tracing.Tracer()
    original = matfun.expm

    @functools.wraps(original)
    def slowed(*args, **kwargs):
        time.sleep(DELAY_S)
        return original(*args, **kwargs)

    # interleave plain and slowed jobs so a drift in machine speed hits both
    own = {"plain": [], "slowed": []}
    counts = []
    for job in range(2 * REPEATS):
        kind = "slowed" if job % 2 else "plain"
        if kind == "slowed":
            tracing.rebind(original, slowed)
        try:
            _, by_name, job_counts = traced_job(wl, ctx, tracer, job)
        finally:
            if kind == "slowed":
                tracing.rebind(slowed, original)
        own[kind].append(by_name)
        counts.append(job_counts)

    def median(kind, name):
        return statistics.median(j.get(name, 0.0) for j in own[kind])

    calls = sum(1 for name, _ in counts[0] if name == "matfun.expm")
    for name in sorted(set().union(*own["plain"], *own["slowed"])):
        ref = median("plain", name)
        delta = median("slowed", name) - ref
        if name == "matfun.expm":
            want = DELAY_S * calls
            print(f"(a) {name}: self time +{delta:.3f} s for {calls} slowed call(s)")
            if calls == 0 or abs(delta - want) > NOISE_S:
                failures.append(f"(a) {name} self time moved {delta:.3f} s, "
                                f"expected {want:.3f} s")
        elif abs(delta) > NOISE_S + NOISE_FRAC * ref:
            failures.append(f"(a) {name} self time moved {delta:+.3f} s from {ref:.3f} s")
    same = all(c == counts[0] for c in counts)
    if not same:
        failures.append("(b) reduce-n300: counts differ between traced jobs")
    print(f"(b) reduce-n300: {len(counts)} jobs of {len(counts[0])} spans, counts "
          + ("identical" if same else "DIFFER"))


def same_counts(failures):
    import tracing
    from workloads import WORKLOADS

    wl = WORKLOADS["validate-n300"]
    tracer = tracing.Tracer()
    runs = []
    for job in range(2):
        ctx = wl.setup(0, None)
        rec, _, counts = traced_job(wl, ctx, tracer, job)
        runs.append(counts)
        for key in ("system.simulate.unique_frac", "system.eval_transfer.unique_frac"):
            if rec.layer[key] != 9 / 16:
                failures.append(f"(b) validate-n300 {key} = {rec.layer[key]}, expected 0.5625")
    if runs[0] != runs[1]:
        failures.append("(b) validate-n300: counts differ between traced jobs")
    print(f"(b) validate-n300: {len(runs[0])} spans, counts "
          + ("identical" if runs[0] == runs[1] else "DIFFER"))


def benchmark_file(root, failures):
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOAD_NAMES):
        failures.append("(c) workloads differ from run.WORKLOAD_NAMES")
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if e2e != run.END_TO_END_UNITS:
        failures.append("(c) end_to_end metrics differ from run.END_TO_END_UNITS")
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    want = {name: run.per_layer_unit(name) for name in run.per_layer_names()}
    if layer != want:
        diff = sorted(set(layer.items()) ^ set(want.items()))
        failures.append(f"(c) per_layer metrics differ from run.py: {diff}")
    print(f"(c) BENCHMARK.json: {len(e2e)} end-to-end and {len(layer)} per-layer metrics")


def main():
    root = Path.cwd()
    if not run.prepare(root):
        print("run from the repository root", file=sys.stderr)
        return 2
    failures = []
    benchmark_file(root, failures)
    slowed_stage(failures)
    same_counts(failures)
    for f in failures:
        print("FAILED", f)
    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
