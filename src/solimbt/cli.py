"""Command line driver.

Four subcommands: ``generate`` (benchmark model bundles), ``reduce``
(config-file driven reduction), ``analyze`` (frequency-domain error sweep)
and ``simulate`` (time-domain response, optionally against a reference
model).  Exit codes: 0 success, 2 configuration problem, 3 numerical
failure.
"""

import argparse
import json
import numbers
import sys as _sys
import time

import numpy as np

from . import pipeline
from .errors import ConfigCategory, InvalidParams, NonFiniteState, SolimbtError
from .matfun import TWO_PI, FrequencyBand, TimeWindow
from .mmio import load_bundle, save_bundle
from .system import SineSignal, StepSignal, generate_chain, simulate


def _json_safe(x):
    """``x`` as JSON data, item by item: a numpy array or tuple as a list, and
    ``"inf"``, ``"-inf"`` or ``"nan"`` for a non-finite float."""
    if isinstance(x, (np.ndarray, np.generic)):
        x = x.tolist()
    if isinstance(x, dict):
        return {key: _json_safe(value) for key, value in x.items()}
    if isinstance(x, (list, tuple)):
        return [_json_safe(item) for item in x]
    if isinstance(x, float) and not np.isfinite(x):
        return "inf" if x > 0 else ("-inf" if x < 0 else "nan")
    return x


def _fmt(x):
    """A float as a CSV field: all 17 significant digits, or as :func:`_json_safe`."""
    x = _json_safe(x)
    return x if isinstance(x, str) else f"{x:.17g}"


def _report_summary(report, **extra):
    """The global and local maxima of an ``ErrorReport``, JSON-safe, and ``extra``."""
    return {**{key: _json_safe(getattr(report, key))
               for key in ("global_max_abs", "global_max_rel",
                           "local_max_abs", "local_max_rel")}, **extra}


def _parse_intervals(text):
    out = []
    for part in text.split(";"):
        lo, hi = part.split(",")
        out.append((float(lo), float(hi)))
    return out


def _unit_scale(unit):
    """rad/s per unit of frequency, for the units ``hz`` and ``rad``."""
    if unit not in ("hz", "rad"):
        raise InvalidParams(f"unknown frequency unit {unit!r}")
    return TWO_PI if unit == "hz" else 1.0


def _band_from(intervals, unit):
    scale = _unit_scale(unit)
    return FrequencyBand([(scale * lo, scale * hi) for lo, hi in intervals])


def cmd_generate(args):
    sys = generate_chain(
        args.n, masses=args.mass,
        coupling_stiffness=args.coupling_stiffness,
        coupling_damping=args.coupling_damping)
    save_bundle(args.out, sys, name=args.name)
    print(f"wrote chain model n={args.n} to {args.out}")
    return 0


# job keys passed to ``ReductionConfig`` as they are; an absent key keeps
# the field's default
_CONFIG_FIELDS = ("method", "formula", "alpha", "realization", "j", "gamma",
                  "solver", "modified")
_CONFIG_KEYS = {"input", "output", "name", "band", "window", "order", "hybrid",
                *_CONFIG_FIELDS}
_parser = None  # main's argument parser, built by its first call


def _number(value, key, kind=numbers.Real):
    """``value`` if it is a JSON number of ``kind``; a bool, string or list
    is a config error, not coerced."""
    if isinstance(value, bool) or not isinstance(value, kind):
        what = "an integer" if kind is numbers.Integral else "a number"
        raise InvalidParams(f"config value {key!r} must be {what}, got {value!r}")
    return value


def _load_job(path):
    with open(path) as fh:
        job = json.load(fh)
    if not isinstance(job, dict):
        raise InvalidParams("job config must be a JSON object")
    for key in job:
        if key not in _CONFIG_KEYS:
            raise InvalidParams(f"unknown config key {key!r}")
    for key in ("input", "output", "method"):
        if key not in job:
            raise InvalidParams(f"missing config key {key!r}")
    for key in ("band", "window", "order", "hybrid"):
        if not isinstance(job.get(key, {}), dict):
            raise InvalidParams(f"config key {key!r} must be a JSON object")
    for key in ("input", "output", "name"):
        if not isinstance(job.get(key, ""), str):
            raise InvalidParams(f"config key {key!r} must be a string")

    band = window = None
    if "band" in job:
        entry = job["band"]
        ivs = entry["intervals"]
        if not (isinstance(ivs, list)
                and all(isinstance(iv, list) and len(iv) == 2 for iv in ivs)):
            raise InvalidParams(f"config value 'intervals' must be a list of "
                                f"[lo, hi] pairs, got {ivs!r}")
        band = _band_from([[_number(x, "intervals") for x in iv] for iv in ivs],
                          entry.get("unit", "hz"))
    if "window" in job:
        entry = job["window"]
        window = TimeWindow(float(_number(entry["t0"], "t0")),
                            float(_number(entry["tf"], "tf")))

    order = job.get("order", {})
    if not set(order) <= {"tol", "fixed"}:
        raise InvalidParams("config key 'order' accepts only 'tol' or 'fixed'")

    hybrid = None
    if "hybrid" in job:
        h = job["hybrid"]
        if not set(h) <= {"points", "fmin", "fmax", "unit", "tol"}:
            raise InvalidParams("bad key inside 'hybrid'")
        scalefac = _unit_scale(h.get("unit", "hz"))
        lo, hi = (_number(h[key], key) * scalefac for key in ("fmin", "fmax"))
        if not (0.0 < lo < np.inf and 0.0 < hi < np.inf):
            raise InvalidParams(f"hybrid fmin and fmax must be positive and "
                                f"finite, got {h['fmin']!r} and {h['fmax']!r}")
        omegas = np.logspace(np.log10(lo), np.log10(hi),
                             _number(h.get("points", 200), "points", numbers.Integral))
        hybrid = (omegas, h.get("tol", pipeline.HYBRID_TOL))

    config = pipeline.ReductionConfig(
        band=band, window=window, hybrid=hybrid,
        **{key: job[key] for key in _CONFIG_FIELDS if key in job},
        **{name: order[key] for key, name in (("tol", "order_tol"),
                                              ("fixed", "fixed_order"))
           if key in order})
    config.validate()
    return job, config


def cmd_reduce(args):
    job, config = _load_job(args.config)
    sys, name = load_bundle(job["input"])
    t0 = time.perf_counter()
    rom = pipeline.reduce(sys, config)
    wall = time.perf_counter() - t0
    out = job["output"]
    save_bundle(out, rom.system, name=job.get("name", name + "_rom"))
    report = {
        "rom_order": rom.r,
        "stable": rom.stable,
        "formula": rom.formula,
        "method": rom.method,
        "sigma": _json_safe(rom.sigma[:50]),
        "truncated_sum": _json_safe(rom.truncated_tail),
        "timings": {k: round(v, 6) for k, v in rom.details["timings"].items()},
        "gramian_info": _json_safe(rom.details["gramian_info"]),
        "prereduced_order": rom.details.get("prereduced_order"),
        "wall_time_s": round(wall, 6),
    }
    with open(f"{out}/report.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"order {rom.r} ({rom.formula}, {rom.method}), "
          f"stable={rom.stable}, wrote {out}")
    return 0


def _summarize(summary, path, code=0):
    """Write ``summary`` as JSON to ``path`` (if given) and print it, to
    stderr for a failure; returns the exit code."""
    if path:
        with open(path, "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(json.dumps(summary, sort_keys=True),
          file=_sys.stderr if code else _sys.stdout)
    return code


def cmd_analyze(args):
    orig, _ = load_bundle(args.original)
    rom, _ = load_bundle(args.reduced)
    scale = _unit_scale(args.unit)
    band = None
    if args.band:
        band = _band_from(_parse_intervals(args.band), args.unit)
    report = pipeline.frequency_error_report(
        orig, rom, args.fmin * scale, args.fmax * scale, args.points, band=band)
    with open(args.out, "w") as fh:
        fh.write("omega_rad_s,orig_norm,abs_err,rel_err\n")
        for w, on, ae, re_ in zip(report.grid, report.orig_norm,
                                  report.abs_err, report.rel_err):
            rel = "" if not np.isfinite(re_) else _fmt(re_)
            fh.write(f"{_fmt(w)},{_fmt(on)},{_fmt(ae)},{rel}\n")
    summary = _report_summary(report, points=int(report.grid.size),
                              skipped=report.skipped, rom_stable=report.rom_stable)
    return _summarize(summary, args.summary)


def _signal_from(args):
    if args.signal == "step":
        return StepSignal(amplitude=args.amplitude, onset=args.onset)
    return SineSignal(amplitude=args.amplitude, omega=args.omega,
                      onset=args.onset, offset=args.offset)


def cmd_simulate(args):
    sys, _ = load_bundle(args.model)
    ref = load_bundle(args.reference)[0] if args.reference else None
    signal = _signal_from(args)
    t = np.arange(0.0, args.tf + 0.5 * args.dt, args.dt) + args.t0
    window = None
    if args.window:
        lo, hi = args.window.split(",")
        window = TimeWindow(float(lo), float(hi))

    try:
        ref_traj = simulate(ref, signal, t) if ref is not None else None
        traj = simulate(sys, signal, t)
    except NonFiniteState:
        summary = {"global_max_abs": "inf", "diverged": True}
        if ref is not None:
            summary.update(global_max_rel="inf", local_max_abs="inf",
                           local_max_rel="inf")
        return _summarize(summary, args.summary, code=3)
    heads = [f"y_{i+1}" for i in range(traj.outputs.shape[1])]
    if ref is None:
        cols = []
        summary = {"outputs": traj.outputs.shape[1], "points": int(t.size)}
    else:
        report = pipeline.trajectory_errors(ref_traj, traj, window=window)
        heads += ["abs_err", "rel_err"]
        rel = [_fmt(x) if np.isfinite(x) else "" for x in report.rel_err]
        cols = [[_fmt(x) for x in report.abs_err], rel]
        summary = _report_summary(report)
    with open(args.out, "w") as fh:
        fh.write("t_s," + ",".join(heads) + "\n")
        for k in range(t.size):
            row = [_fmt(t[k])] + [_fmt(v) for v in traj.outputs[k]]
            fh.write(",".join(row + [c[k] for c in cols]) + "\n")
    return _summarize(summary, args.summary)


def build_parser():
    p = argparse.ArgumentParser(prog="solimbt")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a benchmark model bundle")
    g.add_argument("--model", choices=["chain"], default="chain")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--mass", type=float, default=100.0)
    g.add_argument("--coupling-stiffness", type=float, default=2.0)
    g.add_argument("--coupling-damping", type=float, default=5.0)
    g.add_argument("--name", default="chain")
    g.add_argument("--out", required=True)

    r = sub.add_parser("reduce", help="run a reduction job from a JSON config")
    r.add_argument("--config", required=True)

    a = sub.add_parser("analyze", help="frequency-domain error sweep")
    a.add_argument("--original", required=True)
    a.add_argument("--reduced", required=True)
    a.add_argument("--fmin", type=float, required=True)
    a.add_argument("--fmax", type=float, required=True)
    a.add_argument("--points", type=int, default=500)
    a.add_argument("--unit", choices=["hz", "rad"], default="hz")
    a.add_argument("--band", help="interval list 'a,b[;c,d]' in --unit")
    a.add_argument("--out", required=True)
    a.add_argument("--summary")

    s = sub.add_parser("simulate", help="time-domain response")
    s.add_argument("--model", required=True)
    s.add_argument("--reference", help="bundle to compare against")
    s.add_argument("--signal", choices=["step", "sin"], default="step")
    s.add_argument("--amplitude", type=float, default=1.0)
    s.add_argument("--omega", type=float, default=1.0)
    s.add_argument("--onset", type=float, default=0.0)
    s.add_argument("--offset", type=float, default=0.0)
    s.add_argument("--t0", type=float, default=0.0)
    s.add_argument("--tf", type=float, required=True)
    s.add_argument("--dt", type=float, required=True)
    s.add_argument("--window", help="'t0,tf' for local error maxima")
    s.add_argument("--out", required=True)
    s.add_argument("--summary")
    return p


def main(argv=None):
    global _parser
    _parser = _parser or build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:  # looked up per call, so a rebound cmd_* runs
        return globals()[f"cmd_{args.command}"](args)
    except ConfigCategory as exc:
        print(f"configuration error: {exc}", file=_sys.stderr)
        return 2
    except (json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"configuration error: {exc}", file=_sys.stderr)
        return 2
    except SolimbtError as exc:
        print(f"numerical failure: {exc}", file=_sys.stderr)
        return 3


if __name__ == "__main__":
    _sys.exit(main())
