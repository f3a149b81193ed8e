"""The workload process: set-up, the timed window, replays and probes.

run.py starts this script once per set-up sample (--mode setup) and once
for the measured run (--mode run). Set-up time runs from the parent's
spawn to the end of the workload's set-up, so it covers interpreter
start, importing foleyflow and the program's one-time set-up, but not
the benchmark's own input generation.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path


def parse_args(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--mode", choices=("setup", "run"), required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, required=True)
    p.add_argument("--scale", required=True)
    p.add_argument("--src", required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--spawned-at", type=float, required=True)
    return p.parse_args(argv)


def timed_window(wl, work: Path, cal, seconds: float, min_passes: int, tracer=None) -> list:
    """Run passes until their timed operations add up to `seconds`."""
    results, elapsed, p = [], 0.0, 0
    while elapsed < seconds or p < min_passes:
        if tracer is not None:
            tracer.pass_index = p
        res = run_pass_guarded(wl, p, work / f"pass{p}", cal, tracer)
        results.append(res)
        elapsed += res.wall
        p += 1
    return results


def run_pass_guarded(wl, p: int, out: Path, cal, tracer=None):
    """One pass in a fresh output directory, which is removed afterwards."""
    from workloads import PassResult, fresh_dir

    try:
        res = wl.run_pass(p, fresh_dir(out), cal, tracer)
    except Exception:  # the run goes on and reports the failed pass
        res = PassResult(attempted=1, failed=1, problems=[traceback.format_exc(limit=3)])
    shutil.rmtree(out, ignore_errors=True)
    return res


def replay(wl, work: Path, cal, originals: list, what: str) -> tuple:
    """Re-run passes untraced and require byte-identical outputs.

    Returns (check records, the replayed pass results).
    """
    checks, again = [], []
    for p, original in enumerate(originals):
        res = run_pass_guarded(wl, p, work / f"replay{p}", cal)
        ok = res.digest == original.digest and not res.failed
        detail = "" if ok else f"digest {res.digest[:12]} != {original.digest[:12]} {res.problems[:2]}"
        checks.append({"name": f"{what} (pass {p})", "ok": ok, "detail": detail})
        again.append(res)
    return checks, again


def main() -> int:
    args = parse_args(sys.argv[1:])
    sys.path.insert(0, args.src)
    from workloads import SCALES, WORKLOADS

    cls = WORKLOADS[args.workload]
    cls.setup()
    setup_s = time.monotonic() - args.spawned_at
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from calib import Calibrator, factor
    from probes import reference_checks
    from workloads import save_json

    cal = Calibrator()
    work = Path(args.work)
    scale = SCALES[args.scale]
    wl = cls(scale, args.seed, json.loads((work / "inputs.json").read_text()))
    min_passes = scale["min_passes"][args.workload]
    result = {"setup_s": setup_s}

    if args.trace:
        import breakdown
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(breakdown.hooks())
        try:
            traced = timed_window(wl, work, cal, args.seconds, 1, tracer)
        finally:
            tracer.uninstall()
        replay_cal = Calibrator()
        checks, untraced = replay(wl, work, replay_cal, traced, "traced outputs equal untraced")
        result["passes"] = [vars(r) for r in traced]
        result["layers"] = breakdown.per_layer(tracer, traced, untraced, factor(cal.samples), factor(replay_cal.samples))
        result["found"], result["missing"] = tracer.found, breakdown.missing(tracer)
        tracer.dump(str(work / "trace.npz"))
    else:
        passes = timed_window(wl, work, cal, args.seconds, min_passes)
        checks, _ = replay(wl, work, Calibrator(), passes[:1], "same-seed rerun is byte-identical")
        result["passes"] = [vars(r) for r in passes]
    result["checks"] = checks + reference_checks(args.workload, work / "probe")
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["calibration"] = cal.samples
    save_json(work / "result.json", result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
