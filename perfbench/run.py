"""foleyflow benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload {train,generate,curate} --seed N --seconds S --trace {0,1}

Run from the repository root. The script generates the workload's inputs
from the seed, measures set-up time in fresh processes, runs the workload
in its own process for S seconds of timed operations, checks every
output, and prints a report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
run wraps foleyflow's public functions and reports per-layer metrics.
See perfbench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEADLINE_S = 170.0  # the whole run, inputs and set-up included
SETUP_SAMPLES = 5

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("work_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op2_ms_p50", "ms"),
    ("pass_s", "s"),
)


class BenchError(Exception):
    """The run could not produce a result."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=("train", "generate", "curate"), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="timed operations per run, in seconds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full", help="tiny is for the benchmark's own tests")
    return p.parse_args(argv)


def spawn(args, work: Path, mode: str, deadline: float) -> str:
    """Run worker.py to completion and return its stdout."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale, "--src", str(SRC), "--work", str(work), "--spawned-at"]
    err_path = work / f"{mode}.stderr"
    with open(err_path, "w") as err:
        cmd.append(repr(time.monotonic()))
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, cwd=ROOT, text=True)
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"{mode} process passed the {DEADLINE_S:.0f} s limit") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} process exited {proc.returncode}:\n{err_path.read_text()[-2000:]}")
    return out


def tail_percentile(values: list) -> tuple:
    """The highest of the usual percentiles with at least 10 samples beyond it."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(values) * (1 - p / 100) >= 10:
            return p, statistics.quantiles(values, n=1000, method="inclusive")[int(p * 10) - 1]
    return None, None


def end_to_end(workload: str, result: dict, setup_s: float, speed: float) -> dict:
    """The END_TO_END metrics, with every time of the window multiplied by speed."""
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]
    passes = result["passes"]
    primary = [s for p in passes for kind, s in p["ops"] if kind.startswith(wl.primary)]
    secondary = [s for p in passes for kind, s in p["ops"] if kind == wl.secondary]
    return {
        "setup_s": setup_s,
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
        "work_per_s": sum(p["units"] for p in passes) / sum(p["unit_seconds"] for p in passes) / speed,
        "op_ms_p50": statistics.median(primary) * 1000 * speed,
        "op2_ms_p50": statistics.median(secondary) * 1000 * speed,
        "pass_s": statistics.median(p["wall"] for p in passes) * speed,
    }


def named(workload: str, m: dict, result: dict, inputs: dict, fail_ratio: float, speed: float) -> list:
    """The metrics under the names users know them by: (name, value, unit, note)."""
    rows = [("setup_s", m["setup_s"], "s", ""), ("peak_rss_mb", m["peak_rss_mb"], "MB", ""),
            ("fail_ratio", fail_ratio, "ratio", "")]
    if workload == "train":
        steps = [s * 1000 * speed for p in result["passes"] for _, s in p["ops"]]
        pct, tail = tail_percentile(steps)
        note = f"p{pct:g} of {len(steps)} steps, {len(steps) - round(len(steps) * pct / 100)} beyond" if pct else ""
        rows += [("train_samples_per_s", m["work_per_s"], "samples/s", ""),
                 ("train_step_ms_p50", m["op_ms_p50"], "ms", ""),
                 ("train_step_ms_tail", tail if tail is not None else float("nan"), "ms", note or "too few steps")]
    elif workload == "generate":
        rows += [("sample_s_p50", m["op_ms_p50"] / 1000, "s", ""),
                 ("refine_s_p50", m["op2_ms_p50"] / 1000, "s", ""),
                 ("gen_nfe_per_s", m["work_per_s"], "1/s", "Euler steps x guidance branches")]
    else:
        pairs = inputs["eval"]["pairs"]
        rows += [("pipeline_records_per_s", m["work_per_s"], "records/s", ""),
                 ("eval_pairs_per_s", pairs / (m["op2_ms_p50"] / 1000), "pairs/s", f"{pairs} pairs per eval"),
                 ("curate_s", m["pass_s"], "s", "")]
    return rows


def run(args) -> int:
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "foleyflow" / "__init__.py").is_file():
        print(f"perfbench: foleyflow sources not found under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    from host import host_record, pin_blas_threads

    pin_blas_threads()
    sys.path.insert(0, str(SRC))
    from calib import Calibrator, factor
    from workloads import SCALES, WORKLOADS, fresh_dir, save_json

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = fresh_dir(HERE / "work" / f"{tag}-{os.getpid()}")
    try:
        inputs = WORKLOADS[args.workload].make_inputs(SCALES[args.scale], args.seed, work)
        save_json(work / "inputs.json", inputs)
        # set-up times, with calibration samples between the set-up processes
        setup_samples = []
        cal = Calibrator()
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                cal.sample()
                setup_samples.append(json.loads(spawn(args, work, "setup", deadline))["setup_s"])
        cal.sample()
        spawn(args, work, "run", deadline)
        result = json.loads((work / "result.json").read_text())
        setup_samples.append(result["setup_s"])

        passes, checks = result["passes"], result["checks"]
        attempted = sum(p["attempted"] for p in passes) + len(checks)
        failed = sum(p["failed"] for p in passes) + sum(1 for c in checks if not c["ok"])
        problems = [msg for p in passes for msg in p["problems"]]
        problems += [f"{c['name']}: {c['detail']}" for c in checks if not c["ok"]]

        host = host_record(ROOT)
        print("host " + " ".join(f"{k}={v}" for k, v in host.items()))
        for c in checks:
            print(f"check {'ok  ' if c['ok'] else 'FAIL'} {c['name']}" + (f": {c['detail']}" if c["detail"] else ""))
        for msg in problems[:20]:
            print(f"problem {msg}")
        print(f"passes {len(passes)}, attempted {attempted}, failed {failed}")

        if args.trace:
            from breakdown import PER_LAYER

            layers = result["layers"]
            metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
            print("tracer missing " + (", ".join(result["missing"]) or "nothing"))
            for name, unit in PER_LAYER:
                print(f"{name} {layers[name]:.6g} {unit}")
            traces = HERE / "work" / "traces"
            traces.mkdir(exist_ok=True)
            shutil.move(str(work / "trace.npz"), str(traces / f"{args.workload}-seed{args.seed}.npz"))
            record = {"layers": layers, "found": result["found"], "missing": result["missing"]}
        else:
            speed, setup_speed = factor(result["calibration"]), factor(cal.samples)
            setup_s = statistics.median(setup_samples)
            e2e = end_to_end(args.workload, result, setup_s * setup_speed, speed)
            raw = end_to_end(args.workload, result, setup_s, 1.0)
            metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
            print(f"times scaled by {speed:.4f} (set-up {setup_speed:.4f}) to the reference host speed; "
                  "as measured: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
            rows = named(args.workload, e2e, result, inputs, failed / attempted, speed)
            for name, value, unit, note in rows:
                print(f"{name} {value:.6g} {unit}" + (f" ({note})" if note else ""))
            record = {"end_to_end": e2e, "end_to_end_raw": raw, "named": rows, "setup_samples": setup_samples,
                      "speed": speed, "setup_speed": setup_speed, "calibration": result["calibration"]}

        results = HERE / "work" / "results"
        results.mkdir(exist_ok=True)
        record.update(host=host, checks=checks, problems=problems, attempted=attempted, failed=failed,
                      passes=[{k: p[k] for k in ("wall", "units", "digest", "ops")} for p in passes])
        save_json(results / f"{tag}.json", record)
        print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
        return 0
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(run(parse_args(sys.argv[1:])))
