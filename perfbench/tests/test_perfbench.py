"""Tests of the benchmark itself: tiny runs, output checks, tracer.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import breakdown  # noqa: E402
import checks  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, load_dump, self_times  # noqa: E402

NAMED = {
    "train": ("train_samples_per_s", "train_step_ms_p50", "train_step_ms_tail"),
    "generate": ("sample_s_p50", "refine_s_p50", "gen_nfe_per_s"),
    "curate": ("pipeline_records_per_s", "eval_pairs_per_s", "curate_s"),
}


def tiny_run(workload: str, trace: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3", "--seconds", "0.1",
         "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(breakdown.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_run_emits_every_metric_with_its_unit(workload):
    lines, result = tiny_run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(bench.END_TO_END)
    assert all(v["value"] > 0 for v in result["metrics"].values())
    printed = {line.split()[0] for line in lines[:-1]}
    for name in ("setup_s", "peak_rss_mb", "fail_ratio") + NAMED[workload]:
        assert name in printed
    assert any(line.startswith("host nproc=") and "src_lines=" in line for line in lines)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_run_reports_layers_and_matches_untraced_outputs(workload):
    lines, result = tiny_run(workload, 1)
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(breakdown.PER_LAYER)
    assert any(line.startswith("check ok   traced outputs equal untraced") for line in lines)
    assert result["metrics"]["trace.coverage"]["value"] >= 0.9
    names, cols = load_dump(str(HERE / "work" / "traces" / f"{workload}-seed3.npz"))
    assert cols["name"].size == cols["parent"].size > 0
    assert (self_times(cols) >= 0).all()
    assert ("cli.main" if workload != "train" else "training.run_curriculum") in names


# ---------------------------------------------------------------------------
# output checks trip on perturbed outputs


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Real program outputs at tiny size: a refine trace, a pipeline run, an eval report."""
    work = tmp_path_factory.mktemp("outputs")
    scale = workloads.SCALES["tiny"]
    ckpt = workloads.Generate.make_inputs(scale, 1, work)["checkpoint"]
    flags = ["--nfe", "4", "--seed", "5", "--text", "a door slams", "--video", "probe"]
    assert workloads.run_cli(["sample", "--checkpoint", ckpt, "--out", work / "c.ysnd"] + flags)[1] == 0
    assert workloads.run_cli(["refine", "--checkpoint", ckpt, "--coarse", work / "c.ysnd", "--out",
                              work / "r.ysnd", "--k", "2"] + flags)[1] == 0
    curate = workloads.Curate.make_inputs(scale, 1, work)
    _, code, _, err = workloads.run_cli(["pipeline", curate["manifests"][0]["path"], work / "kept.csv", "--report",
                                         work / "drops.txt"])
    assert code == 0
    _, code, eval_out, _ = workloads.run_cli(["eval", curate["gen"], curate["ref"], "--json"])
    assert code == 0
    return {
        "trace": Path(f"{work / 'r.ysnd'}.trace.csv").read_text(),
        "drops": (work / "drops.txt").read_text(),
        "stderr": err,
        "kept_lines": len((work / "kept.csv").read_text().splitlines()) - 1,
        "expected": curate["manifests"][0]["expected"],
        "eval": eval_out,
        "eval_expected": curate["eval"],
    }


def test_refine_check_passes_real_output_and_trips_on_a_worse_pick(outputs):
    text = outputs["trace"]
    assert checks.check_refine_trace(text, 2) == []
    coarse = float(next(x for x in text.splitlines() if x.startswith("# coarse_aggregate,")).split(",")[1])
    worse = text.replace(f"# coarse_aggregate,{coarse:.6f}", f"# coarse_aggregate,{coarse + 10:.6f}")
    worse = "\n".join(x if not x.startswith("# picked,") else "# picked,candidate:0" for x in worse.splitlines())
    assert checks.check_refine_trace(worse, 2)
    assert checks.check_refine_trace(text, 3)  # a candidate missing from the trace


def test_pipeline_check_passes_real_output_and_trips_on_lost_records(outputs):
    args = (outputs["drops"], outputs["stderr"], outputs["kept_lines"], outputs["expected"])
    assert checks.check_pipeline(*args) == []
    kept = next(x for x in outputs["drops"].splitlines() if x.startswith("total_kept,"))
    lost = outputs["drops"].replace(kept, f"total_kept,{int(kept.split(',')[1]) - 1}")
    assert checks.check_pipeline(lost, *args[1:])
    assert checks.check_pipeline(outputs["drops"], outputs["stderr"], outputs["kept_lines"] + 1, outputs["expected"])
    one_warning_less = outputs["stderr"].split("\n", 1)[1]
    assert checks.check_pipeline(outputs["drops"], one_warning_less, *args[2:])


def test_eval_check_passes_real_output_and_trips_on_bad_values(outputs):
    assert checks.check_eval(outputs["eval"], outputs["eval_expected"]) == []
    report = json.loads(outputs["eval"])
    report["values"]["FAD"] = math.nan
    assert checks.check_eval(json.dumps(report), outputs["eval_expected"])
    report = json.loads(outputs["eval"])
    report["n_pairs"] -= 1
    assert checks.check_eval(json.dumps(report), outputs["eval_expected"])


def test_reference_comparison_tolerates_round_off_only():
    ref = {"losses": [1.0, 0.5], "counts": {"kept": 3}}
    assert checks.compare_reference({"losses": [1.0 + 1e-9, 0.5], "counts": {"kept": 3}}, ref) == []
    assert checks.compare_reference({"losses": [1.0 + 1e-4, 0.5], "counts": {"kept": 3}}, ref)
    assert checks.compare_reference({"losses": [1.0, math.nan], "counts": {"kept": 3}}, ref)
    assert checks.compare_reference({"losses": [1.0, 0.5], "counts": {"kept": 4}}, ref)


def test_a_changed_output_byte_changes_the_pass_digest(tmp_path):
    (tmp_path / "a.ysnd").write_bytes(b"YSND\x01\x00")
    before = workloads.digest_files(tmp_path)
    (tmp_path / "a.ysnd").write_bytes(b"YSND\x01\x01")
    assert workloads.digest_files(tmp_path) != before


def test_train_and_latent_checks_trip_on_non_finite_values():
    import numpy as np

    assert checks.check_step(0.5, 0.1) == []
    assert checks.check_step(math.inf, 0.1) and checks.check_step(0.5, math.nan)
    latent = np.zeros((32, 16))
    assert checks.check_latent(latent, (32, 16)) == []
    latent[3, 4] = math.nan
    assert checks.check_latent(latent, (32, 16))


# ---------------------------------------------------------------------------
# the tracer survives refactors


def test_tracer_wraps_every_binding_and_restores_them():
    from foleyflow import flow, model, tensor, training

    originals = (model.matmul, training.backward, training.cfm_loss, tensor.matmul, model.TwoTowerModel.forward)
    tracer = Tracer()
    tracer.install()
    try:
        assert model.matmul is tensor.matmul is not originals[0]
        assert training.backward is not originals[1] and training.cfm_loss is flow.cfm_loss is not originals[2]
        assert model.TwoTowerModel.__call__ is model.TwoTowerModel.forward
        assert breakdown.missing(tracer) == []
    finally:
        tracer.uninstall()
    assert (model.matmul, training.backward, training.cfm_loss, tensor.matmul,
            model.TwoTowerModel.forward) == originals


def test_tracer_skips_deleted_names_and_counts_new_op_kinds(monkeypatch):
    import numpy as np

    from foleyflow import tensor

    def attention(q, k, v):
        return tensor.matmul(tensor.softmax(tensor.matmul(q, tensor.transpose(k))), v)

    monkeypatch.setattr(tensor, "attention", attention, raising=False)
    attention.__module__ = tensor.__name__
    monkeypatch.delattr(tensor, "ComputationTape")
    monkeypatch.delattr(tensor, "elementwise")
    monkeypatch.setattr(tensor, "__all__", [n for n in tensor.__all__ if n not in ("ComputationTape", "elementwise")]
                        + ["attention"])
    tracer = Tracer()
    tracer.install(breakdown.hooks())
    try:
        tracer.pass_index = 0
        x = tensor.Tensor(np.ones((4, 8)))
        tensor.attention(x, x, x)
    finally:
        tracer.uninstall()
    assert "tensor.ComputationTape.trace" in breakdown.missing(tracer)
    assert "attention" in tracer.kinds and "elementwise" not in tracer.kinds
    layers = breakdown.per_layer(tracer, [workloads.PassResult(wall=1.0)], [], 1.0, 1.0)
    assert layers["tensor.op_calls.other"] == 1
    assert layers["tensor.op_calls.matmul"] == 2 and layers["tensor.op_calls.elementwise"] == 0
    assert layers["tensor.matmul_gflop"] == 2 * (4 * 8 * 4 + 4 * 4 * 8) / 1e9


def test_tail_percentile_keeps_ten_samples_beyond():
    assert bench.tail_percentile(list(range(15))) == (None, None)
    pct, _ = bench.tail_percentile([float(i) for i in range(120)])
    assert pct == 90.0
    pct, _ = bench.tail_percentile([float(i) for i in range(1000)])
    assert pct == 99.0
