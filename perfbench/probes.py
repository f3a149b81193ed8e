"""Fixed-seed probes whose outputs are compared with committed values.

The probes do not depend on --seed: they pin what the program computes
for one fixed input per workload. reference.json holds the values the
probes gave when the benchmark was written; record_reference.py writes
it again after a deliberate numerical change.
"""

from __future__ import annotations

import json
from pathlib import Path

from checks import ATOL, RTOL, compare_reference, parse_drop_report
from workloads import curriculum, fresh_dir, generator, make_latent_pairs, make_manifest, run_cli, toy_datasets

REFERENCE = Path(__file__).with_name("reference.json")


def _probe_checkpoint(work: Path) -> tuple:
    from foleyflow import training
    from foleyflow.model import ModelConfig, TwoTowerModel

    model = TwoTowerModel(ModelConfig(), seed=0)
    events = training.run_curriculum(model, curriculum((2, 2, 2)), training.OptimizerConfig(lr=3e-3, batch_size=4),
                                     toy_datasets({"clips": 8}, 12345), seed=0, out_dir=str(work))
    return [e.loss for e in events], work / "stage3.ckpt"


def _run(argv: list) -> str:
    _, code, out, err = run_cli(argv)
    if code != 0:
        raise RuntimeError(f"foleyflow {argv[0]} exited {code}: {err.strip()[-300:]}")
    return out


def probe(workload: str, work: Path) -> dict:
    work = fresh_dir(work)
    if workload == "train":
        losses, _ = _probe_checkpoint(work)
        return {"losses": losses}
    if workload == "generate":
        from foleyflow import container

        _, ckpt = _probe_checkpoint(work)
        target = work / "probe.ysnd"
        _run(["sample", "--checkpoint", ckpt, "--out", target, "--text", "glass shatters on stone",
              "--video", "probe-video", "--nfe", "8", "--guidance", "2.0", "--seed", "7"])
        latent = container.read_latents(str(target))["latent"]
        return {"latent_row_norms": [float(v) for v in (latent * latent).sum(axis=1) ** 0.5],
                "latent_col_means": [float(v) for v in latent.mean(axis=0)]}
    manifest, kept, report = work / "manifest.csv", work / "kept.csv", work / "drops.txt"
    make_manifest(manifest, 400, generator(0, "probe-manifest"))
    _run(["pipeline", manifest, kept, "--report", report])
    make_latent_pairs(work / "gen", work / "ref", 16, generator(0, "probe-latents"))
    values = json.loads(_run(["eval", work / "gen", work / "ref", "--json"]))["values"]
    return {"drop_report": parse_drop_report(report.read_text()),
            "eval_values": [values[c] for c in ("FAD", "FD", "KL-sigmoid", "IS", "CLIP", "AV")]}


def reference_checks(workload: str, work: Path) -> list:
    """One check record: the probe agrees with reference.json."""
    reference = json.loads(REFERENCE.read_text())[workload]
    try:
        problems = compare_reference(probe(workload, work), reference)
    except Exception as exc:  # a crashing probe is a failed check, not a crashed run
        problems = [f"probe raised {type(exc).__name__}: {exc}"]
    name = f"reference values within rtol {RTOL:g}, atol {ATOL:g}"
    return [{"name": name, "ok": not problems, "detail": "; ".join(problems)}]
