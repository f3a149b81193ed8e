"""Golden digests of fixed-seed runs of every command.

Any change to the output bits of training, sampling, refinement,
evaluation or the manifest pipeline moves one of these digests, so it has
to be made on purpose and recorded, with its cause and the new values, in
CHANGES.md. Unlike the init digest in test_model, these pass through BLAS
products, whose summation order is the BLAS build's own: the values were
recorded with numpy 2.4 on OpenBLAS 0.3.31.
"""

import hashlib

import numpy as np
import pytest

from foleyflow import container, datapipe, metrics, providers
from foleyflow.cli import main
from foleyflow.model import ModelConfig, TwoTowerModel

GOLDEN = {
    "stage1.ckpt": "d2c133012293aab10f23f0484b1b70e4af129534407f10b60781b6163335acca",
    "stage2.ckpt": "c3f1c9593f7f5f5a0eb28de2232a2765161c5f14f2810c5b2f5a445cf0ca6406",
    "stage3.ckpt": "ec5b7ba4c439f476daf684b5c0bad6c23fa74ca3476bbb60a91c608245c62907",
    "events.log": "81bce18182e10f4160c67590e946d607b99ef731e967d645710086005947735d",
    "latent": "bb0683c659ed84507af5f7ce710013900d1c27eb39143d048f460ee486f2b212",
}

GOLDEN_REFINE = {
    "latent": "5029cd04c6c3a82b3e4dda284da2598dc3fd1f3463178fcb57accd605b3ffba2",
    "trace.csv": "cbf071499bc2b65a7ee4273cd580fa7d93c2c6f2e0ac1116b0fd8a6bd99df8d2",
}

GOLDEN_EVAL = "95233ea3eb4d3f74c4bacd429402e300700336adc04390da076c7dca7c7e1584"

GOLDEN_PIPELINE = {
    "cli.manifest": "3dea1430bc350c60c4880e9dd9f095085cdea81ac28a7813b127ba306dd6cdb7",
    "cli.report": "6eb8f7c1c22825218ca115e9491be7239c905dffd28f30bcf723f3ea2c78ab70",
}

_MANIFEST = (
    f"{datapipe.MANIFEST_HEADER}\n"
    "good,2.0,hit:0.2:0.5;thud:1.0:1.4,0.8,0.9,0,0\n"
    "whole,1.5,door:0.0:1.5,0.4,0.35,0,0\n"
    "talky,2.0,hit:0.2:0.5,0.8,0.9,1,0\n"
    "music,2.0,hum:0.1:1.9,0.8,0.9,0,1\n"
    "faint,2.0,hit:0.2:0.5,0.05,0.9,0,0\n"
    "vague,2.0,hit:0.2:0.5,0.8,0.1,0,0\n"
    "blank,2.0,,-,-,0,0\n"
)


def _arrays_digest(arrays: dict) -> str:
    digest = hashlib.sha256()
    for name, arr in arrays.items():
        digest.update(name.encode("utf-8"))
        digest.update(repr(arr.shape).encode("utf-8"))
        digest.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return digest.hexdigest()


def _file_digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _latent_digest(path) -> str:
    latent = container.read_latents(str(path))[metrics.LATENT_RECORD]
    return _arrays_digest({metrics.LATENT_RECORD: latent})


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    """Stages 1-3 for 2 steps each, then one guided text+video sample."""
    root = tmp_path_factory.mktemp("golden")
    run = root / "run"
    argv = ["train", "--stages", "1,2,3", "--steps", "2,2,2", "--batch-size", "4", "--seed", "11", "--out", str(run)]
    assert main(argv) == 0
    latent_path = root / "gen" / "a.ysnd"
    latent_path.parent.mkdir()
    argv = ["sample", "--checkpoint", str(run / "stage3.ckpt"), "--out", str(latent_path), "--text", "glass shatters",
            "--video", "clip-7", "--nfe", "8", "--guidance", "2.0", "--seed", "3"]
    assert main(argv) == 0
    return root, run, latent_path


def test_train_and_sample_outputs_pinned(golden_run, capsys):
    _, run, latent_path = golden_run
    capsys.readouterr()
    got = {f"stage{i}.ckpt": _arrays_digest(TwoTowerModel.load(str(run / f"stage{i}.ckpt")).state_arrays())
           for i in (1, 2, 3)}
    got["events.log"] = _file_digest(run / "events.log")
    got["latent"] = _latent_digest(latent_path)
    assert got == GOLDEN


def test_refine_outputs_pinned(golden_run, capsys):
    root, run, latent_path = golden_run
    out = root / "refined.ysnd"
    argv = ["refine", "--checkpoint", str(run / "stage3.ckpt"), "--coarse", str(latent_path), "--out", str(out),
            "--text", "glass shatters", "--video", "clip-7", "--k", "4", "--nfe", "8", "--seed", "5"]
    assert main(argv) == 0
    capsys.readouterr()
    got = {"latent": _latent_digest(out), "trace.csv": _file_digest(root / "refined.ysnd.trace.csv")}
    assert got == GOLDEN_REFINE


def test_eval_report_pinned(golden_run, capsys):
    """eval --json of two sampled latents against two toy reference clips."""
    root, run, _ = golden_run
    gen_dir, ref_dir = root / "gen", root / "ref"
    argv = ["sample", "--checkpoint", str(run / "stage3.ckpt"), "--out", str(gen_dir / "b.ysnd"), "--text", "rain",
            "--nfe", "8", "--seed", "4"]
    assert main(argv) == 0
    ref_dir.mkdir()
    cfg = ModelConfig()
    clips = providers.make_toy_clips(2, cfg.t_audio, cfg.d_audio_latent, cfg.d_video_feat, cfg.d_text, seed=7)
    for name, clip in zip("ab", clips):
        container.write_latents(str(ref_dir / f"{name}.ysnd"), {metrics.LATENT_RECORD: clip.x1})
    capsys.readouterr()
    assert main(["eval", str(gen_dir), str(ref_dir), "--json"]) == 0
    report = capsys.readouterr().out
    assert hashlib.sha256(report.encode("utf-8")).hexdigest() == GOLDEN_EVAL


def test_pipeline_outputs_pinned(tmp_path, capsys):
    """The CLI pipeline on pre-scored records, with a drop report."""
    src = tmp_path / "in.manifest"
    src.write_text(_MANIFEST, encoding="utf-8")
    out, report = tmp_path / "cli.manifest", tmp_path / "cli.report"
    assert main(["pipeline", str(src), str(out), "--report", str(report)]) == 0
    capsys.readouterr()
    got = {"cli.manifest": _file_digest(out), "cli.report": _file_digest(report)}
    assert got == GOLDEN_PIPELINE
