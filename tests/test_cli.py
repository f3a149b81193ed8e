"""Command-line surface: flows, exit codes, JSON errors, config precedence."""

import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from foleyflow import cli, container
from foleyflow.cli import main
from foleyflow.datapipe import MANIFEST_HEADER


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def checkpoint(workdir):
    out = workdir / "run"
    code = main(
        [
            "train",
            "--stages", "1",
            "--steps", "3",
            "--batch-size", "2",
            "--data-clips", "4",
            "--out", str(out),
        ]
    )
    assert code == 0
    return str(out / "stage1.ckpt")


@pytest.fixture(scope="module")
def latent(workdir, checkpoint):
    out = workdir / "gen" / "clip0.ysnd"
    out.parent.mkdir(exist_ok=True)
    code = main(["sample", "--checkpoint", checkpoint, "--out", str(out), "--text", "rain", "--nfe", "4"])
    assert code == 0
    return str(out)


# ---------------------------------------------------------------------------
# train


def test_train_writes_checkpoint_and_log(workdir, checkpoint):
    run_dir = workdir / "run"
    assert (run_dir / "stage1.ckpt").is_file()
    log_lines = (run_dir / "events.log").read_text().splitlines()
    assert len(log_lines) == 3
    assert [int(line.split()[0]) for line in log_lines] == [1, 2, 3]


def test_train_multi_stage_chains(workdir):
    out = workdir / "multi"
    code = main(
        [
            "train",
            "--stages", "1,2",
            "--steps", "2,2",
            "--batch-size", "2",
            "--data-clips", "4",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert (out / "stage1.ckpt").is_file()
    assert (out / "stage2.ckpt").is_file()
    fields = [line.split() for line in (out / "events.log").read_text().splitlines()]
    # step and stage lead each line
    assert [(int(f[0]), int(f[1])) for f in fields] == [(1, 1), (2, 1), (3, 2), (4, 2)]


def test_train_later_stage_requires_init(workdir, capsys):
    code = main(["train", "--stages", "2", "--steps", "2", "--out", str(workdir / "nope")])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["kind"] == "ConfigError"
    assert "init-checkpoint" in err["error"]["message"]


def test_train_resume_from_checkpoint(workdir, checkpoint):
    out = workdir / "resumed"
    code = main(
        [
            "train",
            "--stages", "2",
            "--steps", "2",
            "--batch-size", "2",
            "--data-clips", "4",
            "--init-checkpoint", checkpoint,
            "--out", str(out),
        ]
    )
    assert code == 0
    assert (out / "stage2.ckpt").is_file()


def test_train_steps_count_mismatch(workdir, capsys):
    code = main(["train", "--stages", "1,2", "--steps", "2", "--out", str(workdir / "nope2")])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["kind"] == "ConfigError"


@pytest.mark.parametrize(
    "args",
    [
        ["--stages", "2", "--steps", "1"],  # a later stage without --init-checkpoint
        ["--stages", "1", "--steps", "1,2"],  # step count mismatch
        ["--stages", "4"],  # no such stage
        ["--stages", "1,1", "--steps", "1,1"],  # a repeated stage
        ["--stages", "3,2", "--steps", "1,1", "--init-checkpoint", "CHECKPOINT"],  # stages out of order
    ],
)
def test_train_bad_arguments_write_nothing(tmp_path, capsys, request, args):
    out = tmp_path / "run"
    if "CHECKPOINT" in args:
        args = [request.getfixturevalue("checkpoint") if a == "CHECKPOINT" else a for a in args]
    assert main(["train", *args, "--out", str(out)]) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["kind"] == "ConfigError"
    assert not out.exists()


# ---------------------------------------------------------------------------
# sample


def test_sample_writes_latent_and_envelope(latent):
    import os

    assert os.path.getsize(latent) > 0
    env_lines = open(latent + ".env.csv").read().splitlines()
    assert env_lines[0] == "time,audio_energy"
    assert len(env_lines) > 1


def test_sample_is_bit_deterministic(workdir, checkpoint):
    a = workdir / "det_a.lat"
    b = workdir / "det_b.lat"
    for path in (a, b):
        code = main(
            ["sample", "--checkpoint", checkpoint, "--out", str(path), "--text", "rain", "--nfe", "4", "--seed", "9"]
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_sample_seed_changes_output(workdir, checkpoint):
    a = workdir / "seed_a.lat"
    b = workdir / "seed_b.lat"
    main(["sample", "--checkpoint", checkpoint, "--out", str(a), "--nfe", "4", "--seed", "1"])
    main(["sample", "--checkpoint", checkpoint, "--out", str(b), "--nfe", "4", "--seed", "2"])
    assert a.read_bytes() != b.read_bytes()


def test_sample_missing_checkpoint(workdir, capsys):
    code = main(["sample", "--checkpoint", str(workdir / "ghost.ckpt"), "--out", str(workdir / "x.lat")])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["kind"] == "ContractError"
    assert "checkpoint" in err["error"]["message"]


def test_sample_video_id_conditions(workdir, checkpoint):
    out = workdir / "vid.lat"
    code = main(["sample", "--checkpoint", checkpoint, "--out", str(out), "--video", "crash-cymbal", "--nfe", "4"])
    assert code == 0


# ---------------------------------------------------------------------------
# eval


def test_eval_self_is_perfect(workdir, checkpoint, latent, capsys):
    gen_dir = workdir / "gen"
    # a second clip so the distribution metrics have two pairs
    main(["sample", "--checkpoint", checkpoint, "--out", str(gen_dir / "clip1.ysnd"), "--seed", "3", "--nfe", "4"])
    capsys.readouterr()
    code = main(["eval", str(gen_dir), str(gen_dir), "--json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["values"]["FAD"] == 0.0
    assert report["values"]["CLIP"] == 100.0
    assert report["values"]["AV"] == 1.0
    assert report["n_pairs"] == 2


def test_eval_writes_report_and_plots(workdir, capsys):
    gen_dir = workdir / "gen"
    out = workdir / "report.json"
    plots = workdir / "plots"
    code = main(["eval", str(gen_dir), str(gen_dir), "--json", "--out", str(out), "--plot", str(plots)])
    assert code == 0
    capsys.readouterr()
    assert json.loads(out.read_text())["n_pairs"] == 2
    assert sorted(p.name for p in plots.iterdir()) == ["clip0.envelopes.csv", "clip1.envelopes.csv"]


def test_eval_unusable_plot_dir_leaves_no_report(workdir, latent, capsys):
    gen_dir, out, taken = workdir / "gen", workdir / "unplotted.json", workdir / "taken"
    taken.write_text("a file where --plot wants a directory\n")
    code = main(["eval", str(gen_dir), str(gen_dir), "--out", str(out), "--plot", str(taken)])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["kind"] == "FileExistsError"
    assert not out.exists()


def test_eval_overflowing_embeddings_leave_as_one_json_line(tmp_path, capsys):
    rng = np.random.default_rng(0)
    for side in ("gen", "ref"):
        (tmp_path / side).mkdir()
        for i in range(3):
            container.write_latents(str(tmp_path / side / f"c{i}.ysnd"), {"latent": rng.normal(size=(16, 4))})
    container.write_latents(str(tmp_path / "gen" / "c0.ysnd"), {"latent": np.full((16, 4), 1e200)})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["eval", str(tmp_path / "gen"), str(tmp_path / "ref"), "--json"])
    assert code == 1
    assert [str(w.message) for w in caught] == []  # a warning would be a stderr line of its own
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["kind"] == "ContractError"
    assert captured.out == ""


def test_eval_missing_dir(workdir, capsys):
    code = main(["eval", str(workdir / "absent"), str(workdir / "gen")])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["kind"] == "ContractError"


@pytest.mark.parametrize(
    "fill, digest",
    [
        (3000.0, "ef3e163d80231fa54596431929d1647994efc79cde26d22e10e09873340f8bf8"),
        (-3000.0, "88103501b6232cf21c6acc480919151459dfffad19a7f834ce22480f0460ea3c"),
    ],
)
def test_eval_far_out_class_scores_report_without_warnings(tmp_path, capsys, fill, digest):
    """A latent column at +-3000 drives a raw class score past the point where
    the logistic's exp overflows; the report keeps the bytes it had while
    that overflow still warned."""
    rng = np.random.default_rng(0)
    for side in ("gen", "ref"):
        (tmp_path / side).mkdir()
        for i in range(3):
            container.write_latents(str(tmp_path / side / f"c{i}.ysnd"), {"latent": rng.normal(size=(16, 4))})
    far = rng.normal(size=(16, 4))
    far[:, 0] = fill
    container.write_latents(str(tmp_path / "gen" / "c0.ysnd"), {"latent": far})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["eval", str(tmp_path / "gen"), str(tmp_path / "ref"), "--json"])
    captured = capsys.readouterr()
    assert (code, captured.err, [str(w.message) for w in caught]) == (0, "", [])
    assert hashlib.sha256(captured.out.encode("utf-8")).hexdigest() == digest


# ---------------------------------------------------------------------------
# pipeline


@pytest.fixture(scope="module")
def manifest(workdir):
    """The pipeline input every pipeline test reads, written once per module."""
    path = workdir / "in.manifest"
    path.write_text(
        MANIFEST_HEADER
        + "\n"
        + "good,2.0,hit:0.2:0.5;thud:1.0:1.4,0.8,0.9,0,0\n"
        + "talky,2.0,hit:0.2:0.5,0.8,0.9,1,0\n"
        + "mangled nonsense\n"
        + "faint,2.0,hit:0.2:0.5,0.05,0.9,0,0\n"
    )
    return path


def test_pipeline_filters_and_reports(workdir, manifest, capsys):
    src = manifest
    dst = workdir / "out.manifest"
    report = workdir / "drops.csv"
    code = main(["pipeline", str(src), str(dst), "--report", str(report)])
    assert code == 0
    captured = capsys.readouterr()
    assert "warning: manifest line 4:" in captured.err
    assert "speech,1" in captured.out
    assert "alignment,1" in captured.out
    assert report.read_text().rstrip() == captured.out.rstrip()
    out_lines = dst.read_text().splitlines()
    assert out_lines[0] == MANIFEST_HEADER
    assert [line.split(",")[0] for line in out_lines[1:]] == ["good#0", "good#1"]


def test_pipeline_keep_speech_flag(workdir, manifest, capsys):
    src = manifest
    dst = workdir / "kept.manifest"
    code = main(["pipeline", str(src), str(dst), "--keep-speech"])
    assert code == 0
    assert "speech,0" in capsys.readouterr().out
    ids = [line.split(",")[0] for line in dst.read_text().splitlines()[1:]]
    assert "talky" in ids or "talky#0" in ids


@pytest.mark.parametrize(
    "dst_name, report_name, kind",
    [
        ("unreported.manifest", "nodir/r.txt", "FileNotFoundError"),
        ("unreported.manifest", ".", "IsADirectoryError"),
        ("nodir/out.manifest", "unwritten.txt", "FileNotFoundError"),
    ],
)
def test_pipeline_unwritable_output_leaves_both_files_as_they_were(tmp_path, manifest, capsys, dst_name, report_name, kind):
    dst, report = tmp_path / dst_name, tmp_path / report_name
    earlier = {}
    for path in (dst, report):
        if path.parent.is_dir() and not path.is_dir():
            path.write_text(f"an earlier run's {path.name}\n")
            earlier[path] = path.read_bytes()
    code = main(["pipeline", str(manifest), str(dst), "--report", str(report)])
    assert code == 1
    captured = capsys.readouterr()
    err_lines = captured.err.splitlines()
    assert len(err_lines) == 1
    assert json.loads(err_lines[0])["error"]["kind"] == kind
    assert captured.out == ""
    assert {path: path.read_bytes() for path in earlier} == earlier
    assert sorted(os.listdir(tmp_path)) == sorted(path.name for path in earlier)


def test_pipeline_missing_input(workdir, capsys):
    code = main(["pipeline", str(workdir / "absent.manifest"), str(workdir / "x.manifest")])
    assert code == 1
    assert json.loads(capsys.readouterr().err.strip())["error"]["kind"] == "ContractError"


def test_pipeline_non_utf8_input_is_a_format_error(workdir, capsys):
    src = workdir / "latin1.manifest"
    src.write_bytes(MANIFEST_HEADER.encode() + b"\ncaf\xe9,2.0,,0.5,0.5,0,0\n")
    dst = workdir / "latin1-out.manifest"
    code = main(["pipeline", str(src), str(dst)])
    assert code == 1
    err_lines = capsys.readouterr().err.splitlines()
    assert len(err_lines) == 1
    assert json.loads(err_lines[0])["error"]["kind"] == "FormatError"
    assert not dst.exists()


# ---------------------------------------------------------------------------
# refine


def test_refine_picks_and_traces(workdir, checkpoint, latent, capsys):
    out = workdir / "refined.lat"
    code = main(
        [
            "refine",
            "--checkpoint", checkpoint,
            "--coarse", latent,
            "--out", str(out),
            "--text", "rain",
            "--k", "2",
            "--nfe", "4",
        ]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "picked" in captured.out
    trace_lines = (workdir / "refined.lat.trace.csv").read_text().splitlines()
    assert trace_lines[0].startswith("index,seed,")
    assert len([l for l in trace_lines if not l.startswith(("index", "#"))]) == 2
    assert out.is_file()


@pytest.mark.parametrize("bad", ["nan", "shape"])
def test_refine_rejects_bad_coarse_latent(workdir, checkpoint, latent, capsys, bad):
    good = container.read_latents(latent)["latent"]
    coarse = workdir / f"coarse-{bad}.ysnd"
    value = np.full_like(good, np.nan) if bad == "nan" else np.zeros((5, 3))
    container.write_latents(str(coarse), {"latent": value})
    out = workdir / f"refined-{bad}.ysnd"
    capsys.readouterr()
    assert main(["refine", "--checkpoint", checkpoint, "--coarse", str(coarse), "--out", str(out), "--nfe", "2"]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["kind"] == "ContractError"
    assert sorted(workdir.glob(out.name + "*")) == []


def test_refine_rejects_k_zero(workdir, checkpoint, latent, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["refine", "--checkpoint", checkpoint, "--coarse", latent, "--out", "x.lat", "--k", "0"])
    assert exc.value.code == 2
    assert json.loads(capsys.readouterr().err.strip())["error"]["kind"] == "ConfigError"


@pytest.mark.parametrize("command", ["sample", "refine"])
@pytest.mark.parametrize(
    "bad,kind",
    [("nan", "ContractError"), ("1-D", "ShapeError"), ("no-rows", "ShapeError")],
)
def test_bad_video_record_is_rejected_before_anything_is_written(workdir, checkpoint, latent, capsys, command, bad, kind):
    value = {"nan": np.full((8, 16), np.nan), "1-D": np.ones(16), "no-rows": np.zeros((0, 16))}[bad]
    video = workdir / f"video-{bad}.ysnd"
    container.write_latents(str(video), {"video_feat": value})
    out = workdir / f"badvideo-{command}-{bad}"
    argv = {
        "sample": ["sample", "--checkpoint", checkpoint, "--out", str(out)],
        "refine": ["refine", "--checkpoint", checkpoint, "--coarse", latent, "--out", str(out), "--k", "2"],
    }[command]
    capsys.readouterr()
    assert main(argv + ["--video", str(video), "--nfe", "2"]) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error["kind"] == kind
    assert "video_feat" in error["message"]
    assert captured.out == ""
    assert sorted(workdir.glob(out.name + "*")) == []


# ---------------------------------------------------------------------------
# output files


def _tree(root: Path) -> dict:
    """Relative path -> bytes of every file under root, None for a directory."""
    return {
        str(path.relative_to(root)): None if path.is_dir() else path.read_bytes()
        for path in sorted(root.rglob("*"))
    }


def _argv(command, out_dir, workdir, checkpoint, latent):
    out, gen = str(out_dir / "x.ysnd"), str(workdir / "gen")
    return {
        "sample": ["sample", "--checkpoint", checkpoint, "--out", out, "--nfe", "2"],
        "refine": ["refine", "--checkpoint", checkpoint, "--coarse", latent, "--out", out, "--k", "2", "--nfe", "2"],
        "eval": ["eval", gen, gen, "--out", str(out_dir / "r.json"), "--plot", str(out_dir / "plots")],
    }[command]


def _fails_with_one_json_line(capsys, kind):
    captured = capsys.readouterr()
    err_lines = captured.err.splitlines()
    assert len(err_lines) == 1
    assert json.loads(err_lines[0])["error"]["kind"] == kind
    assert captured.out == ""


@pytest.mark.parametrize("command", ["sample", "eval"])
def test_an_out_in_a_missing_directory_writes_and_prints_nothing(tmp_path, workdir, checkpoint, latent, capsys, command):
    code = main(_argv(command, tmp_path / "nodir", workdir, checkpoint, latent))
    assert code == 1
    _fails_with_one_json_line(capsys, "FileNotFoundError")
    assert _tree(tmp_path) == {}


@pytest.mark.parametrize(
    "command, blocked",
    [
        ("sample", "x.ysnd"),
        ("sample", "x.ysnd.env.csv"),
        ("refine", "x.ysnd"),
        ("refine", "x.ysnd.trace.csv"),
        ("eval", "r.json"),
    ],
)
def test_an_unusable_output_path_leaves_every_output_as_it_was(tmp_path, workdir, checkpoint, latent, capsys, command, blocked):
    # a directory where one output goes; the others hold an earlier run's bytes
    outputs = {
        "sample": ["x.ysnd", "x.ysnd.env.csv"],
        "refine": ["x.ysnd", "x.ysnd.trace.csv"],
        "eval": ["r.json", "plots/clip0.envelopes.csv"],
    }[command]
    for name in outputs:
        path = tmp_path / name
        path.parent.mkdir(exist_ok=True)
        if name == blocked:
            path.mkdir()
        else:
            path.write_text(f"an earlier run's {name}\n")
    earlier = _tree(tmp_path)
    code = main(_argv(command, tmp_path, workdir, checkpoint, latent))
    assert code == 1
    _fails_with_one_json_line(capsys, "IsADirectoryError")
    assert _tree(tmp_path) == earlier  # no new bytes and no temporary file


# ---------------------------------------------------------------------------
# parsing and config files


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--checkpoint", "x", "--out", "y", "--warp", "9"])
    assert exc.value.code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["kind"] == "ConfigError"


def test_missing_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_config_file_sets_defaults(workdir, checkpoint):
    cfg = workdir / "sample.cfg"
    cfg.write_text("# sampler knobs\nnfe=4\nseed=9\n")
    a = workdir / "cfg_a.lat"
    b = workdir / "cfg_b.lat"
    assert main(["sample", "--checkpoint", checkpoint, "--out", str(a), "--config", str(cfg)]) == 0
    assert main(["sample", "--checkpoint", checkpoint, "--out", str(b), "--nfe", "4", "--seed", "9"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_explicit_flag_beats_config(workdir, checkpoint):
    cfg = workdir / "sample.cfg"  # nfe=4 seed=9 from the previous test
    cfg.write_text("nfe=4\nseed=9\n")
    a = workdir / "win_a.lat"
    b = workdir / "win_b.lat"
    assert main(["sample", "--checkpoint", checkpoint, "--out", str(a), "--config", str(cfg), "--seed", "2"]) == 0
    assert main(["sample", "--checkpoint", checkpoint, "--out", str(b), "--nfe", "4", "--seed", "2"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_config_boolean_keys(workdir, manifest, capsys):
    src = manifest
    dst = workdir / "cfgkeep.manifest"
    cfg = workdir / "pipe.cfg"
    cfg.write_text("keep_speech=true\nkeep_bgm=false\n")
    code = main(["pipeline", str(src), str(dst), "--config", str(cfg)])
    assert code == 0
    assert "speech,0" in capsys.readouterr().out


def test_config_unknown_key_exits_2(workdir, capsys):
    cfg = workdir / "bad.cfg"
    cfg.write_text("волюм=11\n")
    with pytest.raises(SystemExit) as exc:
        main(["pipeline", "in", "out", "--config", str(cfg)])
    assert exc.value.code == 2


def test_config_file_missing(workdir, capsys):
    code = main(["sample", "--checkpoint", "x", "--out", "y", "--config", str(workdir / "ghost.cfg")])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["kind"] == "ConfigError"
    assert "config file not found" in err["error"]["message"]


def test_config_malformed_line(workdir, capsys):
    cfg = workdir / "broken.cfg"
    cfg.write_text("just some words\n")
    code = main(["sample", "--checkpoint", "x", "--out", "y", "--config", str(cfg)])
    assert code == 1
    assert json.loads(capsys.readouterr().err.strip())["error"]["kind"] == "ConfigError"


def test_config_not_utf8(workdir, capsys):
    cfg = workdir / "latin1.cfg"
    cfg.write_bytes(b"nfe=\xff\n")
    code = main(["sample", "--checkpoint", "x", "--out", "y", "--config", str(cfg)])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["kind"] == "ConfigError"
    assert str(cfg) in err["error"]["message"]


def test_unexpected_exception_leaves_as_one_json_line(monkeypatch, capsys):
    def broken(args):
        raise ValueError("not a foleyflow error")

    monkeypatch.setattr(cli, "cmd_eval", broken)
    code = main(["eval", "gen", "ref"])
    assert code == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": {"kind": "ValueError", "message": "not a foleyflow error"}}


def test_console_script_help():
    # the child imports foleyflow from wherever this process does
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run(
        [sys.executable, "-m", "foleyflow.cli", "--help"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0
    for command in ("train", "sample", "eval", "pipeline", "refine"):
        assert command in proc.stdout


# ---------------------------------------------------------------------------
# non-finite settings


@pytest.mark.parametrize(
    "command,flag,value,setting",
    [
        ("train", "--lr", "nan", "lr"),
        ("train", "--clip-norm", "inf", "grad_clip_norm"),
        ("sample", "--guidance", "nan", "guidance_scale"),
        ("sample", "--guidance", "inf", "guidance_scale"),
        ("sample", "--frame-rate", "nan", "frame_rate"),
        ("sample", "--frame-rate", "5e-324", "frame_rate"),
        ("refine", "--guidance", "nan", "guidance_scale"),
        ("refine", "--frame-rate", "nan", "frame_rate"),
        ("refine", "--frame-rate", "5e-324", "frame_rate"),
        ("eval", "--frame-rate", "nan", "frame_rate"),
        ("eval", "--frame-rate", "5e-324", "frame_rate"),
        ("pipeline", "--min-av", "nan", "min_av_align"),
        ("pipeline", "--min-sem", "nan", "min_semantic"),
    ],
)
def test_non_finite_setting_is_rejected(workdir, checkpoint, latent, manifest, capsys, command, flag, value, setting):
    out = workdir / f"nonfinite-{command}{flag}-{value}"
    gen_dir = workdir / "nonfinite-gen"
    gen_dir.mkdir(exist_ok=True)
    for name in ("a", "b"):
        (gen_dir / f"{name}.ysnd").write_bytes(Path(latent).read_bytes())
    argv = {
        "train": ["train", "--stages", "1", "--steps", "2", "--data-clips", "4", "--out", str(out)],
        "sample": ["sample", "--checkpoint", checkpoint, "--out", str(out), "--nfe", "2"],
        "refine": ["refine", "--checkpoint", checkpoint, "--coarse", latent, "--out", str(out), "--nfe", "2"],
        "eval": ["eval", str(gen_dir), str(gen_dir), "--out", str(out)],
        "pipeline": ["pipeline", str(manifest), str(out)],
    }[command]
    capsys.readouterr()
    assert main(argv + [flag, value]) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error["kind"] in ("ConfigError", "ContractError")
    assert setting in error["message"]
    assert captured.out == ""
    # nothing is written: no checkpoint, latent, sidecar, report or manifest
    assert sorted(workdir.glob(out.name + "*")) == []
