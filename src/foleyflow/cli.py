"""Command-line entry points: train, sample, eval, pipeline, refine.

Every command takes --seed (the single source of randomness) and
--config, a key=value file whose entries are applied as flag defaults;
explicit flags win. Errors leave through a one-line JSON record on
stderr and a nonzero exit code.

Output files go through container.replacing. A command that writes
several opens the last file's temporary file first, writes the others,
replaces the last file last and prints only then: an unusable path
fails before any file changes or anything is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from pathlib import Path

from . import container, datapipe, flow, metrics, providers, refiner, training
from .errors import ConfigError, ContractError
from .model import ConditionBundle, ModelConfig, TwoTowerModel
from .rng import derive_seed


def _error_line(exc: Exception) -> str:
    return json.dumps({"error": {"kind": type(exc).__name__, "message": str(exc)}})


class _Parser(argparse.ArgumentParser):
    """argparse with single-line machine-readable usage errors."""

    def error(self, message):
        print(_error_line(ConfigError(message)), file=sys.stderr)
        raise SystemExit(2)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _read_config_tokens(path: str) -> list:
    """Translate key=value lines into flag tokens.

    The values true/yes set a store_true flag and false/no leave it
    unset, in any letter case; any other value, 1 and 0 included, becomes
    the flag's argument. Unknown keys surface as unknown flags when parsed.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: config file is not valid UTF-8 ({exc.reason} at byte {exc.start})") from None
    tokens: list = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("_", "-")
        value = value.strip()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        lowered = value.lower()
        if lowered in ("true", "yes"):
            tokens.append(f"--{key}")
        elif lowered in ("false", "no"):
            continue
        else:
            tokens.extend([f"--{key}", value])
    return tokens


def _inject_config(argv: list) -> list:
    """Expand --config by inserting its tokens right after the subcommand,
    so every explicit flag takes precedence."""
    path = None
    for i, token in enumerate(argv):
        if token == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
            break
        if token.startswith("--config="):
            path = token.split("=", 1)[1]
            break
    if path is None:
        return argv
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    return argv[:1] + _read_config_tokens(path) + argv[1:]


def _require_file(path: str, what: str) -> None:
    if not os.path.isfile(path):
        raise ContractError(f"{what} not found: {path}")


def _load_video(arg: str, cfg: ModelConfig):
    """A path to a latent container with a video_feat record, or an id for
    the synthetic provider."""
    if os.path.exists(arg):
        records = container.read_latents(arg)
        if "video_feat" not in records:
            raise ContractError(f"{arg}: no 'video_feat' record")
        return records["video_feat"]
    return providers.video_features(arg, cfg.t_audio, cfg.d_video_feat)


def _build_condition(args, cfg: ModelConfig) -> ConditionBundle:
    text_emb = None if args.text is None else providers.text_embedding(args.text, 2, cfg.d_text)
    video_feat = None if args.video is None else _load_video(args.video, cfg)
    return ConditionBundle(text_emb=text_emb, video_feat=video_feat)


def _write_envelope_csv(out, arrays: dict, frame_rate: float) -> None:
    out.write("time," + ",".join(arrays) + "\n")
    for i in range(max(a.size for a in arrays.values())):
        cells = [repr(float(a[i])) if i < a.size else "" for a in arrays.values()]
        out.write(",".join([repr(i / frame_rate), *cells]) + "\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_train(args) -> int:
    if args.init_checkpoint is not None:
        _require_file(args.init_checkpoint, "init checkpoint")
    opt_cfg = training.OptimizerConfig(lr=args.lr, grad_clip_norm=args.clip_norm, batch_size=args.batch_size)
    stage_ids = [int(s) for s in args.stages.split(",") if s]
    steps = None
    if args.steps is not None:
        steps = [int(s) for s in args.steps.split(",") if s]
        if len(steps) != len(stage_ids):
            raise ConfigError(f"--steps lists {len(steps)} values for {len(stage_ids)} stages")
    stages = [
        training.stage_preset(sid, steps[i] if steps is not None else None)
        for i, sid in enumerate(stage_ids)
    ]
    training.check_stage_order(stages)

    cfg = ModelConfig()
    if stage_ids[0] == 1 and args.init_checkpoint is None:
        model = TwoTowerModel(cfg, seed=args.seed)
    elif args.init_checkpoint is not None:
        model = TwoTowerModel.load(args.init_checkpoint)
    else:
        raise ConfigError(f"starting at stage {stage_ids[0]} requires --init-checkpoint from stage {stage_ids[0] - 1}")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    clips = providers.make_toy_clips(
        args.data_clips,
        t_audio=model.config.t_audio,
        d_audio=model.config.d_audio_latent,
        d_video=model.config.d_video_feat,
        d_text=model.config.d_text,
        seed=derive_seed(args.seed, "data"),
    )
    datasets = {tag: clips for tag in (training.TAG_T2A, training.TAG_TV2A, training.TAG_V2A)}

    log_path = out_dir / "events.log"
    with open(log_path, "w", encoding="utf-8") as log:
        events = training.run_curriculum(
            model,
            stages,
            opt_cfg,
            datasets,
            seed=args.seed,
            out_dir=str(out_dir),
            sink=lambda e: log.write(training.format_event(e) + "\n"),
        )
    for stage in stages:
        print(f"stage {stage.stage_id}: checkpoint {out_dir / f'stage{stage.stage_id}.ckpt'}")
    print(f"{len(events)} steps logged to {log_path}")
    return 0


def _sampler_config(args) -> flow.SamplerConfig:
    return flow.SamplerConfig(nfe=args.nfe, sway_coef=args.sway, guidance_scale=args.guidance, seed=args.seed)


def cmd_sample(args) -> int:
    sampler_cfg = _sampler_config(args)
    _require_file(args.checkpoint, "checkpoint")
    model = TwoTowerModel.load(args.checkpoint)
    metrics.check_frame_rate(args.frame_rate, model.config.t_audio)
    cond = _build_condition(args, model.config)
    latent = flow.sample(model, cond, sampler_cfg)
    env = metrics.energy_envelope(latent)
    with container.replacing(args.out + ".env.csv") as env_csv:
        container.write_latents(args.out, {metrics.LATENT_RECORD: latent})
        _write_envelope_csv(env_csv, {"audio_energy": env}, args.frame_rate)
    print(f"wrote {args.out} ({latent.shape[0]} frames)")
    return 0


def cmd_eval(args) -> int:
    report = metrics.evaluate_set(args.gen_dir, args.ref_dir, args.frame_rate)
    rendered = metrics.render_report(report, as_json=args.json)
    # --out is the last file; the plot CSVs are written inside its with-block
    with container.replacing(args.out) if args.out is not None else nullcontext() as out:
        if out is not None:
            out.write(rendered + "\n")
        if args.plot is not None:
            Path(args.plot).mkdir(parents=True, exist_ok=True)
            for pair in report.pairs:
                with container.replacing(str(Path(args.plot) / f"{pair.clip_id}.envelopes.csv")) as csv:
                    envelopes = {"audio_energy": pair.gen_envelope, "video_energy": pair.ref_envelope}
                    _write_envelope_csv(csv, envelopes, args.frame_rate)
    print(rendered)
    return 0


def cmd_pipeline(args) -> int:
    _require_file(args.manifest_in, "input manifest")
    policy = datapipe.FilterPolicy(
        min_av_align=args.min_av,
        min_semantic=args.min_sem,
        drop_speech=not args.keep_speech,
        drop_bgm=not args.keep_bgm,
    )
    result = datapipe.run_pipeline(args.manifest_in, args.manifest_out, policy, report_out=args.report)
    for lineno, reason in result.parse_problems:
        print(f"warning: manifest line {lineno}: {reason}", file=sys.stderr)
    print(datapipe.render_drop_report(result))
    return 0


def cmd_refine(args) -> int:
    sampler_cfg = _sampler_config(args)
    _require_file(args.checkpoint, "checkpoint")
    _require_file(args.coarse, "coarse latent file")
    model = TwoTowerModel.load(args.checkpoint)
    metrics.check_frame_rate(args.frame_rate, model.config.t_audio)
    records = container.read_latents(args.coarse)
    if metrics.LATENT_RECORD not in records:
        raise ContractError(f"{args.coarse}: no {metrics.LATENT_RECORD!r} record")
    coarse = records[metrics.LATENT_RECORD]
    cond = _build_condition(args, model.config)
    result = refiner.refine(model, cond, coarse, args.k, sampler_cfg, args.frame_rate)
    trace_text = refiner.render_trace(result)
    with container.replacing(args.out + ".trace.csv") as trace:
        trace.write(trace_text + "\n")
        container.write_latents(args.out, {metrics.LATENT_RECORD: result.best})
    print(trace_text)
    print(f"wrote {args.out} (picked {result.picked})")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> _Parser:
    parser = _Parser(prog="foleyflow", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter
    # the config classes and metrics.FRAME_RATE hold every default that is also a flag default
    sampler = flow.SamplerConfig
    optimizer, policy = training.OptimizerConfig, datapipe.FilterPolicy

    def common(p):
        p.add_argument("--seed", type=int, default=0, help="master seed; all randomness derives from it")
        p.add_argument("--config", type=str, default=None, help="key=value file applied before explicit flags")

    def sampling(p, frame_rate_help):
        """The condition and sampler flags that sample and refine share."""
        p.add_argument("--text", type=str, default=None, help="text prompt (synthetic embedding provider)")
        p.add_argument("--video", type=str, default=None, help="video id, or path to a container with a video_feat record")
        p.add_argument("--nfe", type=_positive_int, default=sampler.nfe, help="number of integrator steps")
        p.add_argument("--sway", type=float, default=sampler.sway_coef, help="sway coefficient of the time grid")
        p.add_argument("--guidance", type=float, default=sampler.guidance_scale, help="classifier-free guidance scale")
        p.add_argument("--frame-rate", type=float, default=metrics.FRAME_RATE, help=frame_rate_help)

    p = sub.add_parser("train", formatter_class=fmt, help="run curriculum stages on the synthetic toy data")
    p.add_argument("--stages", type=str, default="1,2,3", help="comma list of stage ids")
    p.add_argument("--steps", type=str, default=None, help="comma list of step counts, one per selected stage")
    p.add_argument("--init-checkpoint", type=str, default=None, help="checkpoint to start from (required past stage 1)")
    p.add_argument("--out", type=str, required=True, help="output directory for checkpoints and events.log")
    p.add_argument("--lr", type=float, default=optimizer.lr, help="Adam learning rate")
    p.add_argument("--batch-size", type=_positive_int, default=optimizer.batch_size, help="samples per step")
    p.add_argument("--clip-norm", type=float, default=optimizer.grad_clip_norm, help="global gradient norm ceiling")
    p.add_argument("--data-clips", type=_positive_int, default=16, help="synthetic clips in the toy dataset")
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sample", formatter_class=fmt, help="generate one latent sequence from a checkpoint")
    p.add_argument("--checkpoint", type=str, required=True, help="model checkpoint")
    p.add_argument("--out", type=str, required=True, help="output latent file")
    sampling(p, "frames per second for the envelope sidecar")
    common(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("eval", formatter_class=fmt, help="compare generated and reference latent directories")
    p.add_argument("gen_dir", type=str, help="directory of generated latent files")
    p.add_argument("ref_dir", type=str, help="directory of reference latent files")
    p.add_argument("--json", action="store_true", help="emit the report as JSON")
    p.add_argument("--out", type=str, default=None, help="also write the report to this file")
    p.add_argument("--plot", type=str, default=None, help="directory for per-pair envelope curves")
    p.add_argument("--frame-rate", type=float, default=metrics.FRAME_RATE, help="frames per second of the latents")
    common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("pipeline", formatter_class=fmt, help="filter and cut a clip manifest")
    p.add_argument("manifest_in", type=str, help="input manifest path")
    p.add_argument("manifest_out", type=str, help="output manifest path")
    p.add_argument("--min-av", type=float, default=policy.min_av_align, help="minimum audio-video alignment score")
    p.add_argument("--min-sem", type=float, default=policy.min_semantic, help="minimum semantic score")
    p.add_argument("--keep-speech", action="store_true", help="keep records flagged as speech")
    p.add_argument("--keep-bgm", action="store_true", help="keep records flagged as background music")
    p.add_argument("--report", type=str, default=None, help="also write the drop report to this file")
    common(p)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("refine", formatter_class=fmt, help="best-of-k refinement of a coarse latent")
    p.add_argument("--checkpoint", type=str, required=True, help="model checkpoint")
    p.add_argument("--coarse", type=str, required=True, help="coarse latent file to refine")
    p.add_argument("--out", type=str, required=True, help="output latent file")
    p.add_argument("--k", type=_positive_int, default=4, help="number of candidates to sample")
    sampling(p, "frames per second for reward envelopes")
    common(p)
    p.set_defaults(func=cmd_refine)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_inject_config(argv))
        return args.func(args)
    except Exception as exc:  # every error, foleyflow's or not, leaves as one JSON line
        print(_error_line(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
