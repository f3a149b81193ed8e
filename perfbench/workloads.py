"""The three workloads: seeded inputs, one timed pass, and its checks.

A run repeats passes until the measured time reaches --seconds. Pass p of
a run with seed s gets inputs derived from (s, p), so consecutive passes
never repeat a call. Each pass returns the wall time of its timed
operations, the operations themselves, the work units done, a digest of
every output byte it produced, and the problems its checks found.

Workloads are driven only through ``foleyflow.cli.main`` and
``foleyflow.training.run_curriculum``, looked up as module attributes at
call time so that a tracer wrapping them sees every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import inspect
import io
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from checks import check_eval, check_latent, check_pipeline, check_refine_trace, check_step

SCALES = {
    "full": {
        "train_steps": (6, 4, 6),
        "batch": 8,
        "clips": 16,
        "checkpoint_steps": (8, 4, 8),
        "nfe": 64,
        "k": 4,
        "requests": ("tv", "tv", "t", "t", "v", "v"),
        "records": 100_000,
        "pairs": 1024,
        "min_passes": {"train": 7, "generate": 3, "curate": 3},
    },
    # for the benchmark's own tests: every code path, a second or two each
    "tiny": {
        "train_steps": (1, 1, 1),
        "batch": 2,
        "clips": 4,
        "checkpoint_steps": (1, 1, 1),
        "nfe": 4,
        "k": 2,
        "requests": ("tv", "t", "v"),
        "records": 300,
        "pairs": 8,
        "min_passes": {"train": 1, "generate": 1, "curate": 1},
    },
}

GUIDANCE = "2.0"
WORDS = ("dog", "door", "glass", "rain", "engine", "bell", "steps", "water", "wind", "crowd", "bird", "drum")
LABELS = ("bark", "slam", "shatter", "drip", "rev", "ring", "step", "splash", "gust", "cheer")


def pass_seed(seed: int, *keys) -> int:
    """A 31-bit seed derived from the run seed and a key path."""
    text = ":".join(str(k) for k in (seed,) + keys)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "little") >> 1


def generator(seed: int, *keys) -> np.random.Generator:
    """The benchmark's own input stream, independent of foleyflow's rng."""
    return np.random.Generator(np.random.Philox(pass_seed(seed, *keys)))


def digest_files(directory: Path, extra: bytes = b"") -> str:
    h = hashlib.sha256(extra)
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(path.relative_to(directory).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


@dataclass
class PassResult:
    wall: float = 0.0  # seconds of timed operations
    ops: list = field(default_factory=list)  # (kind, seconds)
    units: int = 0  # work units: train items, model evaluations, manifest records
    unit_seconds: float = 0.0  # the time the units are counted against
    digest: str = ""
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def op(self, kind: str, seconds: float, problems: list) -> None:
        self.ops.append((kind, seconds))
        self.wall += seconds
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def run_cli(argv: list) -> tuple:
    """One in-process ``foleyflow`` command: (seconds, exit code, stdout, stderr)."""
    from foleyflow import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main([str(a) for a in argv])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        seconds = time.perf_counter() - t0
    return seconds, code, out.getvalue(), err.getvalue()


def _cli_problems(argv: list, code, stderr: str) -> list:
    if code == 0:
        return []
    return [f"foleyflow {argv[0]} exited {code}: {stderr.strip()[-300:]}"]


# ---------------------------------------------------------------------------
# train


def toy_datasets(scale: dict, seed: int) -> dict:
    from foleyflow import providers, training
    from foleyflow.model import ModelConfig

    cfg = ModelConfig()
    clips = providers.make_toy_clips(
        scale["clips"], cfg.t_audio, cfg.d_audio_latent, cfg.d_video_feat, cfg.d_text, seed=seed
    )
    return {tag: clips for tag in (training.TAG_T2A, training.TAG_TV2A, training.TAG_V2A)}


def curriculum(steps: tuple) -> list:
    from foleyflow import training

    return [training.stage_preset(stage_id, n) for stage_id, n in zip((1, 2, 3), steps)]


class Train:
    """A fresh model runs stages 1-3 at batch 8 and checkpoints each stage."""

    name = "train"
    primary, secondary = "step", "step3"  # the ops op_ms_p50 and op2_ms_p50 read

    def __init__(self, scale: dict, seed: int, inputs: dict):
        self.scale = scale
        self.seed = seed
        self.datasets = toy_datasets(scale, pass_seed(seed, "clips"))

    @staticmethod
    def make_inputs(scale: dict, seed: int, work: Path) -> dict:
        return {}

    @staticmethod
    def setup() -> None:
        import foleyflow.training  # noqa: F401

    def run_pass(self, p: int, out: Path, cal, tracer=None) -> PassResult:
        from foleyflow import training
        from foleyflow.model import ModelConfig, TwoTowerModel

        res = PassResult()
        seed = pass_seed(self.seed, "train", p)
        opt = training.OptimizerConfig(lr=3e-3, batch_size=self.scale["batch"])
        stamps = []

        def sink(event):
            stamps.append((time.perf_counter(), event))
            if tracer is not None:
                tracer.request = p * 1000 + event.step + 1

        if tracer is not None:
            tracer.request = p * 1000 + 1
        t0 = time.perf_counter()
        model = TwoTowerModel(ModelConfig(), seed=seed)
        t1 = time.perf_counter()
        error = None
        try:
            training.run_curriculum(model, curriculum(self.scale["train_steps"]), opt, self.datasets, seed=seed,
                                    out_dir=str(out), sink=sink)
        except Exception as exc:  # a failed pass is counted, not fatal
            error = f"run_curriculum raised {type(exc).__name__}: {exc}"
        t2 = time.perf_counter()
        cal.sample()  # the steps run inside one call: one sample per pass

        prev = t1
        for stamp, event in stamps:
            res.op(f"step{event.stage_id}", stamp - prev, check_step(event.loss, event.grad_norm_preclip))
            prev = stamp
        res.wall = t2 - t0
        planned = sum(self.scale["train_steps"])
        if error is not None or len(stamps) != planned:
            res.attempted += planned - len(stamps) + 1
            res.failed += planned - len(stamps) + 1
            res.problems.append(error or f"train: {len(stamps)} of {planned} steps ran")
        ckpts = sorted(out.glob("stage*.ckpt"))
        if len(ckpts) != 3 or any(c.stat().st_size == 0 for c in ckpts):
            res.attempted += 1
            res.failed += 1
            res.problems.append(f"train: expected three non-empty stage checkpoints, found {[c.name for c in ckpts]}")
        res.units = len(stamps) * self.scale["batch"]
        res.unit_seconds = res.wall
        res.digest = digest_files(out, repr([e for _, e in stamps]).encode())
        return res


# ---------------------------------------------------------------------------
# generate


class Generate:
    """Guided sampling over a fixed modality mix, then best-of-k refinement."""

    name = "generate"
    primary, secondary = "sample", "refine"

    def __init__(self, scale: dict, seed: int, inputs: dict):
        self.scale = scale
        self.seed = seed
        self.checkpoint = inputs["checkpoint"]

    @staticmethod
    def make_inputs(scale: dict, seed: int, work: Path) -> dict:
        """Train the checkpoint the requests sample from, through the public API."""
        from foleyflow import training
        from foleyflow.model import ModelConfig, TwoTowerModel

        ck_dir = work / "checkpoint"
        ck_dir.mkdir(parents=True, exist_ok=True)
        model_seed = pass_seed(seed, "checkpoint")
        model = TwoTowerModel(ModelConfig(), seed=model_seed)
        datasets = toy_datasets(scale, pass_seed(seed, "clips"))
        opt = training.OptimizerConfig(lr=3e-3, batch_size=scale["batch"])
        training.run_curriculum(model, curriculum(scale["checkpoint_steps"]), opt, datasets, seed=model_seed,
                                out_dir=str(ck_dir))
        return {"checkpoint": str(ck_dir / "stage3.ckpt")}

    @staticmethod
    def setup() -> None:
        import foleyflow.cli  # noqa: F401

    def requests(self, p: int) -> list:
        """(flags, sampler seed) per request; the modality mix is fixed."""
        rng = generator(self.seed, "requests", p)
        out = []
        for i, mix in enumerate(self.scale["requests"]):
            flags = []
            if "t" in mix:
                flags += ["--text", " ".join(rng.choice(WORDS, size=3))]
            if "v" in mix:
                flags += ["--video", f"video-{self.seed}-{p}-{i}"]
            out.append((flags, pass_seed(self.seed, "sample", p, i)))
        return out

    def refined(self) -> list:
        """Indices of the requests whose output is refined: every text+video one."""
        return [i for i, mix in enumerate(self.scale["requests"]) if mix == "tv"]

    def evaluations(self) -> int:
        """Model evaluations per pass: Euler steps x guidance branches."""
        nfe, k = self.scale["nfe"], self.scale["k"]
        return 2 * nfe * len(self.scale["requests"]) + 2 * nfe * k * len(self.refined())

    def run_pass(self, p: int, out: Path, cal, tracer=None) -> PassResult:
        from foleyflow import container
        from foleyflow.model import ModelConfig

        cfg = ModelConfig()
        read_latents = inspect.unwrap(container.read_latents)  # the check's own reads stay out of a trace
        res = PassResult()
        nfe = str(self.scale["nfe"])
        reqs = self.requests(p)
        for i, (flags, seed) in enumerate(reqs):
            if tracer is not None:
                tracer.request = p * 100 + i
            target = out / f"sample{i}.ysnd"
            argv = ["sample", "--checkpoint", self.checkpoint, "--out", target, "--nfe", nfe,
                    "--guidance", GUIDANCE, "--seed", seed] + flags
            seconds, code, _, err = run_cli(argv)
            cal.sample()
            problems = _cli_problems(argv, code, err)
            if not problems:
                problems = check_latent(read_latents(str(target))["latent"], (cfg.t_audio, cfg.d_audio_latent))
            res.op("sample", seconds, problems)

        for i in self.refined():
            if tracer is not None:
                tracer.request = p * 100 + len(reqs) + i
            flags, seed = reqs[i]
            target = out / f"refined{i}.ysnd"
            argv = ["refine", "--checkpoint", self.checkpoint, "--coarse", out / f"sample{i}.ysnd", "--out", target,
                    "--k", self.scale["k"], "--nfe", nfe, "--guidance", GUIDANCE, "--seed", seed] + flags
            seconds, code, _, err = run_cli(argv)
            cal.sample()
            problems = _cli_problems(argv, code, err)
            if not problems:
                problems = check_refine_trace(Path(f"{target}.trace.csv").read_text(), self.scale["k"])
            res.op("refine", seconds, problems)

        res.units = self.evaluations()
        res.unit_seconds = res.wall
        res.digest = digest_files(out)
        return res


# ---------------------------------------------------------------------------
# curate


MALFORMED = (
    lambda rec: rec.rsplit(",", 1)[0],  # a field short
    lambda rec: rec[:-1] + "2",  # bad flag
    lambda rec: rec.split(",", 1)[0] + ",abc," + rec.split(",", 2)[2],  # duration not a number
    lambda rec: ",".join(rec.split(",")[:3] + ["1.5"] + rec.split(",")[4:]),  # score out of range
    lambda rec: ",".join(rec.split(",")[:2] + ["thud:0.5"] + rec.split(",")[3:]),  # event not label:start:end
)


def make_manifest(path: Path, n: int, rng: np.random.Generator) -> dict:
    """Write an n-line manifest and return what the pipeline must make of it.

    Records vary their event count (0-4, some a single full-cover event),
    leave scores unset, carry speech and bgm flags, and about 2% of lines
    are malformed. The expected counts follow the documented drop order
    unscored, alignment, semantic, speech, bgm at the default policy.
    """
    lines = ["#ysnd-manifest v1"]
    expected = {"lines": n, "malformed": 0, "kept": 0, "segments": 0,
                "dropped": {r: 0 for r in ("unscored", "alignment", "semantic", "speech", "bgm")}}
    # plain Python numbers, so repr() writes them as the manifest expects
    dur_ms = rng.integers(1000, 20001, size=n).tolist()
    n_events = rng.choice(5, size=n, p=(0.1, 0.35, 0.25, 0.2, 0.1)).tolist()
    full_cover = (rng.random(n) < 0.05).tolist()
    av = rng.integers(0, 1001, size=n).tolist()
    sem = rng.integers(0, 1001, size=n).tolist()
    unscored = (rng.random(n) < 0.08).tolist()
    speech = (rng.random(n) < 0.12).tolist()
    bgm = (rng.random(n) < 0.12).tolist()
    malformed = (rng.random(n) < 0.02).tolist()
    kinds = rng.integers(len(MALFORMED), size=n).tolist()
    # event i of a record spans [start, end) ms with 0 <= start < end <= duration
    d_col = np.array(dur_ms)[:, None]
    starts = np.floor(rng.random((n, 4)) * d_col).astype(np.int64)
    ends = (starts + 1 + np.floor(rng.random((n, 4)) * (d_col - starts))).astype(np.int64)
    starts, ends = starts.tolist(), ends.tolist()
    for i in range(n):
        d = dur_ms[i]
        if full_cover[i]:
            spans = [(0, d)]
        else:
            spans = list(zip(starts[i][: n_events[i]], ends[i][: n_events[i]]))
        events = ";".join(f"{LABELS[(i + j) % len(LABELS)]}:{s / 1000!r}:{e / 1000!r}" for j, (s, e) in enumerate(spans))
        av_s = "-" if unscored[i] and i % 2 else repr(av[i] / 1000)
        sem_s = "-" if unscored[i] and not i % 2 else repr(sem[i] / 1000)
        rec = f"c{i:06d},{d / 1000!r},{events},{av_s},{sem_s},{int(speech[i])},{int(bgm[i])}"
        if malformed[i]:
            lines.append(MALFORMED[kinds[i]](rec))
            expected["malformed"] += 1
            continue
        lines.append(rec)
        if unscored[i]:
            reason = "unscored"
        elif av[i] / 1000 < 0.2:
            reason = "alignment"
        elif sem[i] / 1000 < 0.3:
            reason = "semantic"
        elif speech[i]:
            reason = "speech"
        elif bgm[i]:
            reason = "bgm"
        else:
            expected["kept"] += 1
            expected["segments"] += len(spans)
            continue
        expected["dropped"][reason] += 1
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return expected


def make_latent_pairs(gen_dir: Path, ref_dir: Path, n: int, rng: np.random.Generator) -> dict:
    """n paired latent files with onset spikes, plus a few unpaired ids.

    Reference spikes sit within a frame of the generated ones, so the
    alignment metric has real peaks to match.
    """
    from foleyflow import container, metrics
    from foleyflow.model import ModelConfig

    cfg = ModelConfig()
    t, d = cfg.t_audio, cfg.d_audio_latent
    gen_dir.mkdir(parents=True, exist_ok=True)
    ref_dir.mkdir(parents=True, exist_ok=True)
    unpaired = max(1, n // 100)
    total = n + 2 * unpaired
    direction = rng.normal(size=d)
    direction /= np.linalg.norm(direction)
    gen = rng.normal(size=(total, t, d)) * 0.05
    ref = rng.normal(size=(total, t, d)) * 0.05
    n_spikes = rng.integers(1, 4, size=total)
    frames = rng.integers(2, t - 2, size=(total, 3))
    shifts = rng.integers(-1, 2, size=(total, 3))
    for i in range(total):
        for f, shift in zip(frames[i, : n_spikes[i]], shifts[i, : n_spikes[i]]):
            gen[i, f] += 2.0 * direction
            ref[i, min(t - 1, f + shift)] += 2.0 * direction
        name = f"clip{i:05d}{metrics.LATENT_EXTENSION}"
        if i < n + unpaired:
            container.write_latents(str(gen_dir / name), {metrics.LATENT_RECORD: gen[i]})
        if i < n or i >= n + unpaired:
            container.write_latents(str(ref_dir / name), {metrics.LATENT_RECORD: ref[i]})
    return {"pairs": n, "missing": 2 * unpaired}


class Curate:
    """Manifest filtering and cutting, then set-level evaluation.

    Consecutive passes alternate between two manifests, and every pass
    evaluates the latent pairs both ways round (generated against
    reference, then swapped), so no call repeats the one before it.
    """

    name = "curate"
    primary, secondary = "pipeline", "eval"
    SETS = 2

    def __init__(self, scale: dict, seed: int, inputs: dict):
        self.inputs = inputs

    @staticmethod
    def make_inputs(scale: dict, seed: int, work: Path) -> dict:
        pairs = make_latent_pairs(work / "gen", work / "ref", scale["pairs"], generator(seed, "latents"))
        manifests = []
        for s in range(Curate.SETS):
            manifest = work / f"manifest{s}.csv"
            expected = make_manifest(manifest, scale["records"], generator(seed, "manifest", s))
            manifests.append({"path": str(manifest), "expected": expected})
        return {"manifests": manifests, "gen": str(work / "gen"), "ref": str(work / "ref"), "eval": pairs}

    @staticmethod
    def setup() -> None:
        import foleyflow.cli  # noqa: F401

    def run_pass(self, p: int, out: Path, cal, tracer=None) -> PassResult:
        res = PassResult()
        manifest = self.inputs["manifests"][p % self.SETS]
        if tracer is not None:
            tracer.request = p * 10
        manifest_out, report = out / "kept.csv", out / "drops.txt"
        argv = ["pipeline", manifest["path"], manifest_out, "--report", report]
        seconds, code, _, err = run_cli(argv)
        cal.sample()
        problems = _cli_problems(argv, code, err)
        if not problems:
            out_lines = len(manifest_out.read_text(encoding="utf-8").splitlines()) - 1
            problems = check_pipeline(report.read_text(), err, out_lines, manifest["expected"])
        res.op("pipeline", seconds, problems)
        res.units = manifest["expected"]["lines"]
        res.unit_seconds = seconds

        for i, (gen, ref) in enumerate(((self.inputs["gen"], self.inputs["ref"]),
                                        (self.inputs["ref"], self.inputs["gen"]))):
            if tracer is not None:
                tracer.request = p * 10 + 1 + i
            eval_report = out / f"eval{i}.json"
            argv = ["eval", gen, ref, "--json", "--out", eval_report]
            seconds, code, _, err = run_cli(argv)
            cal.sample()
            problems = _cli_problems(argv, code, err)
            if not problems:
                problems = check_eval(eval_report.read_text(), self.inputs["eval"])
            res.op("eval", seconds, problems)

        res.digest = digest_files(out)
        return res


WORKLOADS = {w.name: w for w in (Train, Generate, Curate)}


def fresh_dir(path: Path) -> Path:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def save_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
