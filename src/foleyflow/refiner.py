"""Reward-gated refinement of a coarse generation.

A compact signal embedding pooled from the conditions and the coarse
output is injected into the sampler as one extra conditioning token;
k re-sampled candidates then compete with the coarse output under a
weighted reward, and the argmax wins. Because the coarse output always
competes, the selected output never scores below it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import flow
from .errors import ContractError, DivergenceError, check_positive_int
from .metrics import SHARED, PeakTrain, av_align, check_frame_rate, check_peak_frames, clip_style_score
from .metrics import detect_peaks, energy_envelope, peak_trains, row_dots
from .model import ConditionBundle
from .providers import pool
from .rng import SeededRng, derive_seed, string_seed

# width of the pooled signal embedding
_D_SIGNAL = 16
# reward component weights; they sum to 1 and renormalize over the
# components that apply to a candidate
REWARD_WEIGHTS = {"temporal": 0.5, "semantic": 0.4, "smoothness": 0.1}


def _fixed_projection(tag: str, d_in: int, d_out: int) -> np.ndarray:
    rng = SeededRng(derive_seed(string_seed("refiner"), tag, d_in, d_out))
    return rng.normal((d_in, d_out)) / np.sqrt(d_in)


def extract_signal(cond: ConditionBundle, coarse: np.ndarray) -> np.ndarray:
    """Pool conditions and the coarse output into a _D_SIGNAL-wide vector.

    The pool() of the video features and of the coarse latents (mean,
    then max over time), concatenated with the mean-pooled text
    embedding, then a fixed seeded linear projection (no bias, so
    all-zero inputs map to the zero signal). Absent modalities contribute zeros of their slot.
    """
    video, text = cond.video_feat, cond.text_emb
    video_pool = pool(video) if video is not None else np.zeros(0)
    text_pool = text.mean(axis=0) if text is not None else np.zeros(0)
    pooled = np.concatenate([video_pool, pool(coarse), text_pool])
    proj = _fixed_projection(f"signal-project/v{video_pool.size // 2}/t{text_pool.size}", pooled.size, _D_SIGNAL)
    return pooled @ proj


def signal_token(signal: np.ndarray, d_text: int) -> np.ndarray:
    """Project a signal embedding into text-token space, shape (1, d_text)."""
    vec = np.asarray(signal, dtype=np.float64).reshape(-1)
    proj = _fixed_projection("signal-token", vec.size, d_text)
    return (vec @ proj).reshape(1, d_text)


@dataclass(frozen=True)
class RewardReport:
    components: dict
    aggregate: float


@dataclass(frozen=True)
class RewardContext:
    frames: int
    frame_rate: float
    video_train: PeakTrain | None  # the video's peaks at its own rate
    anchor: np.ndarray | None  # SHARED embedding of the video, else the text
    anchor_norm: float
    weights: dict  # REWARD_WEIGHTS renormalized over the components that apply


@np.errstate(over="ignore", invalid="ignore")  # overflow fails as a ContractError
def reward_context(cond: ConditionBundle, frames: int, frame_rate: float) -> RewardContext:
    """Everything reward needs of the conditions, for latents of frames
    rows at frame_rate, checked in this order: the frame-rate rule; with
    video, the 3-frame rule on the latents, then on the video rows, and a
    video rate, rows / (frames / frame_rate), that does not overflow; an
    anchor embedding of finite norm, or a ContractError naming its field."""
    check_frame_rate(frame_rate, frames)
    video, text = cond.video_feat, cond.text_emb
    video_train, anchor, anchor_norm = None, None, 0.0
    if video is not None:
        rows = video.shape[0]
        check_peak_frames(frames)
        # detect_peaks checks the rows; fewer than 3 over 3+ frames cannot overflow the rate
        video_rate = rows / (frames / frame_rate)
        if video_rate == math.inf:
            raise ContractError(f"frame_rate {frame_rate!r} is too large: {rows} video rows over {frames} frames overflow")
        video_train = detect_peaks(energy_envelope(video), video_rate)
    if video is not None or text is not None:
        field = "video_feat" if video is not None else "text_emb"
        anchor = SHARED.embed(getattr(cond, field))
        anchor_norm = float(np.sqrt(row_dots(anchor[None], anchor[None]))[0])
        if not math.isfinite(anchor_norm):
            raise ContractError(f"{field}'s shared-space embedding has non-finite norm {anchor_norm}")
    applies = {"temporal": video is not None, "semantic": anchor is not None, "smoothness": True}
    total = sum(REWARD_WEIGHTS[name] for name in REWARD_WEIGHTS if applies[name])
    weights = {name: REWARD_WEIGHTS[name] / total for name in REWARD_WEIGHTS if applies[name]}
    return RewardContext(frames, frame_rate, video_train, anchor, anchor_norm, weights)


@np.errstate(over="ignore", invalid="ignore")  # a finite candidate always scores
def reward(candidates: np.ndarray, context: RewardContext) -> list:
    """Score each candidate of an (n, context.frames, dims) stack: a list
    of n reports, each with the bits that candidate scores alone in a
    1-row stack. Any finite candidate scores.

    temporal    av_align of the candidate's peak train and the video's,
                each found on its energy envelope at its own frame rate,
                as evaluate_set's AV column (only when video is present).
    semantic    shared-space cosine (0..1) between the candidate and the
                anchor; a candidate whose cosine is undefined (the product
                of the norms is zero or not finite) scores 0.
    smoothness  1 - mean squared frame difference, floored at 0.
    The aggregate weighs them by context.weights.
    """
    stack = np.asarray(candidates, dtype=np.float64)
    if stack.ndim != 3 or stack.shape[1] != context.frames:
        raise ContractError(f"reward needs an (n, {context.frames}, dims) candidate stack, got shape {stack.shape}")
    n = len(stack)
    components: dict = {}
    if context.video_train is not None:
        trains = peak_trains(energy_envelope(stack), context.frame_rate)
        components["temporal"] = [av_align(train, context.video_train) for train in trains]

    if context.anchor is not None:
        emb_c = SHARED.embed(stack)
        norms = np.sqrt(row_dots(emb_c, emb_c)) * context.anchor_norm  # clip_style_score's own norms
        scored = np.flatnonzero((0.0 < norms) & (norms < math.inf))
        anchors = np.broadcast_to(context.anchor, (scored.size, context.anchor.size))
        semantic = np.zeros(n)
        semantic[scored] = clip_style_score(emb_c[scored], anchors) / 100.0
        components["semantic"] = semantic.tolist()

    frame_diff = np.diff(stack, axis=1).reshape(n, -1)
    msd = (frame_diff * frame_diff).sum(axis=1) / frame_diff.shape[1] if frame_diff.size else np.zeros(n)
    components["smoothness"] = [max(0.0, 1.0 - m) for m in msd.tolist()]

    rows = [{name: values[i] for name, values in components.items()} for i in range(n)]
    weights = context.weights
    return [RewardReport(row, sum(weights[name] * row[name] for name in row)) for row in rows]


@dataclass(frozen=True)
class TraceEntry:
    index: int
    seed: int
    report: RewardReport | None = None
    error: str | None = None


@dataclass(frozen=True)
class RefineResult:
    best: np.ndarray
    report: RewardReport
    coarse_report: RewardReport
    picked: str  # "coarse" or "candidate:<i>"
    trace: tuple


def refine(
    model,
    cond: ConditionBundle,
    coarse: np.ndarray,
    k: int,
    sampler_cfg: flow.SamplerConfig,
    frame_rate: float,
) -> RefineResult:
    """Sample k signal-conditioned candidates and keep the best by reward.

    Candidate i runs with a seed derived from (sampler_cfg.seed, i), so
    the whole call is deterministic. The coarse input must be a finite
    (t_audio, d_audio_latent) array under the model's config. The k
    candidates share one batched trajectory: flow.sample_many returns one
    latent or DivergenceError per seed, and keeps a diverged row in the
    batch, zeroed, so the others keep their bits. A diverged candidate only
    enters the trace. The reward_context is built once, before the
    signal is extracted or any candidate sampled, so every reward rule
    that needs no candidate fails first; the coarse input and the sampled
    candidates are then scored as one reward stack. The coarse input
    always competes, so the result never scores below it; ties keep it,
    then the lower candidate index.
    """
    check_positive_int("k", k, ContractError)

    coarse_arr = np.asarray(coarse, dtype=np.float64)
    shape = (model.config.t_audio, model.config.d_audio_latent)
    if coarse_arr.shape != shape:
        raise ContractError(f"coarse latent must have shape {shape}, got {coarse_arr.shape}")
    if not np.all(np.isfinite(coarse_arr)):
        raise ContractError("coarse latent contains non-finite values")
    context = reward_context(cond, len(coarse_arr), frame_rate)
    signal = extract_signal(cond, coarse_arr)
    cond_aug = replace(cond, extra_tokens=signal_token(signal, model.config.d_text))

    seeds = [derive_seed(sampler_cfg.seed, "candidate", i) for i in range(k)]
    candidates = flow.sample_many(model, cond_aug, sampler_cfg, seeds)
    sampled = [c for c in candidates if not isinstance(c, DivergenceError)]
    reports = iter(reward(np.stack([coarse_arr, *sampled]), context))
    coarse_report = next(reports)
    best_arr, best_report, picked = coarse_arr, coarse_report, "coarse"
    trace: list = []
    for i, (seed_i, candidate) in enumerate(zip(seeds, candidates, strict=True)):
        if isinstance(candidate, DivergenceError):
            trace.append(TraceEntry(index=i, seed=seed_i, error=str(candidate)))
            continue
        cand_report = next(reports)
        trace.append(TraceEntry(index=i, seed=seed_i, report=cand_report))
        if cand_report.aggregate > best_report.aggregate:
            best_arr, best_report, picked = candidate, cand_report, f"candidate:{i}"

    return RefineResult(
        best=best_arr,
        report=best_report,
        coarse_report=coarse_report,
        picked=picked,
        trace=tuple(trace),
    )


_TRACE_COLUMNS = ("index", "seed", "temporal", "semantic", "smoothness", "aggregate", "status")


def render_trace(result: RefineResult) -> str:
    """CSV trace: one line per attempted candidate, '-' for absent values."""

    def row(entry: TraceEntry) -> str:
        if entry.report is None:
            return f"{entry.index},{entry.seed},-,-,-,-,failed"
        comp = entry.report.components
        cells = [str(entry.index), str(entry.seed)]
        for name in ("temporal", "semantic", "smoothness"):
            cells.append(f"{comp[name]:.6f}" if name in comp else "-")
        cells.append(f"{entry.report.aggregate:.6f}")
        cells.append("ok")
        return ",".join(cells)

    lines = [",".join(_TRACE_COLUMNS)]
    lines.extend(row(e) for e in result.trace)
    lines.append(f"# coarse_aggregate,{result.coarse_report.aggregate:.6f}")
    lines.append(f"# picked,{result.picked}")
    return "\n".join(lines)
