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
from .metrics import SHARED, av_align, check_frame_rate, check_peak_frames, clip_style_score
from .metrics import detect_peaks, energy_envelope, peak_trains
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
    weights: dict
    aggregate: float


def _check_conditions(cond: ConditionBundle, frames: int, frame_rate: float) -> float | None:
    """reward's checks that need no candidate, for latents of frames rows
    at frame_rate: the frame-rate rule and, with video, the peak finder's
    3-frame rule on the latents and then on the video. Returns the video's
    own frame rate, rows / (frames / frame_rate), or None without video.
    """
    check_frame_rate(frame_rate, frames)
    video = cond.video_feat
    if video is None:
        return None
    rows = video.shape[0]
    check_peak_frames(frames)
    check_peak_frames(rows)
    video_rate = rows / (frames / frame_rate)
    if video_rate == math.inf:
        raise ContractError(f"frame_rate {frame_rate!r} is too large: {rows} video rows over {frames} frames overflow")
    return video_rate


def reward(candidates: np.ndarray, cond: ConditionBundle, frame_rate: float) -> list:
    """Score each candidate of an (n, frames, dims) stack against its
    conditions: a list of n reports, each with the bits that candidate
    scores alone in a 1-row stack.

    temporal    av_align of the candidate's peak train and the video's,
                each found on its energy envelope at its own frame rate,
                as evaluate_set's AV column (only when video is present).
    semantic    shared-space cosine (0..1) between the candidate and the
                video features, falling back to the text embedding; a
                zero-norm side scores 0 rather than erroring, since the
                refiner must rank arbitrary candidates.
    smoothness  1 - mean squared frame difference, floored at 0.
    REWARD_WEIGHTS renormalize over the components that apply. The video's
    peak train and the anchor's embedding are found once for the stack.
    """
    stack = np.asarray(candidates, dtype=np.float64)
    if stack.ndim != 3:
        raise ContractError(f"reward needs an (n, frames, dims) candidate stack, got shape {stack.shape}")
    n, frames = stack.shape[:2]
    video_rate = _check_conditions(cond, frames, frame_rate)
    video, text = cond.video_feat, cond.text_emb

    components: dict = {}
    if video is not None:
        envelopes, video_envelope = energy_envelope(stack), energy_envelope(video)
        trains, video_train = peak_trains(envelopes, frame_rate), detect_peaks(video_envelope, video_rate)
        components["temporal"] = [av_align(train, video_train) for train in trains]

    anchor = video if video is not None else text
    if anchor is not None:
        emb_c = SHARED.embed(stack)
        emb_a = SHARED.embed(anchor)
        semantic = np.zeros(n)
        scored = np.flatnonzero((np.linalg.norm(emb_c, axis=1) != 0.0) & (np.linalg.norm(emb_a) != 0.0))
        semantic[scored] = clip_style_score(emb_c[scored], np.broadcast_to(emb_a, (scored.size, emb_a.size))) / 100.0
        components["semantic"] = semantic.tolist()

    frame_diff = np.diff(stack, axis=1).reshape(n, -1)
    msd = (frame_diff * frame_diff).sum(axis=1) / frame_diff.shape[1] if frame_diff.size else np.zeros(n)
    components["smoothness"] = [max(0.0, 1.0 - m) for m in msd.tolist()]

    total = sum(REWARD_WEIGHTS[name] for name in components)
    used = {name: REWARD_WEIGHTS[name] / total for name in components}
    reports = []
    for i in range(n):
        row = {name: values[i] for name, values in components.items()}
        aggregate = sum(used[name] * row[name] for name in row)
        reports.append(RewardReport(components=row, weights=dict(used), aggregate=aggregate))
    return reports


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
    enters the trace. The coarse input and the sampled candidates are
    scored as one reward stack, of latents of the coarse input's shape;
    every reward check that needs no candidate (the frame rate, a coarse
    input or video too short for the temporal reward's peak trains, a
    video rate that overflows) fails before any candidate is sampled.
    The coarse input always competes, so the result never scores below
    it; ties keep it, then the lower candidate index.
    """
    check_positive_int("k", k, ContractError)

    coarse_arr = np.asarray(coarse, dtype=np.float64)
    shape = (model.config.t_audio, model.config.d_audio_latent)
    if coarse_arr.shape != shape:
        raise ContractError(f"coarse latent must have shape {shape}, got {coarse_arr.shape}")
    if not np.all(np.isfinite(coarse_arr)):
        raise ContractError("coarse latent contains non-finite values")
    _check_conditions(cond, len(coarse_arr), frame_rate)
    signal = extract_signal(cond, coarse_arr)
    cond_aug = replace(cond, extra_tokens=signal_token(signal, model.config.d_text))

    seeds = [derive_seed(sampler_cfg.seed, "candidate", i) for i in range(k)]
    candidates = flow.sample_many(model, cond_aug, sampler_cfg, seeds)
    sampled = [c for c in candidates if not isinstance(c, DivergenceError)]
    reports = iter(reward(np.stack([coarse_arr, *sampled]), cond, frame_rate))
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
