"""Reward-gated refinement of a coarse generation.

A compact signal embedding pooled from the conditions and the coarse
output is injected into the sampler as one extra conditioning token;
k re-sampled candidates then compete with the coarse output under a
weighted reward, and the argmax wins. Because the coarse output always
competes, the selected output never scores below it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import flow
from .errors import ContractError, DivergenceError, check_positive_int
from .metrics import FRAME_RATE, SHARED, check_frame_rate, clip_style_score, energy_envelope, envelope_alignment
from .model import ConditionBundle
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

    Mean and max over time of the video features and of the coarse
    latents, concatenated with the mean-pooled text embedding, then a
    fixed seeded linear projection (no bias, so all-zero inputs map to
    the zero signal). Absent modalities contribute zeros of their slot.
    """
    coarse_arr = np.asarray(coarse, dtype=np.float64)
    if coarse_arr.ndim != 2:
        raise ContractError("extract_signal needs a 2-D coarse latent sequence")
    video, text = cond.video_feat, cond.text_emb

    vid_dim = video.shape[1] if video is not None else 0
    txt_dim = text.shape[1] if text is not None else 0
    segments = [
        np.concatenate([video.mean(axis=0), video.max(axis=0)]) if video is not None else np.zeros(0),
        np.concatenate([coarse_arr.mean(axis=0), coarse_arr.max(axis=0)]),
        text.mean(axis=0) if text is not None else np.zeros(0),
    ]
    pooled = np.concatenate(segments)
    proj = _fixed_projection(f"signal-project/v{vid_dim}/t{txt_dim}", pooled.size, _D_SIGNAL)
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


def reward(candidate: np.ndarray, cond: ConditionBundle, frame_rate: float = FRAME_RATE) -> RewardReport | list:
    """Score one candidate against its conditions.

    temporal    peak alignment between the candidate envelope and the
                video envelope (only when video is present).
    semantic    shared-space cosine (0..1) between the candidate and the
                video features, falling back to the text embedding; a
                zero-norm side scores 0 rather than erroring, since the
                refiner must rank arbitrary candidates.
    smoothness  1 - mean squared frame difference, floored at 0.
    REWARD_WEIGHTS renormalize over the components that apply.

    An (n, frames, dims) stack of candidates gives a list of n reports,
    each with the bits of its own candidate's report. The video's peak
    train and the anchor's embedding are found once for the whole stack.
    """
    cands = np.asarray(candidate, dtype=np.float64)
    if cands.ndim not in (2, 3):
        raise ContractError("reward needs a 2-D candidate latent sequence")
    stack = cands if cands.ndim == 3 else cands[None]
    n, frames = stack.shape[:2]
    check_frame_rate(frame_rate, frames)
    video, text = cond.video_feat, cond.text_emb

    components: dict = {}
    if video is not None:
        video_rate = video.shape[0] / (frames / frame_rate)
        components["temporal"] = envelope_alignment(energy_envelope(stack), frame_rate, energy_envelope(video), video_rate)

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
    return reports if cands.ndim == 3 else reports[0]


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
    frame_rate: float = FRAME_RATE,
    sample_fn=None,
) -> RefineResult:
    """Sample k signal-conditioned candidates and keep the best by reward.

    Candidate i runs with a seed derived from (sampler_cfg.seed, i), so
    the whole call is deterministic. The coarse input must be a finite
    (t_audio, d_audio_latent) array under the model's config. The k
    candidates share one batched trajectory: sample_fn(model, cond,
    sampler_cfg, seeds) returns one latent or DivergenceError per seed
    (flow.sample_many by default, which keeps a diverged row in the batch,
    zeroed, so the others keep their bits). A diverged candidate only
    enters the trace. The coarse input and the sampled candidates are
    scored as one reward stack, of latents of the coarse input's shape.
    The coarse input always competes, so the result never scores below
    it; ties keep it, then the lower candidate index.
    """
    check_positive_int("k", k, ContractError)
    sample_fn = sample_fn if sample_fn is not None else flow.sample_many

    coarse_arr = np.asarray(coarse, dtype=np.float64)
    shape = (model.config.t_audio, model.config.d_audio_latent)
    if coarse_arr.shape != shape:
        raise ContractError(f"coarse latent must have shape {shape}, got {coarse_arr.shape}")
    if not np.all(np.isfinite(coarse_arr)):
        raise ContractError("coarse latent contains non-finite values")
    signal = extract_signal(cond, coarse_arr)
    cond_aug = replace(cond, extra_tokens=signal_token(signal, model.config.d_text))

    seeds = [derive_seed(sampler_cfg.seed, "candidate", i) for i in range(k)]
    candidates = sample_fn(model, cond_aug, sampler_cfg, seeds)
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
