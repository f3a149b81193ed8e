"""Evaluation metrics for generated audio latents.

Six numbers summarize a generated set against a reference set, reported
in the fixed column order FAD, FD, KL-sigmoid, IS, CLIP, AV:

  FAD / FD     Frechet distance between Gaussian fits of two embedding
               sets, under two different embedding providers.
  KL-sigmoid   mean Kullback-Leibler divergence KL(ref || gen) over paired
               per-clip class posteriors (raw classifier scores pass
               through a logistic map, then simplex normalization).
  IS           exp(mean KL(p_i || mean p)) over generated posteriors.
  CLIP         100 * cosine similarity, clamped at zero, averaged over
               pairs of embeddings in a shared space.
  AV           fraction-of-peaks alignment between paired onset trains.

Lower is better for the first three columns, higher for the rest.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from . import container
from .errors import ContractError, ShapeError
from .providers import SyntheticEmbedder, check_sequence, pool

_PSD_TOLERANCE = 1e-6
_PROB_FLOOR = 1e-12

# onset detection and matching: peaks reach PEAK_THRESHOLD of the envelope
# maximum and lie MIN_SEPARATION s apart; matched onsets lie within
# MATCH_WINDOW s of each other
PEAK_THRESHOLD = 0.3
MIN_SEPARATION = 0.1
MATCH_WINDOW = 0.1
# frames per second of latent sequences
FRAME_RATE = 16.0
# the synthetic stand-ins every score uses: two Frechet embedders, an
# audio tagger's raw class scores, and the shared audio/video/text space
EMBED_DIM = 8
N_CLASSES = 8
FIDELITY = SyntheticEmbedder("audio-fidelity", EMBED_DIM)
DISTRIBUTION = SyntheticEmbedder("audio-distribution", EMBED_DIM)
CLASSIFIER = SyntheticEmbedder("audio-tagger/scores", N_CLASSES)
SHARED = SyntheticEmbedder("shared-space", EMBED_DIM)

REPORT_COLUMNS = ("FAD", "FD", "KL-sigmoid", "IS", "CLIP", "AV")


# ---------------------------------------------------------------------------
# typed carriers


@dataclass(frozen=True)
class EmbeddingSet:
    """n embedding vectors from one provider, as an (n, d) array."""

    vectors: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.vectors, dtype=np.float64)
        if arr.ndim != 2:
            raise ShapeError(f"embedding set must be (n, d), got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ContractError("embedding set contains non-finite values")
        object.__setattr__(self, "vectors", arr)


@dataclass(frozen=True)
class ClassPosterior:
    """Rows of per-class probabilities on the simplex."""

    probs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.probs, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] < 2:
            raise ShapeError(f"posteriors must be (n, classes >= 2), got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ContractError("posterior rows must be finite")
        if np.any(arr < 0):
            raise ContractError("posterior rows must be non-negative")
        sums = arr.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > 1e-9):
            worst = float(np.max(np.abs(sums - 1.0)))
            raise ContractError(f"posterior rows must sum to 1 within 1e-9 (worst deviation {worst:.3e})")
        object.__setattr__(self, "probs", arr)


@dataclass(frozen=True)
class PeakTrain:
    """Strictly increasing event times (seconds) within a clip duration."""

    times: tuple
    duration: float

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        if self.duration <= 0:
            raise ContractError(f"duration must be > 0, got {self.duration}")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ContractError("peak times must be strictly increasing")
        if times and not (0.0 <= times[0] and times[-1] < self.duration):
            raise ContractError(f"peak times must lie in [0, duration={self.duration})")
        object.__setattr__(self, "times", times)


# ---------------------------------------------------------------------------
# distribution metrics


def _sqrtm_psd(mat: np.ndarray, label: str) -> np.ndarray:
    """Symmetric matrix square root via eigendecomposition.

    Eigenvalues below zero are clamped; a warning fires when one falls
    below -1e-6, which signals a genuinely non-PSD input rather than
    round-off.
    """
    eigvals, eigvecs = np.linalg.eigh(mat)
    if np.any(eigvals < -_PSD_TOLERANCE):
        warnings.warn(
            f"{label}: eigenvalue {eigvals.min():.3e} below -{_PSD_TOLERANCE:g}, clamping to 0",
            RuntimeWarning,
            stacklevel=2,
        )
    clamped = np.clip(eigvals, 0.0, None)
    return (eigvecs * np.sqrt(clamped)) @ eigvecs.T


def frechet_distance(a: EmbeddingSet, b: EmbeddingSet) -> float:
    """||mu_a - mu_b||^2 + tr(S_a + S_b - 2 (S_a S_b)^{1/2}).

    Covariances are the unbiased sample estimates, so both sets need at
    least two vectors. tr((S_a S_b)^{1/2}) is computed from the symmetric
    product S_a^{1/2} S_b S_a^{1/2}, which shares its eigenvalues.
    """
    va, vb = a.vectors, b.vectors
    if va.shape[1] != vb.shape[1]:
        raise ShapeError(f"embedding dims differ: {va.shape} vs {vb.shape}")
    if va.shape[0] < 2 or vb.shape[0] < 2:
        raise ContractError(f"Frechet statistics need n >= 2 on both sides, got {va.shape[0]} and {vb.shape[0]}")
    # finite embeddings can still overflow their statistics: a bad input
    # set, which must not surface as numpy warnings or a failed eigensolve
    with np.errstate(over="ignore", invalid="ignore"):
        mu_a, mu_b = va.mean(axis=0), vb.mean(axis=0)
        cov_a = np.cov(va, rowvar=False).reshape(va.shape[1], va.shape[1])
        cov_b = np.cov(vb, rowvar=False).reshape(vb.shape[1], vb.shape[1])
        if not all(np.all(np.isfinite(stat)) for stat in (mu_a, mu_b, cov_a, cov_b)):
            raise ContractError("Frechet statistics overflow: an embedding mean or covariance is not finite")
        root_a = _sqrtm_psd(cov_a, "frechet_distance(cov_a)")
        inner = root_a @ cov_b @ root_a
        if not np.all(np.isfinite(inner)):
            raise ContractError("Frechet statistics overflow: the covariance cross term is not finite")
        inner_vals = np.linalg.eigvalsh(inner)
        if np.any(inner_vals < -_PSD_TOLERANCE):
            warnings.warn(
                f"frechet_distance: cross-term eigenvalue {inner_vals.min():.3e} clamped to 0",
                RuntimeWarning,
                stacklevel=2,
            )
        tr_sqrt = float(np.sqrt(np.clip(inner_vals, 0.0, None)).sum())
        mean_term = float(np.sum((mu_a - mu_b) ** 2))
        value = mean_term + float(np.trace(cov_a) + np.trace(cov_b)) - 2.0 * tr_sqrt
    if not math.isfinite(value):
        raise ContractError(f"Frechet distance overflows: {value}")
    # >= 0 in exact arithmetic; identical sets leave a hair of round-off
    if value < 0.0:
        if value < -_PSD_TOLERANCE:
            warnings.warn(
                f"frechet_distance: negative value {value:.3e} clamped to 0",
                RuntimeWarning,
                stacklevel=2,
            )
        value = 0.0
    return value


def _floor_rows(probs: np.ndarray) -> np.ndarray:
    floored = np.clip(probs, _PROB_FLOOR, None)
    return floored / floored.sum(axis=1, keepdims=True)


def inception_score(posteriors: ClassPosterior) -> float:
    """exp of the mean per-row KL against the marginal class distribution."""
    p = _floor_rows(posteriors.probs)
    marginal = p.mean(axis=0)
    kls = np.sum(p * (np.log(p) - np.log(marginal)), axis=1)
    return float(np.exp(kls.mean()))


def sigmoid_calibrate(raw_scores: np.ndarray) -> ClassPosterior:
    """Map raw per-class scores onto the simplex: logistic, then normalize."""
    scores = np.asarray(raw_scores, dtype=np.float64)
    if scores.ndim != 2:
        raise ShapeError(f"raw scores must be (n, classes), got shape {scores.shape}")
    # exp(-s) overflows to inf below s = -709, and 1 / (1 + inf) is the 0.0
    # the logistic rounds to there, so the warning carries no information
    with np.errstate(over="ignore"):
        squashed = 1.0 / (1.0 + np.exp(-scores))
    totals = squashed.sum(axis=1, keepdims=True)
    underflowed = np.flatnonzero(totals == 0.0)
    if underflowed.size:
        raise ContractError(f"raw score row {underflowed[0]}: the logistic of every class score underflows to 0")
    return ClassPosterior(squashed / totals)


def kl_sigmoid(p_gen: ClassPosterior, p_ref: ClassPosterior) -> float:
    """Mean KL(ref_i || gen_i) over paired posterior rows."""
    ref, gen = p_ref.probs, p_gen.probs
    if ref.shape != gen.shape:
        raise ShapeError(f"posterior sets must pair up: {ref.shape} vs {gen.shape}")
    ref = _floor_rows(ref)
    gen = _floor_rows(gen)
    kls = np.sum(ref * (np.log(ref) - np.log(gen)), axis=1)
    return float(kls.mean())


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each row pair of two (n, d) arrays. Each is its own
    vector-vector product, with the bits of np.dot on that pair."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def clip_style_score(emb_a: np.ndarray, emb_b: np.ndarray) -> np.ndarray:
    """100 * cosine similarity of each row pair of two (n, d) arrays,
    clamped below at zero: n scores, each with the bits of its own pair's
    score. Every pair needs finite, non-zero norms; the first pair without
    a cosine raises."""
    a = np.asarray(emb_a, dtype=np.float64)
    b = np.asarray(emb_b, dtype=np.float64)
    if a.ndim != 2 or a.shape != b.shape:
        raise ShapeError(f"embeddings must be two (n, d) arrays of one shape, got {a.shape} and {b.shape}")
    norm_a, norm_b = np.sqrt(_row_dots(a, a)), np.sqrt(_row_dots(b, b))
    norms = norm_a * norm_b
    undefined = np.flatnonzero(~((0.0 < norms) & (norms < math.inf)))  # NaN is undefined
    if undefined.size:
        i = undefined[0]
        raise ContractError(f"cosine similarity undefined for embedding norms {float(norm_a[i])} and {float(norm_b[i])}")
    cos = _row_dots(a, b) / norms
    cos = np.where(cos < 1.0, cos, 1.0)  # |cos| <= 1; round-off can overshoot for identical inputs
    return 100.0 * np.where(cos > 0.0, cos, 0.0)


# ---------------------------------------------------------------------------
# onset alignment


def energy_envelope(latent: np.ndarray) -> np.ndarray:
    """Per-frame root-mean-square energy of a (frames, dims) sequence, or
    of each sequence of an (..., frames, dims) stack."""
    arr = np.asarray(latent, dtype=np.float64)
    if arr.ndim < 2 or arr.shape[-2] < 1:
        raise ShapeError(f"latent must be (frames, dims), got shape {arr.shape}")
    # np.mean's arithmetic, sum then divide, without its per-call overhead
    return np.sqrt((arr * arr).sum(axis=-1) / arr.shape[-1])


def check_frame_rate(frame_rate, frames: int) -> None:
    """The one frame-rate rule of every scorer and the CLI: finite, > 0 (NaN fails) and frames / rate finite."""
    if not (0.0 < frame_rate < math.inf):
        raise ContractError(f"frame_rate must be finite and > 0, got {frame_rate!r}")
    if not math.isfinite(frames / frame_rate):
        raise ContractError(f"frame_rate {frame_rate!r} is too small: {frames} frames overflow the clip duration")


def check_peak_frames(frames: int) -> None:
    """The peak finder's length rule: a maximum needs both neighbours."""
    if frames < 3:
        raise ContractError(f"peak detection needs at least 3 frames, got {frames}")


def detect_peaks(envelope: np.ndarray, frame_rate: float) -> PeakTrain:
    """Local maxima at or above PEAK_THRESHOLD * max(envelope).

    A maximum is a strict rise followed by a strict fall; a flat top counts
    once, at its middle frame rounded down. Endpoints cannot be peaks (a
    local maximum needs both neighbours), hence the T >= 3 requirement.
    Peaks closer than MIN_SEPARATION seconds are thinned greedily, keeping
    the taller one. These are scipy.signal.find_peaks' rules with its
    height and distance options, ties included.
    """
    return peak_trains(np.asarray(envelope, dtype=np.float64).reshape(1, -1), frame_rate)[0]


def peak_trains(envelopes: np.ndarray, frame_rate: float) -> list:
    """detect_peaks of each row of an (n, frames) envelope stack.

    The maxima of every row are found at once. Only a row with two maxima
    closer than the gap is thinned, one maximum at a time.
    """
    env = np.asarray(envelopes, dtype=np.float64)
    frames = env.shape[1]
    check_peak_frames(frames)
    check_frame_rate(frame_rate, frames)
    duration = frames / frame_rate
    peak = env.max(axis=1)
    # find_peaks' scan: a strict rise into frame i at or above the height
    # starts a top; the top's flat run ends at the first frame whose
    # successor differs, and it is a maximum when that successor falls.
    # A row whose maximum is not above zero has no peaks.
    top = env[:, 1:-1]
    rises = (env[:, :-2] < top) & (top >= (PEAK_THRESHOLD * peak)[:, None]) & (peak > 0.0)[:, None]
    last = frames - 1
    run_end = np.where(env[:, 1:] != env[:, :-1], np.arange(last), last)
    run_end = np.minimum.accumulate(run_end[:, ::-1], axis=1)[:, ::-1]
    rows, start = np.nonzero(rises)
    start += 1
    end = run_end[rows, start]
    inside = end < last
    rows, start, end = rows[inside], start[inside], end[inside]
    falls = env[rows, end + 1] < env[rows, start]
    rows, maxima = rows[falls], (start[falls] + end[falls]) // 2
    # the cap keeps the gap a small int
    gap = min(math.ceil(MIN_SEPARATION * frame_rate), frames)
    crowded = set(rows[1:][(rows[1:] == rows[:-1]) & (np.diff(maxima) < gap)].tolist())
    bounds = np.searchsorted(rows, np.arange(len(env) + 1)).tolist()
    maxima = maxima.tolist()
    trains = []
    for r in range(len(env)):
        kept = maxima[bounds[r] : bounds[r + 1]]
        if r in crowded:
            kept = _thinned(env[r], kept, gap)
        trains.append(PeakTrain(times=tuple(p / frame_rate for p in kept), duration=duration))
    return trains


def _thinned(env: np.ndarray, maxima: list, gap: int) -> list:
    """Greedy thinning: tallest first, in the reversed np.argsort order
    find_peaks visits them in, so that ties resolve the same way."""
    kept: list = []
    for j in np.argsort(env[maxima])[::-1].tolist():
        if all(abs(maxima[j] - q) >= gap for q in kept):
            kept.append(maxima[j])
    return sorted(kept)


def av_align(audio_peaks: PeakTrain, video_peaks: PeakTrain) -> float:
    """Greedy one-to-one matching score between two peak trains.

    Candidate pairs within +-MATCH_WINDOW seconds are matched in order of
    ascending time difference (ties by earlier times); the score is
    matched / (|A| + |V| - matched), the intersection-over-union of the
    two trains. Two empty trains score 1.0.
    """
    a, v = audio_peaks.times, video_peaks.times
    if not a and not v:
        return 1.0
    candidates = sorted(
        (abs(ta - tv), i, j)
        for i, ta in enumerate(a)
        for j, tv in enumerate(v)
        if abs(ta - tv) <= MATCH_WINDOW
    )
    used_a: set = set()
    used_v: set = set()
    matched = 0
    for _, i, j in candidates:
        if i in used_a or j in used_v:
            continue
        used_a.add(i)
        used_v.add(j)
        matched += 1
    return matched / (len(a) + len(v) - matched)


# ---------------------------------------------------------------------------
# set-level evaluation


@dataclass(frozen=True)
class PairDetail:
    clip_id: str
    gen_envelope: np.ndarray
    ref_envelope: np.ndarray


@dataclass(frozen=True)
class EvalReport:
    values: dict
    n_pairs: int
    missing: tuple
    pairs: tuple


LATENT_EXTENSION = ".ysnd"
LATENT_RECORD = "latent"


def read_record(path: str, name: str) -> np.ndarray:
    """The record called name of the latent file at path."""
    records = container.read_latents(path)
    if name not in records:
        raise ContractError(f"{path}: no {name!r} record")
    return records[name]


def _load_latent_dir(path: str) -> dict:
    """Stem -> latent of each regular *.ysnd file, in file-name order."""
    if not os.path.isdir(path):
        raise ContractError(f"not a directory: {path}")
    with os.scandir(path) as listing:
        entries = sorted((e.name, e.path) for e in listing if e.name.endswith(LATENT_EXTENSION) and e.is_file())
    out = {}
    for name, file in entries:
        out[name[: -len(LATENT_EXTENSION)] or name] = read_record(file, LATENT_RECORD)
    return out


def _stacks(seqs: list) -> list:
    """(indices, (n, frames, dims) stack) for each shape among seqs, in
    order of first appearance. The first sequence that is not a provider
    input raises, as pooling it alone would."""
    groups: dict = {}
    for i, seq in enumerate(seqs):
        groups.setdefault(seq.shape, []).append(i)
    stacks = []
    for shape, indices in groups.items():
        check_sequence(shape)
        stacks.append((indices, np.stack([seqs[i] for i in indices])))
    return stacks


def _embed_rows(stacks: list, n: int) -> tuple:
    """(n, dim) embeddings of the sequences of _stacks under FIDELITY,
    DISTRIBUTION, CLASSIFIER and SHARED. Each stack is pooled once, and
    every provider projects the pooled rows as stacked vector-matrix
    products. Each row keeps the bits of its own sequence's embedding,
    which one plain (n, width) @ (width, dim) gemm would not."""
    embedders = (FIDELITY, DISTRIBUTION, CLASSIFIER, SHARED)
    rows = tuple(np.empty((n, e.dim)) for e in embedders)
    for indices, stack in stacks:
        pooled = pool(stack)
        for out, embedder in zip(rows, embedders):
            out[indices] = embedder.project(pooled)
    return rows


def _envelope_rows(stacks: list, n: int, frame_rate: float) -> tuple:
    """The energy envelope and the peak train of each sequence of _stacks,
    one energy_envelope and one peak_trains call per stack."""
    envelopes: list = [None] * n
    trains: list = [None] * n
    for indices, stack in stacks:
        rows = energy_envelope(stack)
        for i, env, train in zip(indices, rows, peak_trains(rows, frame_rate)):
            envelopes[i], trains[i] = env, train
    return envelopes, trains


def evaluate_set(gen_dir: str, ref_dir: str, frame_rate: float) -> EvalReport:
    """Compare latent files paired by stem name across two directories.

    The reference item of each pair stands in for the anchor modality in
    the CLIP and AV columns; ids present on only one side are listed as
    missing and excluded from every aggregate. The sets may mix latent
    shapes: the latents of each shape are scored as one stack.
    """
    gen = _load_latent_dir(gen_dir)
    ref = _load_latent_dir(ref_dir)
    shared_ids = sorted(set(gen) & set(ref))
    missing = tuple(
        sorted(
            [f"{cid} (gen only)" for cid in set(gen) - set(ref)]
            + [f"{cid} (ref only)" for cid in set(ref) - set(gen)]
        )
    )
    n = len(shared_ids)
    if n < 2:
        raise ContractError(f"evaluation needs at least 2 paired clips, found {n}")

    gen_seqs = [gen[cid] for cid in shared_ids]
    ref_seqs = [ref[cid] for cid in shared_ids]
    # a rank-0 latent has no frames; _stacks refuses it as no provider input
    check_frame_rate(frame_rate, max((len(s) for s in gen_seqs + ref_seqs if s.ndim), default=0))

    gen_stacks, ref_stacks = _stacks(gen_seqs), _stacks(ref_seqs)
    gen_fid, gen_dist, gen_scores, gen_shared = _embed_rows(gen_stacks, n)
    ref_fid, ref_dist, ref_scores, ref_shared = _embed_rows(ref_stacks, n)
    fad = frechet_distance(EmbeddingSet(gen_fid), EmbeddingSet(ref_fid))
    fd = frechet_distance(EmbeddingSet(gen_dist), EmbeddingSet(ref_dist))
    gen_posts = sigmoid_calibrate(gen_scores)
    ref_posts = sigmoid_calibrate(ref_scores)
    kl = kl_sigmoid(gen_posts, ref_posts)
    is_score = inception_score(gen_posts)

    # pair by pair, the cosine is checked before the two peak trains, so a
    # pair too short for peaks ends the cosines that count
    short = next((i for i in range(n) if min(len(gen_seqs[i]), len(ref_seqs[i])) < 3), None)
    stop = n if short is None else short + 1
    clip_scores = clip_style_score(gen_shared[:stop], ref_shared[:stop])
    if short is not None:
        detect_peaks(energy_envelope(gen_seqs[short]), frame_rate)
        detect_peaks(energy_envelope(ref_seqs[short]), frame_rate)
    gen_envs, gen_trains = _envelope_rows(gen_stacks, n, frame_rate)
    ref_envs, ref_trains = _envelope_rows(ref_stacks, n, frame_rate)
    av_scores = [av_align(g, r) for g, r in zip(gen_trains, ref_trains)]
    details = tuple(PairDetail(clip_id=cid, gen_envelope=g, ref_envelope=r) for cid, g, r in zip(shared_ids, gen_envs, ref_envs))

    values = {
        "FAD": fad,
        "FD": fd,
        "KL-sigmoid": kl,
        "IS": is_score,
        "CLIP": float(np.mean(clip_scores)),
        "AV": float(np.mean(av_scores)),
    }
    return EvalReport(values=values, n_pairs=n, missing=missing, pairs=details)


def render_report(report: EvalReport, as_json: bool) -> str:
    """Header plus one comma-separated value line; missing ids follow as
    comment lines. The JSON form carries the same fields."""
    if as_json:
        payload = {
            "columns": list(REPORT_COLUMNS),
            "values": {k: report.values[k] for k in REPORT_COLUMNS},
            "n_pairs": report.n_pairs,
            "missing": list(report.missing),
        }
        return json.dumps(payload, sort_keys=True)
    lines = [",".join(REPORT_COLUMNS)]
    lines.append(",".join(f"{report.values[c]:.6f}" for c in REPORT_COLUMNS))
    for item in report.missing:
        lines.append(f"# missing: {item}")
    return "\n".join(lines)
