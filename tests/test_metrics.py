"""Metric oracles: hand-computable fixtures for every column."""

import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from foleyflow import container, metrics, providers, refiner
from foleyflow.errors import ContractError, ShapeError
from foleyflow.model import ConditionBundle, ModelConfig
from foleyflow.metrics import (
    FRAME_RATE,
    MIN_SEPARATION,
    PEAK_THRESHOLD,
    REPORT_COLUMNS,
    ClassPosterior,
    EmbeddingSet,
    PeakTrain,
    av_align,
    clip_style_score,
    detect_peaks,
    energy_envelope,
    evaluate_set,
    frechet_distance,
    inception_score,
    kl_sigmoid,
    peak_trains,
    render_report,
    sigmoid_calibrate,
)
from foleyflow.providers import SyntheticEmbedder, pool


# ---------------------------------------------------------------------------
# carriers


def test_embedding_set_validation():
    with pytest.raises(ShapeError):
        EmbeddingSet(np.zeros(4))
    with pytest.raises(ContractError):
        EmbeddingSet(np.array([[np.nan, 0.0]]))


def test_every_scorer_rejects_bad_frame_rate(tmp_path):
    items = _toy_latents(0)
    _write_latents(tmp_path / "gen", items)
    _write_latents(tmp_path / "ref", items)
    latent = items["clip0"]
    env = energy_envelope(latent)
    scorers = {
        "detect_peaks": lambda fr: detect_peaks(env, fr),
        "evaluate_set": lambda fr: evaluate_set(str(tmp_path / "gen"), str(tmp_path / "ref"), fr),
        "reward": lambda fr: refiner.reward_context(ConditionBundle(video_feat=latent), len(latent), fr),
    }
    for name, score in scorers.items():
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ContractError, match="frame_rate"):
                score(bad)
                pytest.fail(f"{name} accepted frame_rate {bad}")


def test_posterior_validation():
    ClassPosterior(np.array([[0.5, 0.5]]))
    with pytest.raises(ContractError):
        ClassPosterior(np.array([[0.6, 0.6]]))
    with pytest.raises(ContractError):
        ClassPosterior(np.array([[-0.1, 1.1]]))
    with pytest.raises(ContractError, match="finite"):
        ClassPosterior(np.array([[np.nan, np.nan]]))
    with pytest.raises(ShapeError):
        ClassPosterior(np.array([[1.0]]))


def test_peak_train_validation():
    PeakTrain(times=(0.1, 0.5), duration=1.0)
    PeakTrain(times=(), duration=1.0)
    with pytest.raises(ContractError):
        PeakTrain(times=(0.5, 0.5), duration=1.0)
    with pytest.raises(ContractError):
        PeakTrain(times=(0.5, 1.5), duration=1.0)
    with pytest.raises(ContractError):
        PeakTrain(times=(0.0,), duration=0.0)


# ---------------------------------------------------------------------------
# Frechet distance


def test_frechet_identical_sets_is_zero():
    rng = np.random.default_rng(0)
    vecs = rng.normal(size=(16, 4))
    a, b = EmbeddingSet(vecs), EmbeddingSet(vecs.copy())
    assert frechet_distance(a, b) == 0.0


def test_frechet_univariate_closed_form():
    # 1-D Gaussians: FD = (mu_a - mu_b)^2 + (sd_a - sd_b)^2.
    # [-1, 1] has mean 0, sample var 2; [2, 4] has mean 3, sample var 2.
    a = EmbeddingSet(np.array([[-1.0], [1.0]]))
    b = EmbeddingSet(np.array([[2.0], [4.0]]))
    assert abs(frechet_distance(a, b) - 9.0) <= 1e-9


def test_frechet_mean_shift_only():
    # identical covariances cancel the trace terms, leaving ||mu diff||^2
    rng = np.random.default_rng(1)
    base = rng.normal(size=(32, 3))
    shift = np.array([1.0, -2.0, 0.5])
    a = EmbeddingSet(base)
    b = EmbeddingSet(base + shift)
    assert abs(frechet_distance(a, b) - float(np.sum(shift**2))) <= 1e-9


def test_frechet_symmetry():
    rng = np.random.default_rng(2)
    a = EmbeddingSet(rng.normal(size=(20, 5)))
    b = EmbeddingSet(rng.normal(size=(24, 5)) * 1.5 + 0.3)
    assert abs(frechet_distance(a, b) - frechet_distance(b, a)) <= 1e-9


def test_frechet_gaussian_oracle():
    # large-sample check against the population value ||mu||^2 for
    # N(0, I) vs N(mu, I)
    rng = np.random.default_rng(3)
    n, d = 4000, 6
    mu = np.full(d, 0.8)
    a = EmbeddingSet(rng.normal(size=(n, d)))
    b = EmbeddingSet(rng.normal(size=(n, d)) + mu)
    fd = frechet_distance(a, b)
    expected = float(np.sum(mu**2))
    assert abs(fd - expected) / expected < 0.05


def test_frechet_contracts():
    a = EmbeddingSet(np.zeros((3, 2)))
    with pytest.raises(ShapeError):
        frechet_distance(a, EmbeddingSet(np.zeros((3, 3))))
    with pytest.raises(ContractError):
        frechet_distance(a, EmbeddingSet(np.zeros((1, 2))))


# ---------------------------------------------------------------------------
# classifier-based metrics


def test_inception_score_balanced_one_hots_equals_class_count():
    for c in (2, 4, 8):
        probs = np.tile(np.eye(c), (3, 1))
        score = inception_score(ClassPosterior(probs))
        assert abs(score - c) <= 1e-8 * c


def test_inception_score_uniform_rows_is_one():
    probs = np.full((5, 4), 0.25)
    assert abs(inception_score(ClassPosterior(probs)) - 1.0) <= 1e-12


def test_sigmoid_calibrate_hand_value():
    # logistic(0) = 1/2, logistic(ln 3) = 3/4; normalized: (0.4, 0.6)
    post = sigmoid_calibrate(np.array([[0.0, math.log(3.0)]]))
    assert np.abs(post.probs - np.array([[0.4, 0.6]])).max() <= 1e-12


def test_sigmoid_calibrate_far_out_scores_warn_nothing():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        post = sigmoid_calibrate(np.array([[-800.0, 0.0], [3000.0, -3000.0]]))
        assert post.probs.tolist() == [[0.0, 1.0], [1.0, 0.0]]
        with pytest.raises(ContractError, match="row 1: the logistic of every class score underflows"):
            sigmoid_calibrate(np.array([[0.0, 0.0], [-800.0, -800.0]]))


def test_sigmoid_calibrate_shape_error():
    with pytest.raises(ShapeError):
        sigmoid_calibrate(np.zeros(3))


def test_kl_sigmoid_hand_value():
    # KL((0.9, 0.1) || (0.5, 0.5)) = 0.9 ln 1.8 + 0.1 ln 0.2
    gen = ClassPosterior(np.array([[0.5, 0.5]]))
    ref = ClassPosterior(np.array([[0.9, 0.1]]))
    expected = 0.9 * math.log(1.8) + 0.1 * math.log(0.2)
    assert abs(kl_sigmoid(gen, ref) - expected) <= 1e-12


def test_kl_sigmoid_self_is_zero():
    p = ClassPosterior(np.array([[0.3, 0.7], [0.6, 0.4]]))
    assert kl_sigmoid(p, p) == 0.0


def test_kl_sigmoid_direction():
    # KL(ref || gen) penalizes gen mass missing where ref has mass
    ref = ClassPosterior(np.array([[1.0, 0.0]]))
    gen_good = ClassPosterior(np.array([[0.9, 0.1]]))
    gen_bad = ClassPosterior(np.array([[0.1, 0.9]]))
    assert kl_sigmoid(gen_bad, ref) > kl_sigmoid(gen_good, ref)


def test_kl_sigmoid_shape_contract():
    with pytest.raises(ShapeError):
        kl_sigmoid(ClassPosterior(np.full((2, 2), 0.5)), ClassPosterior(np.full((3, 2), 0.5)))


# ---------------------------------------------------------------------------
# CLIP-style score


def test_clip_score_fixed_angles():
    assert clip_style_score(np.array([[1.0, 0.0]]), np.array([[2.0, 0.0]])).tolist() == [100.0]
    assert clip_style_score(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])).tolist() == [0.0]
    # opposite vectors clamp at zero rather than going negative
    assert clip_style_score(np.array([[1.0, 0.0]]), np.array([[-1.0, 0.0]])).tolist() == [0.0]
    # 60 degrees: cos = 1/2
    [value] = clip_style_score(np.array([[1.0, 0.0]]), np.array([[1.0, math.sqrt(3.0)]]))
    assert abs(value - 50.0) <= 1e-9


def test_clip_score_zero_norm_rejected():
    with pytest.raises(ContractError):
        clip_style_score(np.zeros((1, 3)), np.ones((1, 3)))


@pytest.mark.parametrize("a, b", [((3,), (3,)), ((2, 3), (3, 2)), ((1, 2, 3), (1, 2, 3)), ((2, 3), (1, 3))])
def test_clip_score_refuses_anything_but_two_row_stacks_of_one_shape(a, b):
    with pytest.raises(ShapeError, match="two \\(n, d\\) arrays of one shape"):
        clip_style_score(np.ones(a), np.ones(b))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_clip_score_rejects_non_finite_embeddings(bad):
    # min(1.0, nan) is 1.0, so an unchecked NaN cosine scores a perfect 100
    for a, b in (([bad, 1.0, 0.0], [1.0, 1.0, 1.0]), ([1.0, 1.0, 1.0], [bad, 1.0, 0.0])):
        with pytest.raises(ContractError):
            clip_style_score(np.array([a]), np.array([b]))


# ---------------------------------------------------------------------------
# envelopes and peaks


def test_energy_envelope_hand_values():
    latent = np.array([[3.0, 4.0], [0.0, 0.0], [1.0, 1.0]])
    env = energy_envelope(latent)
    assert np.abs(env - np.array([math.sqrt(12.5), 0.0, 1.0])).max() <= 1e-12
    with pytest.raises(ShapeError):
        energy_envelope(np.zeros(5))


def test_detect_peaks_finds_spikes():
    env = np.full(20, 0.1)
    env[[4, 12]] = 1.0
    peaks = detect_peaks(env, frame_rate=10.0)
    assert peaks.times == (0.4, 1.2)
    assert peaks.duration == 2.0


def test_detect_peaks_threshold_filters_small_bumps():
    env = np.full(20, 0.0)
    env[4] = 1.0
    env[12] = 0.2  # below 0.3 * max
    peaks = detect_peaks(env, frame_rate=10.0)
    assert peaks.times == (0.4,)


def test_detect_peaks_min_separation_keeps_taller():
    env = np.zeros(50)
    env[10] = 0.8
    env[13] = 1.0  # 0.06 s away at 50 fps, inside the 0.1 s separation
    env[30] = 0.9  # 0.34 s further on: kept
    peaks = detect_peaks(env, frame_rate=50.0)
    assert peaks.times == (0.26, 0.6)


def test_detect_peaks_flat_zero_envelope_is_empty():
    peaks = detect_peaks(np.zeros(10), frame_rate=10.0)
    assert peaks.times == ()


def test_detect_peaks_endpoints_excluded():
    env = np.zeros(10)
    env[0] = 1.0
    env[9] = 1.0
    env[5] = 0.9
    peaks = detect_peaks(env, frame_rate=10.0)
    assert peaks.times == (0.5,)


def test_detect_peaks_contracts():
    with pytest.raises(ContractError):
        detect_peaks(np.zeros(2), frame_rate=10.0)
    with pytest.raises(ContractError):
        detect_peaks(np.zeros(10), frame_rate=0.0)


def test_detect_peaks_plateau_and_tie_rules():
    # a flat top counts at its middle frame, rounded down
    assert detect_peaks(np.array([0.0, 1, 1, 1, 1, 0, 0]), frame_rate=1.0).times == (2.0,)
    # a plateau that runs into the last frame is no peak
    assert detect_peaks(np.array([0.0, 1, 0, 2, 2]), frame_rate=1.0).times == (1.0,)
    # equal heights 2 frames apart at a 3-frame gap: the right-hand one wins
    assert detect_peaks(np.array([0.0, 1, 0, 1, 0, 0]), frame_rate=30.0).times == (0.1,)


def test_detect_peaks_extreme_frame_rates():
    env = np.zeros(20)
    env[[4, 12]] = 1.0
    # the gap is far wider than the clip: one peak survives
    assert len(detect_peaks(env, 1e308).times) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContractError, match="frame_rate 5e-324"):
            detect_peaks(env, 5e-324)


_runs = st.lists(
    st.tuples(st.one_of(st.integers(0, 3).map(float), st.floats(0.0, 1.0)), st.integers(1, 4)),
    min_size=3,
    max_size=24,
)


@settings(max_examples=400, deadline=None)
@given(runs=_runs, frame_rate=st.floats(1.0, 1000.0))
def test_detect_peaks_matches_scipy_find_peaks(runs, frame_rate):
    find_peaks = pytest.importorskip("scipy.signal").find_peaks
    levels, lengths = zip(*runs)
    env = np.repeat(levels, lengths)
    idx, _ = find_peaks(env, height=PEAK_THRESHOLD * env.max(), distance=max(1, MIN_SEPARATION * frame_rate))
    assert detect_peaks(env, frame_rate).times == tuple(idx / frame_rate)


def _oracle_detect_peaks(envelope, frame_rate):
    """detect_peaks as one scan per envelope, kept as the oracle of the
    row-stacked peak finder."""
    env = np.asarray(envelope, dtype=np.float64).reshape(-1)
    if env.size < 3:
        raise ContractError(f"peak detection needs at least 3 frames, got {env.size}")
    metrics.check_frame_rate(frame_rate, env.size)
    duration = env.size / frame_rate
    peak = float(env.max())
    if peak <= 0.0:
        return PeakTrain(times=(), duration=duration)
    x = env.tolist()
    last = env.size - 1
    height = PEAK_THRESHOLD * peak
    maxima = []
    for i in range(1, last):
        top = x[i]
        if top >= height and x[i - 1] < top:
            ahead = i + 1
            while ahead < last and x[ahead] == top:
                ahead += 1
            if x[ahead] < top:
                maxima.append((i + ahead - 1) // 2)
    gap = min(math.ceil(MIN_SEPARATION * frame_rate), env.size)
    kept: list = []
    for j in np.argsort(env[maxima])[::-1].tolist():
        if all(abs(maxima[j] - q) >= gap for q in kept):
            kept.append(maxima[j])
    return PeakTrain(times=tuple(p / frame_rate for p in sorted(kept)), duration=duration)


_level = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]),
    st.floats(0.0, 1.0),
    st.sampled_from([-1.0, math.inf, math.nan]),
)


@st.composite
def _envelope_stacks(draw):
    """(n, frames) stacks of runs of few levels: plateaus, ties, all-zero
    rows and maxima closer than the gap at the higher frame rates."""
    frames = draw(st.integers(3, 40))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.integers(0, 5)) == 0:
            rows.append(np.zeros(frames))
            continue
        runs = draw(st.lists(st.tuples(_level, st.integers(1, 4)), min_size=1, max_size=frames))
        levels, lengths = zip(*runs)
        row = np.repeat(levels, lengths)[:frames]
        rows.append(np.pad(row, (0, frames - row.size)))
    return np.stack(rows)


@settings(max_examples=200, deadline=None)
@given(envs=_envelope_stacks(), frame_rate=st.floats(1.0, 1000.0))
@example(envs=np.array([[-1.0, 0.0, -1.0, 0.0, -2.0], [0.0, 1.0, 0.0, 1.0, 0.0]]), frame_rate=10.0)
def test_stacked_peaks_match_the_one_row_scan(envs, frame_rate):
    trains = peak_trains(envs, frame_rate)
    assert len(trains) == len(envs)
    for env, train in zip(envs, trains):
        expected = _oracle_detect_peaks(env, frame_rate)
        assert train == expected
        assert detect_peaks(env, frame_rate) == expected


def test_stacked_peaks_share_detect_peaks_contracts():
    with pytest.raises(ContractError, match="at least 3 frames, got 2"):
        peak_trains(np.zeros((4, 2)), 10.0)
    with pytest.raises(ContractError, match="frame_rate"):
        peak_trains(np.zeros((4, 5)), 0.0)
    assert peak_trains(np.zeros((0, 5)), 10.0) == []


# ---------------------------------------------------------------------------
# alignment score


def test_av_align_perfect_match():
    a = PeakTrain(times=(0.5, 1.0), duration=2.0)
    assert av_align(a, a) == 1.0


def test_av_align_both_empty_is_one():
    empty = PeakTrain(times=(), duration=1.0)
    assert av_align(empty, empty) == 1.0


def test_av_align_one_empty_is_zero():
    a = PeakTrain(times=(0.5,), duration=1.0)
    empty = PeakTrain(times=(), duration=1.0)
    assert av_align(a, empty) == 0.0
    assert av_align(empty, a) == 0.0


def test_av_align_outside_window_no_match():
    a = PeakTrain(times=(0.0,), duration=1.0)
    v = PeakTrain(times=(0.5,), duration=1.0)
    assert av_align(a, v) == 0.0


def test_av_align_greedy_prefers_closest():
    # audio peak at 1.0 can match 0.95 or 1.04; greedy takes 1.04 and the
    # other video peak goes unmatched: score = 1 / (1 + 2 - 1)
    a = PeakTrain(times=(1.0,), duration=2.0)
    v = PeakTrain(times=(0.95, 1.04), duration=2.0)
    assert av_align(a, v) == 0.5


def test_av_align_one_to_one():
    # two audio peaks cannot both claim the single video peak:
    # 1 match over (2 + 1 - 1) candidates
    a = PeakTrain(times=(0.98, 1.02), duration=2.0)
    v = PeakTrain(times=(1.0,), duration=2.0)
    assert av_align(a, v) == 0.5


# ---------------------------------------------------------------------------
# set evaluation


def _write_latents(directory, items):
    directory.mkdir(parents=True, exist_ok=True)
    for name, arr in items.items():
        container.write_latents(str(directory / f"{name}.ysnd"), {"latent": arr})


def _toy_latents(seed, n=3, t=24, d=4):
    rng = np.random.default_rng(seed)
    out = {}
    for i in range(n):
        arr = rng.normal(size=(t, d)) * 0.05
        arr[4 + 3 * i] += 2.0
        out[f"clip{i}"] = arr
    return out


def test_evaluate_set_self_is_perfect(tmp_path):
    items = _toy_latents(0)
    _write_latents(tmp_path / "gen", items)
    _write_latents(tmp_path / "ref", items)
    report = evaluate_set(str(tmp_path / "gen"), str(tmp_path / "ref"), FRAME_RATE)
    assert report.values["FAD"] == 0.0
    assert report.values["FD"] == 0.0
    assert report.values["KL-sigmoid"] == 0.0
    assert report.values["CLIP"] == 100.0
    assert report.values["AV"] == 1.0
    assert report.n_pairs == 3
    assert report.missing == ()


def test_evaluate_set_lists_missing_and_pairs_by_stem(tmp_path):
    items = _toy_latents(1)
    gen = dict(items)
    gen["extra"] = items["clip0"]
    ref = dict(items)
    ref["lonely"] = items["clip1"]
    _write_latents(tmp_path / "gen", gen)
    _write_latents(tmp_path / "ref", ref)
    report = evaluate_set(str(tmp_path / "gen"), str(tmp_path / "ref"), FRAME_RATE)
    assert report.n_pairs == 3
    assert report.missing == ("extra (gen only)", "lonely (ref only)")


def test_evaluate_set_pairs_regular_files_only(tmp_path):
    items = _toy_latents(5)
    _write_latents(tmp_path / "gen", items)
    _write_latents(tmp_path / "ref", items)
    (tmp_path / "gen" / "sub.ysnd").mkdir()
    (tmp_path / "ref" / "notes.txt").write_text("not a latent\n")
    report = evaluate_set(str(tmp_path / "gen"), str(tmp_path / "ref"), FRAME_RATE)
    assert report.n_pairs == 3
    assert report.missing == ()


# the reports of a set that mixes (T, d) shapes, both ways round, pinned
# bit for bit: pooling once per latent must not move them
_MIXED_REPORTS = (
    {"FAD": 10.472801733453444, "FD": 5.396630556721189, "KL-sigmoid": 0.07843112100243707,
     "IS": 1.0771468926676748, "CLIP": 87.79653890568899, "AV": 0.14285714285714285},
    {"FAD": 10.472801733110732, "FD": 5.3966305569852375, "KL-sigmoid": 0.09417036242152811,
     "IS": 1.000082822555351, "CLIP": 87.79653890568899, "AV": 0.14285714285714285},
)


def test_evaluate_set_of_mixed_shapes_is_pinned(tmp_path):
    shapes = [(32, 16)] * 5 + [(20, 16), (32, 8)]
    gen = {f"clip{i}": _spiky(i, (3 + 2 * i, 17), t, d) for i, (t, d) in enumerate(shapes)}
    ref = {f"clip{i}": _spiky(10 + i, (3 + 3 * i, 24), 32, 16) for i in range(len(shapes))}
    _write_latents(tmp_path / "gen", gen)
    _write_latents(tmp_path / "ref", ref)
    sides = (("gen", "ref"), ("ref", "gen"))
    for (a, b), pinned in zip(sides, _MIXED_REPORTS):
        report = evaluate_set(str(tmp_path / a), str(tmp_path / b), FRAME_RATE)
        assert report.values == pinned  # == on floats: bit for bit
        assert report.n_pairs == len(shapes)


def test_evaluate_set_pools_each_latent_once(tmp_path, monkeypatch):
    items = {**_toy_latents(6, n=4), "long": _spiky(7, (5, 20), t=40)}
    _write_latents(tmp_path / "gen", items)
    _write_latents(tmp_path / "ref", items)
    calls = []

    def counted(features):
        calls.append(features.shape)
        return pool(features)

    monkeypatch.setattr(providers, "pool", counted)
    monkeypatch.setattr(metrics, "pool", counted)
    evaluate_set(str(tmp_path / "gen"), str(tmp_path / "ref"), FRAME_RATE)
    # one stack per shape and side, and each latent a row of one of them
    assert sorted(calls) == [(1, 40, 4), (1, 40, 4), (4, 24, 4), (4, 24, 4)]
    assert sum(shape[0] for shape in calls) == 2 * len(items)


def _oracle_pool(seq):
    return np.concatenate([seq.sum(axis=0) / seq.shape[0], seq.max(axis=0)])


def _oracle_clip(a, b):
    norm_a, norm_b = float(np.linalg.norm(a)), float(np.linalg.norm(b))
    if not 0.0 < norm_a * norm_b < math.inf:
        raise ContractError(f"cosine similarity undefined for embedding norms {norm_a} and {norm_b}")
    return 100.0 * max(0.0, min(1.0, float(np.dot(a, b) / (norm_a * norm_b))))


def _oracle_evaluate(gen, ref, frame_rate):
    """evaluate_set on loaded latents, one latent and one pair at a time,
    kept as the oracle of the stacked evaluation."""
    ids = sorted(set(gen) & set(ref))
    gen_seqs, ref_seqs = [gen[cid] for cid in ids], [ref[cid] for cid in ids]
    metrics.check_frame_rate(frame_rate, max(s.shape[0] if s.ndim else 0 for s in gen_seqs + ref_seqs))
    embedders = (metrics.FIDELITY, metrics.DISTRIBUTION, metrics.CLASSIFIER, metrics.SHARED)
    sides = []
    for seqs in (gen_seqs, ref_seqs):
        rows = tuple(np.empty((len(seqs), e.dim)) for e in embedders)
        for i, seq in enumerate(seqs):
            if seq.ndim != 2 or seq.shape[0] == 0:
                raise ContractError(f"provider input must be a non-empty 2-D sequence, got shape {seq.shape}")
            pooled = _oracle_pool(seq)
            for out, e in zip(rows, embedders):
                out[i] = pooled @ e._projection(pooled.size)
        sides.append(rows)
    (gen_fid, gen_dist, gen_scores, gen_shared), (ref_fid, ref_dist, ref_scores, ref_shared) = sides
    fad = frechet_distance(EmbeddingSet(gen_fid), EmbeddingSet(ref_fid))
    fd = frechet_distance(EmbeddingSet(gen_dist), EmbeddingSet(ref_dist))
    gen_posts, ref_posts = sigmoid_calibrate(gen_scores), sigmoid_calibrate(ref_scores)
    kl, is_score = kl_sigmoid(gen_posts, ref_posts), inception_score(gen_posts)
    clip_scores, av_scores, envelopes = [], [], []
    for gseq, rseq, g_emb, r_emb in zip(gen_seqs, ref_seqs, gen_shared, ref_shared):
        clip_scores.append(_oracle_clip(g_emb, r_emb))
        g_env = np.sqrt((gseq * gseq).sum(axis=1) / gseq.shape[1])
        r_env = np.sqrt((rseq * rseq).sum(axis=1) / rseq.shape[1])
        av_scores.append(av_align(_oracle_detect_peaks(g_env, frame_rate), _oracle_detect_peaks(r_env, frame_rate)))
        envelopes.append((g_env, r_env))
    values = {"FAD": fad, "FD": fd, "KL-sigmoid": kl, "IS": is_score,
              "CLIP": float(np.mean(clip_scores)), "AV": float(np.mean(av_scores))}
    return values, envelopes


_latent_kind = st.sampled_from(["plain"] * 36 + ["two frames", "one frame", "zero", "huge"])


@st.composite
def _latent_sets(draw):
    """Paired latents of a few (frames, dims) shapes per side: noise with
    onset spikes, all-zero latents (no cosine), latents too short for
    peaks and, rarely, latents whose statistics overflow."""
    n = draw(st.integers(2, 7))
    sides = []
    for side in range(2):
        shapes = draw(st.lists(st.sampled_from([(32, 4), (32, 8), (20, 4), (5, 4), (3, 1)]), min_size=1, max_size=3))
        items = {}
        for i in range(n):
            kind = draw(_latent_kind)
            t, d = {"two frames": (2, 4), "one frame": (1, 8)}.get(kind, shapes[i % len(shapes)])
            arr = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=(t, d)) * 0.05
            arr[draw(st.lists(st.integers(0, t - 1), max_size=3))] += 2.0
            items[f"clip{i}"] = {"zero": 0.0, "huge": 1e170}.get(kind, 1.0) * arr
        sides.append(items)
    return sides


@settings(max_examples=100, deadline=None)
@given(sets=_latent_sets(), frame_rate=st.sampled_from([FRAME_RATE, 4.0, 100.0]))
def test_evaluate_set_matches_the_per_pair_evaluation(sets, frame_rate):
    gen, ref = sets
    try:
        expected = _oracle_evaluate(gen, ref, frame_rate)
    except ContractError as exc:
        expected = exc
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        _write_latents(Path(tmp) / "gen", gen)
        _write_latents(Path(tmp) / "ref", ref)
        if isinstance(expected, ContractError):
            with pytest.raises(ContractError) as raised:
                evaluate_set(str(Path(tmp) / "gen"), str(Path(tmp) / "ref"), frame_rate)
            assert str(raised.value) == str(expected)
            return
        report = evaluate_set(str(Path(tmp) / "gen"), str(Path(tmp) / "ref"), frame_rate)
    values, envelopes = expected
    assert report.values == values  # == on floats: bit for bit
    for pair, (g_env, r_env) in zip(report.pairs, envelopes, strict=True):
        assert np.array_equal(pair.gen_envelope, g_env) and np.array_equal(pair.ref_envelope, r_env)


def test_evaluate_set_raises_for_the_first_bad_pair(tmp_path):
    good = _toy_latents(8, n=4)
    cases = {
        # a pair too short for peaks comes before a pair without a cosine, and after one
        "short first": ({"clip1": good["clip1"][:2], "clip2": np.zeros((24, 4))}, "at least 3 frames, got 2"),
        "zero first": ({"clip1": np.zeros((24, 4)), "clip2": good["clip2"][:2]}, "cosine similarity undefined"),
        # the first latent that is no provider input, in pair order
        "bad shapes": ({"clip1": np.ones(5), "clip2": np.ones((2, 3, 4))}, r"got shape \(5,\)"),
        "rank 0": ({"clip2": np.float64(3.0)}, r"non-empty 2-D sequence, got shape \(\)"),
    }
    for name, (changes, message) in cases.items():
        gen = {**good, **changes}
        _write_latents(tmp_path / name / "gen", gen)
        _write_latents(tmp_path / name / "ref", good)
        with pytest.raises(ContractError, match=message):
            _oracle_evaluate(gen, good, FRAME_RATE)
        with pytest.raises(ContractError, match=message):
            evaluate_set(str(tmp_path / name / "gen"), str(tmp_path / name / "ref"), FRAME_RATE)


def test_evaluate_set_needs_two_pairs(tmp_path):
    items = _toy_latents(2, n=1)
    _write_latents(tmp_path / "gen", items)
    _write_latents(tmp_path / "ref", items)
    with pytest.raises(ContractError, match="2 paired"):
        evaluate_set(str(tmp_path / "gen"), str(tmp_path / "ref"), FRAME_RATE)


def test_evaluate_set_detects_distribution_shift(tmp_path):
    gen = {k: v + 1.5 for k, v in _toy_latents(3).items()}
    ref = _toy_latents(3)
    _write_latents(tmp_path / "gen", gen)
    _write_latents(tmp_path / "ref", ref)
    report = evaluate_set(str(tmp_path / "gen"), str(tmp_path / "ref"), FRAME_RATE)
    assert report.values["FAD"] > 0.01
    assert report.values["FD"] > 0.01


def _spiky(seed, frames, t=32, d=4):
    arr = np.random.default_rng(seed).normal(size=(t, d)) * 0.05
    arr[list(frames)] += 2.0
    return arr


def test_av_callers_share_one_alignment(tmp_path):
    # the refiner's temporal reward and evaluate_set's AV column are one
    # measure on one envelope pair
    fr = FRAME_RATE
    pairs = [(_spiky(0, (4, 10, 17)), _spiky(1, (4, 12, 20))), (_spiky(2, (6, 20)), _spiky(3, (7, 14, 26)))]
    scores = [av_align(detect_peaks(energy_envelope(a), fr), detect_peaks(energy_envelope(v), fr)) for a, v in pairs]
    assert all(0.0 < s < 1.0 for s in scores)

    for (audio, video), score in zip(pairs, scores):
        [report] = refiner.reward(audio[None], refiner.reward_context(ConditionBundle(video_feat=video), len(audio), fr))
        assert report.components["temporal"] == score

    _write_latents(tmp_path / "gen", {f"clip{i}": a for i, (a, _) in enumerate(pairs)})
    _write_latents(tmp_path / "ref", {f"clip{i}": v for i, (_, v) in enumerate(pairs)})
    report = evaluate_set(str(tmp_path / "gen"), str(tmp_path / "ref"), fr)
    assert report.values["AV"] == float(np.mean(scores))


def test_render_report_formats(tmp_path):
    items = _toy_latents(4)
    _write_latents(tmp_path / "gen", items)
    _write_latents(tmp_path / "ref", items)
    report = evaluate_set(str(tmp_path / "gen"), str(tmp_path / "ref"), FRAME_RATE)

    text = render_report(report, as_json=False)
    lines = text.splitlines()
    assert lines[0] == "FAD,FD,KL-sigmoid,IS,CLIP,AV"
    assert len(lines[1].split(",")) == len(REPORT_COLUMNS)
    assert float(lines[1].split(",")[0]) == 0.0

    as_json = render_report(report, as_json=True)
    import json

    payload = json.loads(as_json)
    assert payload["columns"] == list(REPORT_COLUMNS)
    assert payload["values"]["CLIP"] == 100.0
    assert payload["n_pairs"] == 3


def test_embed_projects_the_pooled_sequence():
    seq = np.random.default_rng(6).normal(size=(12, 5))
    for emb in (metrics.FIDELITY, metrics.DISTRIBUTION, metrics.CLASSIFIER, metrics.SHARED):
        assert np.array_equal(emb.embed(seq), emb.project(pool(seq)))
        assert np.array_equal(emb.embed(seq), pool(seq) @ emb._projection(10))


def test_providers_are_deterministic():
    emb = SyntheticEmbedder("provider-x", 6)
    seq = np.random.default_rng(5).normal(size=(10, 3))
    assert np.array_equal(emb.embed(seq), SyntheticEmbedder("provider-x", 6).embed(seq))
    assert not np.array_equal(emb.embed(seq), SyntheticEmbedder("provider-y", 6).embed(seq))


def test_stacked_products_keep_the_bits_of_one_row_products():
    """Row i of a stacked (n, 1, k) @ (k, m) product, and of a stacked
    vector-vector product, has the bits of the one-row product, for every
    embedder at the latent and feature widths the program stacks. The
    stacked evaluation and reward rest on this; a plain (n, k) @ (k, m)
    gemm gives no such promise. Like the golden digests, it is a property
    of the numpy and BLAS builds."""
    cfg = ModelConfig()
    widths = sorted({2 * d for d in (cfg.d_audio_latent, cfg.d_video_feat, cfg.d_text, 1, 4, 8)})
    rng = np.random.default_rng(29)
    for k in widths:
        for embedder in (metrics.FIDELITY, metrics.DISTRIBUTION, metrics.CLASSIFIER, metrics.SHARED):
            w = embedder._projection(k)
            for n in (1, 2, 3, 7, 64, 1025):
                pooled = rng.normal(size=(n, k)) * 10.0 ** rng.integers(-3, 4, size=(n, 1))
                stacked = embedder.project(pooled)
                emb = rng.normal(size=(n, embedder.dim))
                dots, norms = metrics._row_dots(stacked, emb), np.sqrt(metrics._row_dots(stacked, stacked))
                for i in range(n):
                    assert np.array_equal(stacked[i], pooled[i] @ w), (k, embedder.provider_id, n, i)
                    assert dots[i] == np.dot(stacked[i], emb[i]), (embedder.dim, n, i)
                    assert norms[i] == np.linalg.norm(stacked[i]), (embedder.dim, n, i)
