"""Metric oracles: hand-computable fixtures for every column."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foleyflow import container, metrics, providers, refiner
from foleyflow.errors import ContractError, ShapeError
from foleyflow.model import ConditionBundle
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
    envelope_alignment,
    evaluate_set,
    frechet_distance,
    inception_score,
    kl_sigmoid,
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
        "reward": lambda fr: refiner.reward(latent, ConditionBundle(video_feat=latent), fr),
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
    assert clip_style_score(np.array([1.0, 0.0]), np.array([2.0, 0.0])) == 100.0
    assert clip_style_score(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0
    # opposite vectors clamp at zero rather than going negative
    assert clip_style_score(np.array([1.0, 0.0]), np.array([-1.0, 0.0])) == 0.0
    # 60 degrees: cos = 1/2
    value = clip_style_score(np.array([1.0, 0.0]), np.array([1.0, math.sqrt(3.0)]))
    assert abs(value - 50.0) <= 1e-9


def test_clip_score_zero_norm_rejected():
    with pytest.raises(ContractError):
        clip_style_score(np.zeros(3), np.ones(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_clip_score_rejects_non_finite_embeddings(bad):
    # min(1.0, nan) is 1.0, so an unchecked NaN cosine scores a perfect 100
    for a, b in (([bad, 1.0, 0.0], [1.0, 1.0, 1.0]), ([1.0, 1.0, 1.0], [bad, 1.0, 0.0])):
        with pytest.raises(ContractError):
            clip_style_score(np.array(a), np.array(b))


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
    report = evaluate_set(str(tmp_path / "gen"), str(tmp_path / "ref"))
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
    report = evaluate_set(str(tmp_path / "gen"), str(tmp_path / "ref"))
    assert report.n_pairs == 3
    assert report.missing == ("extra (gen only)", "lonely (ref only)")


def test_evaluate_set_pairs_regular_files_only(tmp_path):
    items = _toy_latents(5)
    _write_latents(tmp_path / "gen", items)
    _write_latents(tmp_path / "ref", items)
    (tmp_path / "gen" / "sub.ysnd").mkdir()
    (tmp_path / "ref" / "notes.txt").write_text("not a latent\n")
    report = evaluate_set(str(tmp_path / "gen"), str(tmp_path / "ref"))
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
        report = evaluate_set(str(tmp_path / a), str(tmp_path / b))
        assert report.values == pinned  # == on floats: bit for bit
        assert report.n_pairs == len(shapes)


def test_evaluate_set_pools_each_latent_once(tmp_path, monkeypatch):
    items = _toy_latents(6, n=4)
    _write_latents(tmp_path / "gen", items)
    _write_latents(tmp_path / "ref", items)
    calls = []

    def counted(features):
        calls.append(features.shape)
        return pool(features)

    monkeypatch.setattr(providers, "pool", counted)
    monkeypatch.setattr(metrics, "pool", counted)
    evaluate_set(str(tmp_path / "gen"), str(tmp_path / "ref"))
    assert len(calls) == 2 * len(items)


def test_evaluate_set_needs_two_pairs(tmp_path):
    items = _toy_latents(2, n=1)
    _write_latents(tmp_path / "gen", items)
    _write_latents(tmp_path / "ref", items)
    with pytest.raises(ContractError, match="2 paired"):
        evaluate_set(str(tmp_path / "gen"), str(tmp_path / "ref"))


def test_evaluate_set_detects_distribution_shift(tmp_path):
    gen = {k: v + 1.5 for k, v in _toy_latents(3).items()}
    ref = _toy_latents(3)
    _write_latents(tmp_path / "gen", gen)
    _write_latents(tmp_path / "ref", ref)
    report = evaluate_set(str(tmp_path / "gen"), str(tmp_path / "ref"))
    assert report.values["FAD"] > 0.01
    assert report.values["FD"] > 0.01


def _spiky(seed, frames, t=32, d=4):
    arr = np.random.default_rng(seed).normal(size=(t, d)) * 0.05
    arr[list(frames)] += 2.0
    return arr


def test_av_callers_share_envelope_alignment(tmp_path):
    # the refiner's temporal reward and evaluate_set's AV column are one
    # measure on one envelope pair
    fr = FRAME_RATE
    pairs = [(_spiky(0, (4, 10, 17)), _spiky(1, (4, 12, 20))), (_spiky(2, (6, 20)), _spiky(3, (7, 14, 26)))]
    scores = [envelope_alignment(energy_envelope(a), fr, energy_envelope(v), fr) for a, v in pairs]
    assert all(0.0 < s < 1.0 for s in scores)

    for (audio, video), score in zip(pairs, scores):
        cond = ConditionBundle(video_feat=video)
        assert refiner.reward(audio, cond, fr).components["temporal"] == score

    _write_latents(tmp_path / "gen", {f"clip{i}": a for i, (a, _) in enumerate(pairs)})
    _write_latents(tmp_path / "ref", {f"clip{i}": v for i, (_, v) in enumerate(pairs)})
    report = evaluate_set(str(tmp_path / "gen"), str(tmp_path / "ref"), fr)
    assert report.values["AV"] == float(np.mean(scores))


def test_render_report_formats(tmp_path):
    items = _toy_latents(4)
    _write_latents(tmp_path / "gen", items)
    _write_latents(tmp_path / "ref", items)
    report = evaluate_set(str(tmp_path / "gen"), str(tmp_path / "ref"))

    text = render_report(report)
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
