"""Refinement loop: signal extraction, reward composition, the keep-best gate."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from foleyflow import flow
from foleyflow.errors import ContractError, DivergenceError
from foleyflow.flow import SamplerConfig
from foleyflow.metrics import FRAME_RATE
from foleyflow.model import ConditionBundle, ModelConfig, TwoTowerModel
from foleyflow.refiner import (
    REWARD_WEIGHTS,
    RefineResult,
    extract_signal,
    refine,
    render_trace,
    reward,
    reward_context,
    signal_token,
)
from foleyflow.rng import SeededRng, derive_seed
from foleyflow.tensor import Tensor

SMALL = ModelConfig(
    d_model=8,
    n_layers=1,
    n_heads=2,
    d_audio_latent=4,
    d_video_feat=6,
    d_text=5,
    t_audio=7,
)


def _cond(rng, text=True, video=True):
    return ConditionBundle(
        text_emb=rng.normal((2, SMALL.d_text)) if text else None,
        video_feat=rng.normal((6, SMALL.d_video_feat)) if video else None,
    )


# ---------------------------------------------------------------------------
# signal extraction


def test_extract_signal_shape_and_determinism():
    rng = SeededRng(7)
    cond = _cond(rng)
    coarse = rng.normal((SMALL.t_audio, SMALL.d_audio_latent))
    a = extract_signal(cond, coarse)
    b = extract_signal(cond, coarse)
    assert a.shape == (16,)
    assert np.array_equal(a, b)


def test_extract_signal_zero_inputs_give_zero_signal():
    # the projection has no bias, so all-zero pools map to the origin
    coarse = np.zeros((5, SMALL.d_audio_latent))
    sig = extract_signal(ConditionBundle(), coarse)
    assert np.array_equal(sig, np.zeros(16))


def test_extract_signal_depends_on_modalities():
    rng = SeededRng(3)
    cond_full = _cond(rng)
    coarse = rng.normal((SMALL.t_audio, SMALL.d_audio_latent))
    full = extract_signal(cond_full, coarse)
    text_only = extract_signal(ConditionBundle(text_emb=cond_full.text_emb), coarse)
    assert full.shape == text_only.shape
    assert not np.allclose(full, text_only)


def test_extract_signal_handles_other_feature_widths():
    rng = SeededRng(11)
    cond = ConditionBundle(video_feat=rng.normal((4, 9)))
    sig = extract_signal(cond, rng.normal((5, 3)))
    assert sig.shape == (16,)


def test_extract_signal_contracts():
    with pytest.raises(ContractError):
        extract_signal(ConditionBundle(), np.zeros(5))


def test_signal_token_shape_and_linearity():
    sig = SeededRng(5).normal((16,))
    tok = signal_token(sig, SMALL.d_text)
    assert tok.shape == (1, SMALL.d_text)
    assert np.allclose(signal_token(2.0 * sig, SMALL.d_text), 2.0 * tok)


# ---------------------------------------------------------------------------
# reward


def _scored(stack, cond, frame_rate=FRAME_RATE):
    """reward of a candidate stack under the context of its conditions."""
    return reward(stack, reward_context(cond, stack.shape[1], frame_rate))


def test_reward_weights_must_sum_to_one():
    assert set(REWARD_WEIGHTS) == {"temporal", "semantic", "smoothness"}
    assert abs(sum(REWARD_WEIGHTS.values()) - 1.0) <= 1e-9


def test_reward_components_present():
    rng = SeededRng(2)
    cand = rng.normal((1, 32, SMALL.d_audio_latent))
    [with_video] = _scored(cand, _cond(rng))
    assert set(with_video.components) == {"temporal", "semantic", "smoothness"}
    [text_only] = _scored(cand, _cond(rng, video=False))
    assert set(text_only.components) == {"semantic", "smoothness"}
    [bare] = _scored(cand, ConditionBundle())
    assert set(bare.components) == {"smoothness"}


def test_reward_weights_renormalize():
    rng = SeededRng(4)
    cand = rng.normal((1, 32, SMALL.d_audio_latent))
    text_only = reward_context(_cond(rng, video=False), 32, FRAME_RATE)
    assert text_only.weights == pytest.approx({"semantic": 0.8, "smoothness": 0.2})
    [report] = reward(cand, text_only)
    weights = text_only.weights
    assert report.aggregate == weights["semantic"] * report.components["semantic"] + weights["smoothness"] * report.components["smoothness"]
    bare = reward_context(ConditionBundle(), 32, FRAME_RATE)
    assert bare.weights == {"smoothness": 1.0}
    [report] = reward(cand, bare)
    assert report.aggregate == report.components["smoothness"]


def test_reward_smoothness_values():
    flat = np.ones((1, 10, 4))
    [report] = _scored(flat, ConditionBundle())
    assert report.components["smoothness"] == 1.0
    jagged = np.zeros((1, 10, 4))
    jagged[:, 1::2] = 2.0  # msd 16 floors the component at zero
    [report] = _scored(jagged, ConditionBundle())
    assert report.components["smoothness"] == 0.0


def test_reward_zero_norm_semantic_is_zero():
    rng = SeededRng(9)
    cand = np.zeros((1, 16, SMALL.d_audio_latent))
    [report] = _scored(cand, _cond(rng, video=False))
    assert report.components["semantic"] == 0.0


def test_reward_rejects_bad_candidate():
    # one candidate is a 1-row stack, not a (frames, dims) sequence, and
    # a stack has the frames of its context
    context = reward_context(ConditionBundle(), 16, FRAME_RATE)
    for shape in ((8,), (16, 4), (1, 8, 4)):
        with pytest.raises(ContractError, match=rf"candidate stack, got shape \({shape[0]},"):
            reward(np.zeros(shape), context)


@settings(max_examples=40, deadline=None)
@given(
    text=st.booleans(),
    video=st.booleans(),
    n=st.integers(min_value=1, max_value=6),
    zeros=st.lists(st.integers(min_value=0, max_value=5), max_size=2),
    huge=st.lists(st.integers(min_value=0, max_value=5), max_size=2),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_a_stack_of_candidates_scores_as_each_alone(text, video, n, zeros, huge, seed):
    rng = SeededRng(seed)
    cond = _cond(rng, text=text, video=video)
    stack = rng.normal((n, 32, SMALL.d_audio_latent))
    stack[[z for z in zeros if z < n]] = 0.0  # a zero candidate scores semantic 0
    stack[[h for h in huge if h < n]] *= 1e200  # so does one whose norm overflows
    context = reward_context(cond, 32, FRAME_RATE)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reports = reward(stack, context)
        assert reports == [reward(candidate[None], context)[0] for candidate in stack]
    assert all(math.isfinite(report.aggregate) for report in reports)


@pytest.mark.parametrize("field", ["video_feat", "text_emb"])
def test_an_anchor_whose_embedding_norm_overflows_is_refused_by_name(field):
    rng = SeededRng(17)
    cond = _cond(rng, video=field == "video_feat")
    cond = replace(cond, **{field: getattr(cond, field) * 1e160})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContractError, match=rf"^{field}'s shared-space embedding has non-finite norm inf$"):
            reward_context(cond, 8, FRAME_RATE)


def test_refine_finds_the_anchor_once(small_model, monkeypatch):
    from foleyflow import metrics, refiner

    rng = SeededRng(14)
    cond = _cond(rng)
    coarse = _coarse(rng)
    embedded, trains = [], []
    embed, detect = metrics.SHARED.embed, metrics.detect_peaks
    monkeypatch.setattr(metrics.SHARED, "embed", lambda x: embedded.append(np.shape(x)) or embed(x))
    monkeypatch.setattr(refiner, "detect_peaks", lambda env, fr: trains.append(np.shape(env)) or detect(env, fr))
    refine(small_model, cond, coarse, k=4, sampler_cfg=SamplerConfig(nfe=2, seed=1), frame_rate=FRAME_RATE)
    # the video anchor before sampling, then the coarse input and four candidates in one stack
    assert embedded == [cond.video_feat.shape, (5, SMALL.t_audio, SMALL.d_audio_latent)]
    assert trains == [(cond.video_feat.shape[0],)]


# ---------------------------------------------------------------------------
# refine


def _never_sample(monkeypatch):
    def never(*args):
        pytest.fail("a candidate was sampled")

    monkeypatch.setattr(flow, "sample_many", never)


@pytest.mark.parametrize("t_audio, video_rows", [(SMALL.t_audio, 2), (SMALL.t_audio, 1), (2, 6), (2, 1)])
def test_refine_fails_before_sampling_on_input_too_short_for_peaks(monkeypatch, t_audio, video_rows):
    cfg = replace(SMALL, t_audio=t_audio)
    rng = SeededRng(15)
    cond = ConditionBundle(video_feat=rng.normal((video_rows, cfg.d_video_feat)))
    coarse = rng.normal((t_audio, cfg.d_audio_latent))
    _never_sample(monkeypatch)

    with pytest.raises(ContractError) as scored:
        reward_context(cond, len(coarse), FRAME_RATE)
    # the candidates' frames are checked first
    assert str(scored.value) == f"peak detection needs at least 3 frames, got {t_audio if t_audio < 3 else video_rows}"
    with pytest.raises(ContractError) as refined:
        refine(TwoTowerModel(cfg, seed=0), cond, coarse, k=4, sampler_cfg=SamplerConfig(nfe=2), frame_rate=FRAME_RATE)
    assert str(refined.value) == str(scored.value)


@pytest.mark.parametrize("frame_rate", [1e308, 1.7e308, 1.7976931348623157e308])
def test_refine_fails_before_sampling_on_an_overflowing_video_rate(monkeypatch, frame_rate):
    # the video's own rate is rows / (frames / frame_rate): 20 rows over 8
    # frames overflow it at any finite rate above about 7.19e307
    cfg = replace(SMALL, t_audio=8)
    rng = SeededRng(16)
    cond = ConditionBundle(video_feat=rng.normal((20, cfg.d_video_feat)))
    coarse = rng.normal((8, cfg.d_audio_latent))
    assert len(reward(coarse[None], reward_context(cond, len(coarse), 7e307))) == 1
    _never_sample(monkeypatch)

    message = f"frame_rate {frame_rate!r} is too large: 20 video rows over 8 frames overflow"
    with pytest.raises(ContractError) as scored:
        reward_context(cond, len(coarse), frame_rate)
    assert str(scored.value) == message
    with pytest.raises(ContractError) as refined:
        refine(TwoTowerModel(cfg, seed=0), cond, coarse, k=2, sampler_cfg=SamplerConfig(nfe=2), frame_rate=frame_rate)
    assert str(refined.value) == message


# the numeric frame rates the CLI properties draw
_FRAME_RATES = (16.0, 1.0, 0.5, 1e-300, 5e-324, 1e308, 1.7976931348623157e308, 0.0, -0.0, -1.0, math.nan, math.inf, -math.inf)
_MODELS: dict = {}  # t_audio -> a model of SMALL's widths


@settings(max_examples=40, deadline=None)
@given(
    frame_rate=st.sampled_from(_FRAME_RATES),
    video_rows=st.one_of(st.none(), st.integers(min_value=1, max_value=20)),
    video_scale=st.sampled_from([1.0, 1e160]),
    text=st.booleans(),
    t_audio=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_refine_fails_exactly_when_its_reward_context_does(frame_rate, video_rows, video_scale, text, t_audio, seed):
    cfg = replace(SMALL, t_audio=t_audio)
    if t_audio not in _MODELS:
        _MODELS[t_audio] = TwoTowerModel(cfg, seed=0)
    rng = SeededRng(seed)
    cond = ConditionBundle(
        text_emb=rng.normal((2, cfg.d_text)) if text else None,
        video_feat=None if video_rows is None else rng.normal((video_rows, cfg.d_video_feat)) * video_scale,
    )
    coarse = rng.normal((t_audio, cfg.d_audio_latent))
    calls = []
    sample_many = flow.sample_many

    def recorded(*args):
        calls.append(args)
        return sample_many(*args)

    def refined():
        return refine(_MODELS[t_audio], cond, coarse, k=2, sampler_cfg=SamplerConfig(nfe=2), frame_rate=frame_rate)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(flow, "sample_many", recorded)
        try:
            reward_context(cond, t_audio, frame_rate)
        except ContractError as exc:
            with pytest.raises(ContractError) as raised:
                refined()
            assert (str(raised.value), calls) == (str(exc), [])
        else:
            assert len(refined().trace) == 2
            assert len(calls) == 1


@pytest.fixture(scope="module")
def small_model():
    return TwoTowerModel(SMALL, seed=0)


def _coarse(rng):
    return rng.normal((SMALL.t_audio, SMALL.d_audio_latent))


def per_candidate(monkeypatch, fn):
    """Make refine's sampler, flow.sample_many, a batch-shaped stub built
    from a one-candidate stub fn(model, cond, cfg).

    Each seed gets its own call with the seed in cfg; a DivergenceError the
    stub raises becomes that candidate's entry.
    """

    def sample_many(model, cond, cfg, seeds):
        out = []
        for seed in seeds:
            try:
                out.append(fn(model, cond, replace(cfg, seed=seed)))
            except DivergenceError as exc:
                out.append(exc)
        return out

    monkeypatch.setattr(flow, "sample_many", sample_many)


def test_refine_tie_keeps_coarse(small_model, monkeypatch):
    rng = SeededRng(1)
    cond = _cond(rng)
    coarse = _coarse(rng)

    def clone_coarse(model, c, cfg):
        return coarse.copy()

    per_candidate(monkeypatch, clone_coarse)
    result = refine(small_model, cond, coarse, k=3, sampler_cfg=SamplerConfig(nfe=4), frame_rate=FRAME_RATE)
    assert result.picked == "coarse"
    assert np.array_equal(result.best, coarse)
    assert result.report.aggregate == result.coarse_report.aggregate


def test_refine_candidate_seeds_are_derived(small_model, monkeypatch):
    rng = SeededRng(2)
    cond = _cond(rng)
    coarse = _coarse(rng)
    seen = []

    def spy(model, c, cfg):
        seen.append(cfg.seed)
        return coarse.copy()

    base = SamplerConfig(nfe=4, seed=123)
    per_candidate(monkeypatch, spy)
    refine(small_model, cond, coarse, k=3, sampler_cfg=base, frame_rate=FRAME_RATE)
    assert seen == [derive_seed(123, "candidate", i) for i in range(3)]


def test_refine_passes_signal_token_to_sampler(small_model, monkeypatch):
    rng = SeededRng(3)
    cond = _cond(rng)
    coarse = _coarse(rng)
    captured = []

    def spy(model, c, cfg):
        captured.append(c)
        return coarse.copy()

    per_candidate(monkeypatch, spy)
    refine(small_model, cond, coarse, k=1, sampler_cfg=SamplerConfig(nfe=4), frame_rate=FRAME_RATE)
    aug = captured[0]
    assert aug.extra_tokens is not None
    assert aug.extra_tokens.data.shape == (1, SMALL.d_text)
    # original conditioning rides along untouched
    assert aug.text_emb is cond.text_emb and aug.video_feat is cond.video_feat


def test_refine_better_candidate_wins(small_model, monkeypatch):
    rng = SeededRng(4)
    cond = ConditionBundle()
    coarse = np.zeros((SMALL.t_audio, SMALL.d_audio_latent))
    coarse[1::2] = 2.0  # smoothness 0, so any flat candidate beats it

    def flat(model, c, cfg):
        return np.full(coarse.shape, float(cfg.seed % 7))

    per_candidate(monkeypatch, flat)
    result = refine(small_model, cond, coarse, k=2, sampler_cfg=SamplerConfig(nfe=4), frame_rate=FRAME_RATE)
    assert result.picked.startswith("candidate:")
    assert result.report.aggregate == 1.0
    assert result.coarse_report.aggregate == 0.0
    # first candidate already reaches the maximum, so the tie rule keeps it
    assert result.picked == "candidate:0"


def test_refine_skips_diverged_candidates(small_model, monkeypatch):
    rng = SeededRng(5)
    cond = _cond(rng)
    coarse = _coarse(rng)

    def flaky(model, c, cfg):
        if cfg.seed % 2 == 0:
            raise DivergenceError("blew up", step=0)
        return coarse.copy()

    per_candidate(monkeypatch, flaky)
    result = refine(small_model, cond, coarse, k=4, sampler_cfg=SamplerConfig(nfe=4, seed=0), frame_rate=FRAME_RATE)
    assert len(result.trace) == 4
    failed = [e for e in result.trace if e.error is not None]
    succeeded = [e for e in result.trace if e.report is not None]
    assert len(failed) + len(succeeded) == 4
    assert all(e.error == "blew up" for e in failed)
    assert result.picked == "coarse"


def test_refine_all_candidates_diverge_keeps_coarse(small_model, monkeypatch):
    rng = SeededRng(6)
    cond = _cond(rng)
    coarse = _coarse(rng)

    def doomed(model, c, cfg):
        raise DivergenceError("no luck", step=0)

    per_candidate(monkeypatch, doomed)
    result = refine(small_model, cond, coarse, k=3, sampler_cfg=SamplerConfig(nfe=4), frame_rate=FRAME_RATE)
    assert result.picked == "coarse"
    assert np.array_equal(result.best, coarse)
    assert all(e.error is not None for e in result.trace)


def test_refine_rejects_bad_k(small_model):
    rng = SeededRng(7)
    for k in (0, -2, 2.5, True, None):
        with pytest.raises(ContractError, match="k must be a positive integer"):
            refine(small_model, _cond(rng), _coarse(rng), k=k, sampler_cfg=SamplerConfig(nfe=4), frame_rate=FRAME_RATE)


def test_refine_never_below_coarse_random_inputs(small_model, monkeypatch):
    # stub candidates drawn blind; the gate must still never lose ground
    rng = SeededRng(8)
    for trial in range(20):
        cond = _cond(rng, text=bool(trial % 2), video=bool(trial % 3))
        coarse = _coarse(rng)
        noise = SeededRng(derive_seed(99, "trial", trial))

        def wild(model, c, cfg):
            return noise.normal((SMALL.t_audio, SMALL.d_audio_latent)) * 3.0

        per_candidate(monkeypatch, wild)
        cfg = SamplerConfig(nfe=4, seed=trial)
        result = refine(small_model, cond, coarse, k=3, sampler_cfg=cfg, frame_rate=FRAME_RATE)
        assert result.report.aggregate >= result.coarse_report.aggregate


def test_refine_real_sampler_smoke(small_model):
    # integration path: real ODE sampling with the augmented conditioning
    rng = SeededRng(10)
    cond = _cond(rng)
    coarse = _coarse(rng)
    result = refine(small_model, cond, coarse, k=2, sampler_cfg=SamplerConfig(nfe=4, seed=5), frame_rate=FRAME_RATE)
    assert isinstance(result, RefineResult)
    assert result.best.shape == coarse.shape
    assert result.report.aggregate >= result.coarse_report.aggregate
    assert len(result.trace) == 2


def test_refine_deterministic(small_model):
    rng = SeededRng(11)
    cond = _cond(rng)
    coarse = _coarse(rng)
    a = refine(small_model, cond, coarse, k=2, sampler_cfg=SamplerConfig(nfe=4, seed=5), frame_rate=FRAME_RATE)
    b = refine(small_model, cond, coarse, k=2, sampler_cfg=SamplerConfig(nfe=4, seed=5), frame_rate=FRAME_RATE)
    assert a.picked == b.picked
    assert np.array_equal(a.best, b.best)
    assert a.report.aggregate == b.report.aggregate


class FieldStub:
    """A per-item velocity field with the SMALL latent shape. The call
    numbered fail_call (0-based, one call per Euler step) makes the
    conditional velocity of batch row fail_row NaN. It counts its
    condition calls. Its time path is the times themselves, so a path
    row is one time that every item of a call shares."""

    config = SMALL

    def __init__(self, fail_call=None, fail_row=None):
        self.fail_call, self.fail_row = fail_call, fail_row
        self.batch_sizes = []
        self.conditioned = 0

    def condition(self, conds):
        self.conditioned += 1
        return list(conds)

    def time_path(self, times):
        return np.asarray(times, dtype=np.float64)

    def __call__(self, x_t, times, conds):
        x = x_t.data[np.arange(len(conds)) % len(x_t.data)]  # item b reads state b % n
        times = np.broadcast_to(times, (len(conds),))
        gain = [2.0 if cond.extra_tokens is not None else 1.0 for cond in conds]
        v = np.stack([gain[b] * np.tanh(x[b]) - times[b] for b in range(len(conds))])
        if len(self.batch_sizes) == self.fail_call:
            v[len(conds) // 2 + self.fail_row] = np.nan
        self.batch_sizes.append(len(conds))
        return Tensor(v)


def test_refine_diverged_candidate_leaves_the_others_untouched(monkeypatch):
    rng = SeededRng(13)
    cond = _cond(rng)
    coarse = _coarse(rng)
    cfg = SamplerConfig(nfe=4, guidance_scale=2.0, seed=21)
    stub = FieldStub(fail_call=2, fail_row=2)
    batched = refine(stub, cond, coarse, k=4, sampler_cfg=cfg, frame_rate=FRAME_RATE)
    # the diverged candidate stays in the batch, zeroed, and nothing is conditioned again
    assert stub.batch_sizes == [8] * 4
    assert stub.conditioned == 1
    sample_many = flow.sample_many  # taken before the patch, which would otherwise call itself

    def one_seed_at_a_time(model, c, cfg, seeds):
        return [sample_many(model, c, cfg, [seed])[0] for seed in seeds]

    monkeypatch.setattr(flow, "sample_many", one_seed_at_a_time)
    alone = refine(FieldStub(), cond, coarse, k=4, sampler_cfg=cfg, frame_rate=FRAME_RATE)
    assert batched.trace[2].error == "sampler produced non-finite values at step 2"
    assert batched.trace[2].report is None
    for i in (0, 1, 3):
        assert batched.trace[i].error is None
        assert batched.trace[i].report == alone.trace[i].report, i
    assert render_trace(batched).splitlines()[3].endswith(",failed")


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    text=st.booleans(),
    video=st.booleans(),
    k=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    scale=st.floats(min_value=0.0, max_value=4.0),
)
def test_refine_never_below_coarse_property(small_model, text, video, k, seed, scale):
    # the real batched sampler, any modality mix, any k: the gate never loses ground
    rng = SeededRng(seed)
    cond = _cond(rng, text=text, video=video)
    coarse = scale * _coarse(rng)
    result = refine(small_model, cond, coarse, k=k, sampler_cfg=SamplerConfig(nfe=2, seed=seed), frame_rate=FRAME_RATE)
    assert len(result.trace) == k
    assert result.report.aggregate >= result.coarse_report.aggregate
    if result.picked == "coarse":
        assert np.array_equal(result.best, coarse)


# ---------------------------------------------------------------------------
# trace rendering


def test_render_trace_format(small_model, monkeypatch):
    rng = SeededRng(12)
    cond = _cond(rng)
    coarse = _coarse(rng)

    calls = {"n": 0}

    def half_flaky(model, c, cfg):
        calls["n"] += 1
        if calls["n"] == 1:
            raise DivergenceError("boom", step=0)
        return coarse.copy()

    per_candidate(monkeypatch, half_flaky)
    result = refine(small_model, cond, coarse, k=2, sampler_cfg=SamplerConfig(nfe=4, seed=3), frame_rate=FRAME_RATE)
    lines = render_trace(result).splitlines()
    assert lines[0] == "index,seed,temporal,semantic,smoothness,aggregate,status"
    assert lines[1].startswith("0,") and lines[1].endswith(",failed")
    assert lines[1].count("-") == 4
    assert lines[2].startswith("1,") and lines[2].endswith(",ok")
    assert lines[-2].startswith("# coarse_aggregate,")
    assert lines[-1] == "# picked,coarse"
