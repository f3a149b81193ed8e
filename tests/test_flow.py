"""Flow matching: path algebra, sway grid, guidance blending, Euler sampling."""

import gc
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from foleyflow import flow
from foleyflow.errors import ConfigError, DivergenceError, ShapeError
from foleyflow.flow import (
    SWAY_MAX,
    SWAY_MIN,
    SamplerConfig,
    cfm_loss,
    guided_velocity,
    sample,
    sample_many,
    sway_schedule,
)
from foleyflow.model import ConditionBundle, ModelConfig, TwoTowerModel
from foleyflow.rng import SeededRng
from foleyflow.tensor import Tensor, backward

STUB_CFG = ModelConfig(d_model=8, n_layers=1, n_heads=2, d_audio_latent=3, d_text=4, d_video_feat=4, t_audio=6)


def item_states(x_t, conds) -> np.ndarray:
    """The state of each of a call's items: item b reads state b % n of
    the n states given, as TwoTowerModel.forward does."""
    x = x_t.data if isinstance(x_t, Tensor) else np.asarray(x_t)
    return x[np.arange(len(conds)) % len(x)]


class StubModel:
    """Batched velocity field fn(x, t, cond), applied item by item, with a
    record of each call's batch size and no learnable state. Its time
    path is the times themselves, so a path row is one time that every
    item of a call shares."""

    def __init__(self, fn, config=STUB_CFG):
        self.fn = fn
        self.config = config
        self.batch_sizes = []

    def condition(self, conds):
        return list(conds)

    def time_path(self, times):
        return np.asarray(times, dtype=np.float64)

    def __call__(self, x_t, t, conds):
        self.batch_sizes.append(len(conds))
        x = item_states(x_t, conds)
        t = np.broadcast_to(t, (len(conds),))
        return Tensor(np.stack([self.fn(x[b], t[b], cond) for b, cond in enumerate(conds)]))


# ---------------------------------------------------------------------------
# path algebra


def test_cfm_loss_interpolates_and_regresses_the_straight_path():
    # the stub records each item it is asked to predict and answers sin(x_t)
    seen = []

    def fn(x, t, cond):
        seen.append((x.copy(), t))
        return np.sin(x)

    data = [SeededRng(30 + i).normal((5, 3)) for i in range(3)]
    loss = cfm_loss(StubModel(fn), [(x1, ConditionBundle()) for x1 in data], SeededRng(9)).item()

    # replay the stream: x0, then t, per item
    assert len(seen) == len(data)
    twin = SeededRng(9)
    x0 = []
    for (x_t, t), x1 in zip(seen, data):
        x0.append(twin.normal(x1.shape))
        assert t == twin.uniform()
        assert np.array_equal(x_t, (1.0 - t) * x0[-1] + t * x1)
    pred = np.sin(np.stack([x_t for x_t, _ in seen]))
    assert loss == np.mean((pred - (np.stack(data) - np.stack(x0))) ** 2)


# ---------------------------------------------------------------------------
# sway grid


def test_sway_zero_is_exactly_uniform():
    for nfe in (1, 7, 64):
        grid = sway_schedule(nfe, 0.0)
        uniform = np.arange(nfe + 1) / nfe
        assert np.abs(grid - uniform).max() <= 1e-15


def test_sway_endpoints_exact_for_all_coefficients():
    for s in (SWAY_MIN, -0.5, 0.0, 0.7, SWAY_MAX):
        grid = sway_schedule(32, s)
        assert grid[0] == 0.0
        assert grid[-1] == 1.0


@settings(max_examples=200, deadline=None)
@given(s=st.floats(min_value=SWAY_MIN, max_value=SWAY_MAX), nfe=st.integers(min_value=1, max_value=2048))
@example(s=SWAY_MIN, nfe=2048)
@example(s=SWAY_MAX, nfe=2048)
def test_sway_strictly_increasing_across_range(s, nfe):
    grid = sway_schedule(nfe, s)
    assert grid.shape == (nfe + 1,)
    assert grid[0] == 0.0 and grid[-1] == 1.0
    assert np.all(np.diff(grid) > 0.0)


def test_sway_grid_too_fine_for_float64_is_a_config_error():
    # at SWAY_MAX the warp is flat at t = 1: from nfe 2^18 the last knots
    # round to 1.0, which an Euler step would take as dt <= 0
    with pytest.raises(ConfigError, match=f"nfe 262144 and s {SWAY_MAX}"):
        sway_schedule(262144, SWAY_MAX)
    with pytest.raises(ConfigError, match="nfe 1000000"):
        sway_schedule(10**6, SWAY_MAX)
    model = StubModel(lambda x, t, cond: x)
    with pytest.raises(ConfigError):
        sample(model, ConditionBundle(), SamplerConfig(nfe=262144, sway_coef=SWAY_MAX))
    assert model.batch_sizes == []
    assert np.all(np.diff(sway_schedule(131072, SWAY_MAX)) > 0.0)


def test_negative_sway_front_loads():
    grid = sway_schedule(16, -1.0)
    uniform = np.arange(17) / 16
    # interior knots sit below the uniform grid: early steps are smaller
    assert np.all(grid[1:-1] < uniform[1:-1])
    assert np.all(np.diff(grid)[:-1] < np.diff(grid)[1:])


def test_sway_closed_form_value():
    # t(u) = u + s (cos(pi u / 2) - 1 + u); at u = 1/2, s = -1:
    # t = 1 - cos(pi/4) = 1 - sqrt(2)/2
    grid = sway_schedule(2, -1.0)
    assert abs(grid[1] - (1.0 - np.sqrt(2.0) / 2.0)) <= 1e-15


def test_sway_schedule_contracts():
    # the grid's nfe and s come from a SamplerConfig, which bounds s to the
    # range where the warp is monotone, ends included
    for s in (SWAY_MIN - 0.01, SWAY_MAX + 0.01):
        with pytest.raises(ConfigError, match="sway_coef"):
            SamplerConfig(sway_coef=s)
    for s in (SWAY_MIN, SWAY_MAX):
        assert SamplerConfig(sway_coef=s).sway_coef == s
    assert np.array_equal(sway_schedule(np.int32(4), 0.0), sway_schedule(4, 0.0))


def test_sampler_config_validation():
    for nfe in (0, 2.5, 2.0, True, np.bool_(True), "8", None):
        with pytest.raises(ConfigError):
            SamplerConfig(nfe=nfe)
    assert SamplerConfig(nfe=np.int64(3)).nfe == 3
    with pytest.raises(ConfigError):
        SamplerConfig(sway_coef=-2.0)
    with pytest.raises(ConfigError):
        SamplerConfig(guidance_scale=-0.1)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            SamplerConfig(guidance_scale=bad)


# ---------------------------------------------------------------------------
# training objective


def test_cfm_loss_zero_model_oracle():
    # a model that always answers zero makes the loss the mean squared
    # target velocity, which we can replay with a twin rng stream
    model = StubModel(lambda x, t, cond: np.zeros_like(x))
    rng = SeededRng(42)
    data = [SeededRng(100 + i).normal((5, 3)) for i in range(4)]
    batch = [(x1, ConditionBundle()) for x1 in data]
    loss = cfm_loss(model, batch, rng).item()
    assert model.batch_sizes == [4]  # one call for the whole batch

    twin = SeededRng(42)
    expected = 0.0
    for x1 in data:
        x0 = twin.normal(x1.shape)
        twin.uniform()  # t is drawn after x0 but unused by a zero model
        expected += np.mean((x1 - x0) ** 2)
    expected /= len(data)
    assert abs(loss - expected) <= 1e-12


def test_cfm_loss_perfect_model_is_zero():
    # a model that answers x1 - x0 exactly: replay the stream to know both
    data = SeededRng(7).normal((4, 3))
    twin = SeededRng(1)
    x0 = twin.normal(data.shape)
    model = StubModel(lambda x, t, cond: data - x0)
    loss = cfm_loss(model, [(data, ConditionBundle())], SeededRng(1)).item()
    assert loss <= 1e-24


def test_cfm_loss_rng_order_x0_then_t():
    # the contract pins the stream order; a swapped implementation would
    # disagree with this replay
    model = StubModel(lambda x, t, cond: np.zeros_like(x))
    x1 = np.ones((2, 2))
    loss = cfm_loss(model, [(x1, ConditionBundle())], SeededRng(3)).item()
    twin = SeededRng(3)
    x0 = twin.normal((2, 2))
    assert abs(loss - np.mean((x1 - x0) ** 2)) <= 1e-12


def test_a_training_step_frees_its_graph_as_backward_sweeps_it():
    # the default model, a batch of 8 text+video items, as in stage 3; the
    # byte counts repeat exactly from run to run
    cfg = ModelConfig()
    model = TwoTowerModel(cfg, seed=0)
    rng = SeededRng(0)
    batch = [
        (
            rng.normal((cfg.t_audio, cfg.d_audio_latent)),
            ConditionBundle(text_emb=rng.normal((2, cfg.d_text)), video_feat=rng.normal((cfg.t_audio, cfg.d_video_feat))),
        )
        for _ in range(8)
    ]
    backward(cfm_loss(model, batch, SeededRng(1)))  # first-call allocations
    model.zero_grad()
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss = cfm_loss(model, batch, SeededRng(2))
        held = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        backward(loss)
        after, peak = (n - base for n in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    grad_bytes = sum(p.grad.nbytes for p in model.parameters().values() if p.grad is not None)
    # the forward holds 9.8 MB. After backward, 0.82 MB of parameter
    # gradients and 41 kB of their array objects remain; a backward that
    # kept the graph kept 17.1 MB
    assert after <= grad_bytes + 64 * 1024
    # the sweep frees each activation once its last reader has run, so its
    # peak read 1.06 times the forward's bytes; kept whole, 1.77 times
    assert peak <= 1.25 * held


def test_cfm_loss_rejects_items_of_different_shapes():
    model = StubModel(lambda x, t, cond: np.zeros_like(x))
    with pytest.raises(ShapeError):
        cfm_loss(model, [(np.ones((2, 2)), ConditionBundle()), (np.ones((3, 2)), ConditionBundle())], SeededRng(0))


# ---------------------------------------------------------------------------
# guidance


def _branching_stub():
    # conditional branch returns x + 1, unconditional x - 1
    def fn(x, t, cond):
        return x + 1.0 if cond.text_emb is not None else x - 1.0

    return StubModel(fn)


def _textual_cond():
    return ConditionBundle(text_emb=np.zeros((1, STUB_CFG.d_text)))


def _guided(model, xs, t, cond, w):
    """guided_velocity of the stack xs at time t, given what sample_many
    gives it: the path row of t and the guided batch's conditioning."""
    conditioned = model.condition([c for c in flow._guidance_branches(cond, w) for _ in xs])
    return guided_velocity(model, xs, model.time_path([t])[0], w, conditioned)


def test_guided_velocity_blend_algebra():
    model = _branching_stub()
    x = SeededRng(8).normal((1, STUB_CFG.t_audio, STUB_CFG.d_audio_latent))
    cond = _textual_cond()
    v_u, v_c = x - 1.0, x + 1.0
    for w in (0.5, 2.0, 3.5):
        out = _guided(model, x, 0.5, cond, w)
        assert np.array_equal(out, v_u + w * (v_c - v_u)), w
    # w = 0 and w = 1 take the single-call path, so they return the branch
    # itself, bit for bit, not the blended expression
    assert np.array_equal(_guided(model, x, 0.5, cond, 0.0), v_u)
    assert np.array_equal(_guided(model, x, 0.5, cond, 1.0), v_c)


def test_guided_velocity_single_call_at_trivial_weights():
    x = np.zeros((1, STUB_CFG.t_audio, STUB_CFG.d_audio_latent))
    cond = _textual_cond()

    model = _branching_stub()
    _guided(model, x, 0.5, cond, 0.0)
    assert model.batch_sizes == [1]

    model = _branching_stub()
    _guided(model, x, 0.5, cond, 1.0)
    assert model.batch_sizes == [1]

    # both branches run as one batch
    model = _branching_stub()
    _guided(model, x, 0.5, cond, 2.0)
    assert model.batch_sizes == [2]

    model = _branching_stub()
    _guided(model, x, 0.5, ConditionBundle(), 2.0)
    assert model.batch_sizes == [1]


def test_guided_velocity_unconditional_bundle_ignores_weight():
    model = _branching_stub()
    x = SeededRng(9).normal((1, STUB_CFG.t_audio, STUB_CFG.d_audio_latent))
    out = _guided(model, x, 0.5, ConditionBundle(), 5.0)
    assert np.array_equal(out, x - 1.0)


def test_guided_velocity_unconditional_branch_drops_every_condition():
    seen = []

    def fn(x, t, cond):
        seen.append(cond)
        return x

    x = np.zeros((1, STUB_CFG.t_audio, STUB_CFG.d_audio_latent))
    extra = np.ones((1, STUB_CFG.d_text))
    full = ConditionBundle(
        text_emb=np.zeros((1, STUB_CFG.d_text)),
        video_feat=np.ones((STUB_CFG.t_audio, STUB_CFG.d_video_feat)),
        extra_tokens=extra,
    )
    for cond, w in ((full, 2.0), (full, 0.0), (ConditionBundle(extra_tokens=extra), 2.0)):
        seen.clear()
        _guided(StubModel(fn), x, 0.5, cond, w)
        bare = [c for c in seen if c is not cond]
        assert len(bare) == 1, (cond, w)
        assert bare[0].text_emb is None and bare[0].video_feat is None and bare[0].extra_tokens is None


# ---------------------------------------------------------------------------
# sampling


def test_sample_constant_field_telescopes():
    # v = c integrates to x0 + c exactly on any grid: the increments
    # telescope to t=1 - t=0
    c = 3.25
    model = StubModel(lambda x, t, cond: np.full_like(x, c))
    for s in (SWAY_MIN, 0.0, SWAY_MAX):
        cfg = SamplerConfig(nfe=17, sway_coef=s, guidance_scale=1.0, seed=12)
        out = sample(model, ConditionBundle(), cfg)
        x0 = SeededRng(12).normal((STUB_CFG.t_audio, STUB_CFG.d_audio_latent))
        assert np.abs(out - (x0 + c)).max() <= 1e-12


def test_sample_deterministic_in_seed():
    model = StubModel(lambda x, t, cond: -x)
    cfg = SamplerConfig(nfe=8, seed=4)
    a = sample(model, ConditionBundle(), cfg)
    b = sample(model, ConditionBundle(), cfg)
    assert np.array_equal(a, b)
    c = sample(model, ConditionBundle(), SamplerConfig(nfe=8, seed=5))
    assert not np.array_equal(a, c)


def test_sample_divergence_reports_step():
    model = StubModel(lambda x, t, cond: np.full_like(x, np.inf))
    with pytest.raises(DivergenceError) as err:
        sample(model, ConditionBundle(), SamplerConfig(nfe=4, seed=0))
    assert err.value.step == 0


def test_sample_uses_guidance_from_config():
    model = _branching_stub()
    cfg1 = SamplerConfig(nfe=4, guidance_scale=1.0, seed=2)
    cfg2 = SamplerConfig(nfe=4, guidance_scale=3.0, seed=2)
    out1 = sample(model, _textual_cond(), cfg1)
    out2 = sample(model, _textual_cond(), cfg2)
    assert not np.array_equal(out1, out2)


# ---------------------------------------------------------------------------
# sampling a stack of seeds


def test_guided_velocity_stack_matches_single_states():
    model = _branching_stub()
    xs = SeededRng(10).normal((3, STUB_CFG.t_audio, STUB_CFG.d_audio_latent))
    cond = _textual_cond()
    for w in (0.0, 1.0, 2.0):
        out = _guided(model, xs, 0.5, cond, w)
        assert out.shape == xs.shape
        for i in range(3):
            assert np.array_equal(out[i : i + 1], _guided(model, xs[i : i + 1], 0.5, cond, w)), (w, i)


def test_sample_many_one_call_of_batch_2k_per_step():
    model = _branching_stub()
    seeds = [3, 1, 4, 1]
    out = sample_many(model, _textual_cond(), SamplerConfig(nfe=5, guidance_scale=2.0), seeds)
    assert len(out) == 4
    assert model.batch_sizes == [8] * 5
    # the k unconditional items come first, then k conditional ones
    seen = []

    def spy(x, t, cond):
        seen.append(cond.text_emb is not None)
        return x

    model = StubModel(spy)
    sample_many(model, _textual_cond(), SamplerConfig(nfe=1, guidance_scale=2.0), seeds)
    assert seen == [False] * 4 + [True] * 4


@pytest.mark.parametrize("nfe", [1, 8])
def test_sample_many_decides_the_guidance_branches_once(monkeypatch, nfe):
    calls = []
    decide = flow._guidance_branches

    def counted(cond, w):
        calls.append(w)
        return decide(cond, w)

    monkeypatch.setattr(flow, "_guidance_branches", counted)
    model = _branching_stub()
    sample_many(model, _textual_cond(), SamplerConfig(nfe=nfe, guidance_scale=2.0), [3, 1])
    assert calls == [2.0]
    assert model.batch_sizes == [4] * nfe


def test_sample_many_matches_sample_per_seed_on_stub():
    model = StubModel(lambda x, t, cond: np.sin(x) - t)
    cfg = SamplerConfig(nfe=6, seed=99)
    seeds = [5, 6, 7]
    out = sample_many(model, _textual_cond(), cfg, seeds)
    for seed, latent in zip(seeds, out):
        assert np.array_equal(latent, sample(model, _textual_cond(), replace(cfg, seed=seed)))


class FailAt(StubModel):
    """StubModel whose calls number `call` to `call + calls - 1` (0-based)
    make the conditional velocity of batch row `row` NaN; it keeps a copy
    of every state batch it is given."""

    def __init__(self, fn, call, row, calls=1):
        super().__init__(fn)
        self.call, self.row, self.calls = call, row, calls
        self.states = []

    def __call__(self, x_t, t, conds):
        self.states.append(item_states(x_t, conds))
        out = super().__call__(x_t, t, conds)
        if self.call < len(self.batch_sizes) <= self.call + self.calls:
            out.data[len(conds) // 2 + self.row] = np.nan
        return out


def test_sample_many_keeps_a_diverged_seed_zeroed_and_runs_the_rest():
    def fn(x, t, cond):
        return np.cos(x) + (1.0 if cond.text_emb is not None else -1.0) * t

    cfg = SamplerConfig(nfe=5, guidance_scale=2.0)
    seeds = [10, 11, 12, 13]
    model = FailAt(fn, call=2, row=1)
    out = sample_many(model, _textual_cond(), cfg, seeds)
    assert isinstance(out[1], DivergenceError)
    assert out[1].step == 2
    assert str(out[1]) == "sampler produced non-finite values at step 2"
    # the diverged seed stays in the batch, zeroed, in both of its branch rows
    assert model.batch_sizes == [8] * 5
    assert not model.states[3][[1, 5]].any()
    for i in (0, 2, 3):
        alone = sample(StubModel(fn), _textual_cond(), replace(cfg, seed=seeds[i]))
        assert np.array_equal(out[i], alone), i


def test_sample_many_reports_the_first_divergence_and_feeds_the_model_no_nan():
    fed = []

    def fn(x, t, cond):
        fed.append(np.isfinite(x).all())
        return np.cos(x)

    # row 0 goes NaN at step 1 and at every step after it
    model = FailAt(fn, call=1, row=0, calls=99)
    out = sample_many(model, _textual_cond(), SamplerConfig(nfe=5, guidance_scale=2.0), [10, 11])
    assert out[0].step == 1
    assert isinstance(out[1], np.ndarray)
    assert model.batch_sizes == [4] * 5
    assert all(fed)


def test_sample_many_conditions_once_even_after_a_divergence():
    """Perf budget: the guided batch is conditioned once per trajectory,
    divergences included; conditioning inside the step loop fails here."""

    class Counting(FailAt):
        def __init__(self, fn, call, row):
            super().__init__(fn, call, row)
            self.conditioned = []

        def condition(self, conds):
            self.conditioned.append(len(conds))
            return super().condition(conds)

    def fn(x, t, cond):
        return np.cos(x) + (1.0 if cond.text_emb is not None else -1.0) * t

    model = Counting(fn, call=2, row=1)
    sample_many(model, _textual_cond(), SamplerConfig(nfe=5, guidance_scale=2.0), [10, 11, 12, 13])
    assert model.conditioned == [8]
    assert model.batch_sizes == [8] * 5
    clean = Counting(fn, call=99, row=0)  # never fails
    sample_many(clean, _textual_cond(), SamplerConfig(nfe=5, guidance_scale=2.0), [10, 11])
    assert clean.conditioned == [4]


def test_sample_many_all_diverged_stops_early():
    model = StubModel(lambda x, t, cond: np.full_like(x, np.inf))
    out = sample_many(model, ConditionBundle(), SamplerConfig(nfe=6), [1, 2])
    assert [e.step for e in out] == [0, 0]
    assert model.batch_sizes == [2]


REAL_CFG = ModelConfig(d_model=8, n_layers=1, n_heads=2, d_audio_latent=3, d_video_feat=4, d_text=4, t_audio=6)


@pytest.fixture(scope="module")
def real_model():
    return TwoTowerModel(REAL_CFG, seed=3)


def _real_conds():
    rng = SeededRng(21)
    text = rng.normal((2, REAL_CFG.d_text))
    video = rng.normal((5, REAL_CFG.d_video_feat))
    token = rng.normal((1, REAL_CFG.d_text))
    return {
        "text+video": ConditionBundle(text_emb=text, video_feat=video),
        "text": ConditionBundle(text_emb=text),
        "video": ConditionBundle(video_feat=video),
        "unconditional": ConditionBundle(),
        "text+video+token": ConditionBundle(text_emb=text, video_feat=video, extra_tokens=token),
        "token": ConditionBundle(extra_tokens=token),
    }


@pytest.mark.parametrize("k", [1, 4])
@pytest.mark.parametrize("guidance", [0.0, 1.0, 2.0])
@pytest.mark.parametrize("mix", list(_real_conds()))
def test_sample_many_matches_one_seed_sample_on_real_model(real_model, mix, guidance, k):
    cond = _real_conds()[mix]
    cfg = SamplerConfig(nfe=3, guidance_scale=guidance, seed=8)
    seeds = list(range(40, 40 + k))
    out = sample_many(real_model, cond, cfg, seeds)
    assert len(out) == k
    for seed, latent in zip(seeds, out):
        alone = sample(real_model, cond, replace(cfg, seed=seed))
        assert np.abs(latent - alone).max() <= 1e-12, (mix, guidance, k, seed)


def _jittered(cfg, seed):
    """A TwoTowerModel with every parameter moved by N(0, 0.05^2), so the
    adaLN gates, the mixers and the video tower all shape the velocity."""
    model = TwoTowerModel(cfg, seed=seed)
    rng = SeededRng(seed + 1)
    for p in model.parameters().values():
        p.data = p.data + 0.05 * rng.normal(p.shape)
    return model


# the default widths, so every product has a (k, n) shape that
# test_tensor::test_gemm_rows_do_not_depend_on_the_row_count guards
WIDE_CFG = ModelConfig(n_layers=1, t_audio=6)


@pytest.fixture(scope="module")
def wide_model():
    return _jittered(WIDE_CFG, seed=3)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["text+video", "text", "video", "unconditional"]),
    token=st.booleans(),
    guidance=st.sampled_from([0.0, 1.0, 2.0]),
    seeds=st.lists(st.integers(min_value=0, max_value=2**31 - 1), min_size=1, max_size=4, unique=True),
    nfe=st.integers(min_value=1, max_value=3),
)
def test_a_seeds_latent_does_not_depend_on_its_batch(wide_model, kind, token, guidance, seeds, nfe):
    rng = SeededRng(21)
    cond = ConditionBundle(
        text_emb=rng.normal((2, WIDE_CFG.d_text)) if "text" in kind else None,
        video_feat=rng.normal((5, WIDE_CFG.d_video_feat)) if "video" in kind else None,
        extra_tokens=rng.normal((1, WIDE_CFG.d_text)) if token else None,
    )
    cfg = SamplerConfig(nfe=nfe, guidance_scale=guidance)
    batched = sample_many(wide_model, cond, cfg, seeds)
    for seed, latent in zip(seeds, batched):
        assert np.array_equal(latent, sample_many(wide_model, cond, cfg, [seed])[0]), seed


@pytest.fixture(scope="module")
def default_model():
    return _jittered(ModelConfig(), seed=5)


@settings(max_examples=60, deadline=None)
@given(
    wide=st.booleans(),
    kind=st.sampled_from(["text+video", "text", "video", "unconditional"]),
    token=st.booleans(),
    guidance=st.sampled_from([0.0, 1.0, 2.0]),
    n=st.integers(min_value=1, max_value=4),
    t=st.floats(min_value=0.0, max_value=1.0),
    t_video=st.integers(min_value=1, max_value=9),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_a_guided_step_keeps_the_bits_of_every_branchs_own_copy(
    wide_model, default_model, wide, kind, token, guidance, n, t, t_video, seed
):
    # guided_velocity hands the model each state once for all branches and
    # the conditional bundle once for all states; the model called on a
    # copy of each state per branch and a bundle object per item, which
    # shares nothing, must give the same bits
    model = wide_model if wide else default_model
    cfg = model.config
    rng = SeededRng(seed)
    cond = ConditionBundle(
        text_emb=rng.normal((2, cfg.d_text)) if "text" in kind else None,
        video_feat=rng.normal((t_video, cfg.d_video_feat)) if "video" in kind else None,
        extra_tokens=rng.normal((1, cfg.d_text)) if token else None,
    )
    x = rng.normal((n, cfg.t_audio, cfg.d_audio_latent))
    row = model.time_path([t])[0]
    branches = flow._guidance_branches(cond, guidance)
    shared = model.condition([c for c in branches for _ in range(n)])
    own = model.condition([replace(c) for c in branches for _ in range(n)])
    v = model(Tensor(np.concatenate([x] * len(branches))), row, own).data.reshape((len(branches),) + x.shape)
    want = v[0] if len(branches) == 1 else v[0] + guidance * (v[1] - v[0])
    assert np.array_equal(guided_velocity(model, x, row, guidance, shared), want)


class NanRowAt:
    """A model whose call number `call` (0-based) makes the conditional
    velocity of batch row `row` NaN; it counts its condition calls and
    records whether each call's output is on the tape."""

    def __init__(self, model, call, row):
        self.model, self.call, self.row = model, call, row
        self.config = model.config
        self.calls = self.conditioned = 0
        self.taped = []

    def condition(self, conds):
        self.conditioned += 1
        return self.model.condition(conds)

    def time_path(self, times):
        return self.model.time_path(times)

    def __call__(self, x_t, t, conds):
        out = self.model(x_t, t, conds)
        self.taped.append(out.requires_grad)
        if self.calls == self.call:
            out.data[len(out.data) // 2 + self.row] = np.nan
        self.calls += 1
        return out


@pytest.mark.parametrize("k", [2, 4])
def test_a_diverged_sibling_leaves_the_other_seeds_bit_equal(k):
    model = _jittered(ModelConfig(), seed=5)
    rng = SeededRng(22)
    cond = ConditionBundle(text_emb=rng.normal((2, model.config.d_text)), video_feat=rng.normal((9, model.config.d_video_feat)))
    cfg = SamplerConfig(nfe=4, guidance_scale=2.0)
    seeds = list(range(60, 60 + k))
    clean = sample_many(model, cond, cfg, seeds)
    failing = NanRowAt(model, call=2, row=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the zeroed row keeps NaN out of every op
        out = sample_many(failing, cond, cfg, seeds)
    assert failing.conditioned == 1
    assert str(out[1]) == "sampler produced non-finite values at step 2"
    for i in range(k):
        if i != 1:
            assert np.array_equal(out[i], clean[i]), i


def _taping() -> bool:
    """Whether an op on a trainable leaf records itself on the tape."""
    return (Tensor(1.0, requires_grad=True) * Tensor(2.0)).requires_grad


def test_sample_many_runs_untaped_and_leaves_taping_on():
    model = _jittered(REAL_CFG, seed=4)
    cond = _real_conds()["text+video"]
    failing = NanRowAt(model, call=1, row=0)
    out = sample_many(failing, cond, SamplerConfig(nfe=3, guidance_scale=2.0), [1, 2])
    assert isinstance(out[0], DivergenceError) and isinstance(out[1], np.ndarray)
    assert failing.taped == [False] * 3
    assert _taping()
    assert all(p.grad is None for p in model.parameters().values())
    with pytest.raises(DivergenceError):
        sample(StubModel(lambda x, t, c: np.full_like(x, np.inf)), ConditionBundle(), SamplerConfig(nfe=2))
    assert _taping()
    bad = ConditionBundle(video_feat=np.ones((5, REAL_CFG.d_video_feat + 1)))
    with pytest.raises(ShapeError):
        sample_many(model, bad, SamplerConfig(nfe=2), [1])
    assert _taping()
    # a bare guided_velocity call runs taped
    bare = NanRowAt(model, call=-1, row=0)
    _guided(bare, np.zeros((1, REAL_CFG.t_audio, REAL_CFG.d_audio_latent)), 0.5, cond, 2.0)
    assert bare.taped == [True]
    assert all(p.grad is None for p in model.parameters().values())


class GivenTimes:
    """A model with a stub time path: each call computes the time path of
    the step's time for every item itself, not from the sampler's rows,
    and so hands the model every item's state."""

    def __init__(self, model):
        self.model, self.config = model, model.config

    def condition(self, conds):
        return self.model.condition(conds)

    def time_path(self, times):
        return np.asarray(times, dtype=np.float64)

    def __call__(self, x_t, t, conds):
        items = len(conds.text_mask)
        return self.model(Tensor(item_states(x_t, range(items))), self.model.time_path([t] * items), conds)


@pytest.mark.parametrize("nfe", [1, 64, flow._PATH_ROWS + 1])
def test_the_time_path_keeps_the_bits_of_given_times(wide_model, nfe):
    # nfe 1 is a one-row path, through matmul's one-row rule; one more
    # step than a path block starts a second, one-row block
    rng = SeededRng(26)
    cond = ConditionBundle(text_emb=rng.normal((2, WIDE_CFG.d_text)), video_feat=rng.normal((5, WIDE_CFG.d_video_feat)))
    cfg = SamplerConfig(nfe=nfe, guidance_scale=2.0)
    out = sample_many(wide_model, cond, cfg, [3, 4])
    given = sample_many(GivenTimes(wide_model), cond, cfg, [3, 4])
    for a, b in zip(out, given):
        assert np.array_equal(a, b)
