"""Two-tower model: init identities, bypass rules, shapes, persistence."""

import collections
import hashlib
import re
import struct
import sys
from dataclasses import asdict, astuple, fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from foleyflow import container, flow, tensor
from foleyflow.errors import ConfigError, ContractError, FormatError, ShapeError
from foleyflow.model import (
    ConditionBundle,
    Linear,
    ModelConfig,
    TwoTowerModel,
    cross_modal_mix,
    resample_video,
    timestep_features,
)
from foleyflow.rng import SeededRng
from foleyflow.tensor import ComputationTape, Tensor, backward, reduce_mean

SMALL = ModelConfig(d_model=8, n_layers=1, n_heads=2, d_audio_latent=4, d_video_feat=6, d_text=5, t_audio=7)


def _cond(cfg, rng, text=True, video=True, t_video=None):
    return ConditionBundle(
        text_emb=rng.normal((2, cfg.d_text)) if text else None,
        video_feat=rng.normal((t_video or cfg.t_audio, cfg.d_video_feat)) if video else None,
    )


def _forward(model, x: Tensor, times, conds) -> Tensor:
    """A forward of B items at B times, its inputs prepared as cfm_loss
    prepares them: the conditioning first, then the time path."""
    conditioning = model.condition(conds)
    return model(x, model.time_path(times), conditioning)


def _affine(w: np.ndarray) -> Linear:
    """A Linear of weight w and zero bias, outside any model."""
    return Linear(Tensor(w, requires_grad=True), Tensor(np.zeros(w.shape[1]), requires_grad=True))


def _perturb(model, seed=0, scale=0.05):
    rng = SeededRng(seed)
    for p in model.parameters().values():
        p.data = p.data + rng.normal(p.shape) * scale


# ---------------------------------------------------------------------------
# config and bundle contracts


def test_config_validation():
    for field in (f.name for f in fields(ModelConfig)):
        for bad in (0, -1, True, 2.5, 16.0, "8", None):
            with pytest.raises(ConfigError, match=field):
                ModelConfig(**{field: bad})
    assert ModelConfig(n_layers=np.int64(1)).n_layers == 1
    with pytest.raises(ConfigError):
        ModelConfig(d_model=10, n_heads=3)
    with pytest.raises(ConfigError):
        ModelConfig(t_audio=-5)


def test_bundle_stores_float64_arrays_converted_once():
    rng = SeededRng(9)
    text = rng.normal((2, SMALL.d_text))
    video = rng.normal((5, SMALL.d_video_feat))
    token = rng.normal((1, SMALL.d_text))

    def bundle(wrap):
        return ConditionBundle(text_emb=wrap(text), video_feat=wrap(video), extra_tokens=wrap(token))

    from_arrays = bundle(lambda a: a)
    from_lists = bundle(lambda a: a.tolist())
    for name, want in (("text_emb", text), ("video_feat", video), ("extra_tokens", token)):
        for b in (from_arrays, from_lists):
            got = getattr(b, name)
            assert type(got) is np.ndarray and got.dtype == np.float64
            assert np.array_equal(got, want)
        # a float64 array is kept as given, not copied
        assert getattr(from_arrays, name) is want

    model = TwoTowerModel(SMALL, seed=0)
    _perturb(model)
    x = rng.normal((1, SMALL.t_audio, SMALL.d_audio_latent))
    outs = [_forward(model, Tensor(x), [0.3], [b]).data for b in (from_arrays, from_lists)]
    assert outs[0].tobytes() == outs[1].tobytes()


# ---------------------------------------------------------------------------
# building blocks


def test_timestep_features_shape_and_range():
    f = timestep_features([0.5], 8)
    assert f.shape == (1, 8)
    with pytest.raises(ContractError):
        timestep_features([-0.01], 8)
    with pytest.raises(ContractError):
        timestep_features([1.01], 8)


def test_timestep_features_odd_dim_zero_padded():
    f = timestep_features([0.3], 7)
    assert f.shape == (1, 7)
    assert f[0, -1] == 0.0


def test_timestep_features_of_many_times_match_one_time_calls():
    times = np.array([0.0, 0.013, 0.5, 0.77, 1.0])
    for dim in (32, 7, 1):
        rows = timestep_features(times, dim)
        assert rows.shape == (5, dim)
        for b, t in enumerate(times):
            assert np.array_equal(rows[b : b + 1], timestep_features([float(t)], dim)), (dim, t)
    for bad in ([np.nan], [0.5, np.nan], [0.5, 1.5], [-0.1]):
        with pytest.raises(ContractError):
            timestep_features(bad, 8)


def test_timestep_features_distinguish_fine_steps():
    a = timestep_features([0.500], 16)
    b = timestep_features([0.501], 16)
    assert np.abs(a - b).max() > 1e-3


def test_resample_video_indices():
    feat = np.arange(8.0).reshape(4, 2)
    out = resample_video(feat, 8)
    # row j copies input row floor(j * 4 / 8)
    assert out[:, 0].tolist() == [0.0, 0.0, 2.0, 2.0, 4.0, 4.0, 6.0, 6.0]
    assert isinstance(resample_video(feat, 8), np.ndarray)


def test_resample_video_downsamples():
    feat = np.arange(16.0).reshape(8, 2)
    out = resample_video(feat, 4)
    assert out[:, 0].tolist() == [0.0, 4.0, 8.0, 12.0]


def test_mixer_identity_with_zero_init():
    rng = SeededRng(1)
    d = 8
    y_a = Tensor(rng.normal((5, d)))
    y_v = Tensor(rng.normal((5, d)))
    mix_a = _affine(np.zeros((2 * d, d)))
    mix_v = _affine(np.zeros((2 * d, d)))
    out_a, out_v = cross_modal_mix(y_a, y_v, mix_a, mix_v)
    assert np.abs(out_a.data - y_a.data).max() <= 1e-12
    assert np.abs(out_v.data - y_v.data).max() <= 1e-12


def test_mixer_mixes_once_trained():
    rng = SeededRng(2)
    d = 4
    y_a = Tensor(rng.normal((3, d)))
    y_v = Tensor(rng.normal((3, d)))
    mix_a = _affine(rng.normal((2 * d, d)) * 0.02)
    mix_v = _affine(rng.normal((2 * d, d)) * 0.02)
    out_a, out_v = cross_modal_mix(y_a, y_v, mix_a, mix_v)
    assert not np.allclose(out_a.data, y_a.data)
    assert not np.allclose(out_v.data, y_v.data)
    with pytest.raises(ShapeError):
        cross_modal_mix(y_a, Tensor(rng.normal((4, d))), mix_a, mix_v)
    # without a video mixer the video stream comes back as it went in
    out_a_only, same_v = cross_modal_mix(y_a, y_v, mix_a, None)
    assert same_v is y_v
    assert np.array_equal(out_a_only.data, out_a.data)


def test_the_last_video_mixer_never_runs_and_takes_no_gradient(monkeypatch):
    # the last layer's video stream is dropped, so that layer has no video
    # mixer at all; the earlier layer's video mixer still runs and trains
    cfg = replace(SMALL, n_layers=2)
    model = TwoTowerModel(cfg, seed=0)
    _perturb(model)
    called = []
    real_call = Linear.__call__

    def spy(self, x):
        called.append(self)
        return real_call(self, x)

    monkeypatch.setattr(Linear, "__call__", spy)
    rng = SeededRng(30)
    batch = [(rng.normal((cfg.t_audio, cfg.d_audio_latent)), cond) for cond in _mixed_conds(rng, 4, cfg)]
    model.zero_grad()
    backward(flow.cfm_loss(model, batch, SeededRng(31)))
    params = model.parameters()
    assert [name for name in params if ".mix_v." in name] == ["layers.0.mix_v.w", "layers.0.mix_v.b"]
    assert all(params[f"layers.0.mix_v.{p}"].grad is not None for p in "wb")
    assert all(params[f"layers.1.mix_a.{p}"].grad is not None for p in "wb")
    assert [any(m is mixer for m in called) for mixer in model.mix_v] == [True]


# ---------------------------------------------------------------------------
# whole model


def test_fresh_model_is_projection_composition():
    model = TwoTowerModel(SMALL, seed=0)
    rng = SeededRng(3)
    x = rng.normal((1, SMALL.t_audio, SMALL.d_audio_latent))
    expected = (x @ model.audio_in.w.data + model.audio_in.b.data) @ model.out_proj.w.data + model.out_proj.b.data
    for cond in (
        ConditionBundle(),
        _cond(SMALL, rng),
        _cond(SMALL, rng, text=False),
        _cond(SMALL, rng, video=False),
    ):
        out = _forward(model, Tensor(x), [0.37], [cond])
        assert np.abs(out.data - expected).max() <= 1e-12


def test_construction_is_deterministic():
    a = TwoTowerModel(SMALL, seed=4)
    b = TwoTowerModel(SMALL, seed=4)
    for name, p in a.parameters().items():
        assert np.array_equal(p.data, b.parameters()[name].data)
    c = TwoTowerModel(SMALL, seed=5)
    assert any(
        not np.array_equal(p.data, c.parameters()[name].data) for name, p in a.parameters().items()
    )


def test_video_tower_bypassed_without_video():
    model = TwoTowerModel(SMALL, seed=0)
    _perturb(model)
    rng = SeededRng(6)
    x = Tensor(rng.normal((1, SMALL.t_audio, SMALL.d_audio_latent)))
    cond = _cond(SMALL, rng, video=False)
    assert model.video_tower_invocations == 0
    _forward(model, x, [0.5], [cond])
    assert model.video_tower_invocations == 0


def test_video_changes_output_when_kept():
    model = TwoTowerModel(SMALL, seed=0)
    _perturb(model)
    rng = SeededRng(7)
    x = Tensor(rng.normal((1, SMALL.t_audio, SMALL.d_audio_latent)))
    cond_a = _cond(SMALL, rng)
    cond_b = ConditionBundle(
        text_emb=cond_a.text_emb,
        video_feat=rng.normal((SMALL.t_audio, SMALL.d_video_feat)),
    )
    before = model.video_tower_invocations
    out_a = _forward(model, x, [0.5], [cond_a])
    out_b = _forward(model, x, [0.5], [cond_b])
    assert model.video_tower_invocations == before + 2
    assert not np.allclose(out_a.data, out_b.data)


def test_video_time_axis_is_resampled():
    model = TwoTowerModel(SMALL, seed=0)
    _perturb(model)
    rng = SeededRng(8)
    x = Tensor(rng.normal((1, SMALL.t_audio, SMALL.d_audio_latent)))
    out = _forward(model, x, [0.5], [_cond(SMALL, rng, t_video=13)])
    assert out.shape == (1, SMALL.t_audio, SMALL.d_audio_latent)


def test_null_token_backs_dropped_text():
    model = TwoTowerModel(SMALL, seed=0)
    _perturb(model)
    rng = SeededRng(9)
    x = Tensor(rng.normal((1, SMALL.t_audio, SMALL.d_audio_latent)))
    out_a = _forward(model, x, [0.5], [_cond(SMALL, rng, text=False, video=False)])
    # moving the null token moves the unconditional output
    model.null_text.data = model.null_text.data + 1.0
    out_b = _forward(model, x, [0.5], [_cond(SMALL, rng, text=False, video=False)])
    assert not np.allclose(out_a.data, out_b.data)


def test_text_content_matters_after_perturbation():
    model = TwoTowerModel(SMALL, seed=0)
    _perturb(model)
    rng = SeededRng(10)
    x = Tensor(rng.normal((1, SMALL.t_audio, SMALL.d_audio_latent)))
    out_a = _forward(model, x, [0.5], [_cond(SMALL, rng, video=False)])
    out_b = _forward(model, x, [0.5], [_cond(SMALL, rng, video=False)])
    assert not np.allclose(out_a.data, out_b.data)


def test_extra_tokens_enter_cross_attention():
    model = TwoTowerModel(SMALL, seed=0)
    _perturb(model)
    rng = SeededRng(11)
    x = Tensor(rng.normal((1, SMALL.t_audio, SMALL.d_audio_latent)))
    cond = _cond(SMALL, rng, video=False)
    out_plain = _forward(model, x, [0.5], [cond])
    out_extra = _forward(model, x, [0.5], [replace(cond, extra_tokens=rng.normal((1, SMALL.d_text)))])
    assert not np.allclose(out_plain.data, out_extra.data)


def test_timestep_matters_after_perturbation():
    model = TwoTowerModel(SMALL, seed=0)
    _perturb(model)
    rng = SeededRng(12)
    x = Tensor(rng.normal((1, SMALL.t_audio, SMALL.d_audio_latent)))
    cond = _cond(SMALL, rng)
    out_a = _forward(model, x, [0.1], [cond])
    out_b = _forward(model, x, [0.9], [cond])
    assert not np.allclose(out_a.data, out_b.data)


def test_forward_shape_errors():
    model = TwoTowerModel(SMALL, seed=0)
    rng = SeededRng(13)
    good_x = Tensor(rng.normal((1, SMALL.t_audio, SMALL.d_audio_latent)))
    one, two = model.condition([ConditionBundle()]), model.condition([ConditionBundle()] * 2)
    path = model.time_path([0.5])
    with pytest.raises(ShapeError):
        model(Tensor(rng.normal((1, SMALL.t_audio + 1, SMALL.d_audio_latent))), path, one)
    with pytest.raises(ShapeError):
        model(Tensor(rng.normal((SMALL.t_audio, SMALL.d_audio_latent))), path, one)
    with pytest.raises(ShapeError):
        model(good_x, model.time_path([0.5, 0.5]), one)
    # n states serve B = r n items under a one-row path, and only then
    with pytest.raises(ShapeError):
        model(good_x, model.time_path([0.5, 0.5]), two)
    with pytest.raises(ShapeError):
        model(Tensor(np.zeros((2, SMALL.t_audio, SMALL.d_audio_latent))), path, model.condition([ConditionBundle()] * 3))
    with pytest.raises(ShapeError):
        model(Tensor(np.zeros((0, SMALL.t_audio, SMALL.d_audio_latent))), path, two)
    assert model(good_x, path, two).shape[0] == 2
    # a path of one row serves any batch, a path of B rows only batch B
    x3 = Tensor(np.zeros((3, SMALL.t_audio, SMALL.d_audio_latent)))
    three = model.condition([ConditionBundle()] * 3)
    assert model(x3, path, three).shape[0] == 3
    with pytest.raises(ShapeError):
        model(x3, model.time_path([0.5, 0.5]), three)
    bad_text = ConditionBundle(text_emb=rng.normal((2, SMALL.d_text + 1)))
    with pytest.raises(ShapeError):
        model.condition([bad_text])
    bad_video = ConditionBundle(video_feat=rng.normal((4, SMALL.d_video_feat + 2)))
    with pytest.raises(ShapeError):
        model.condition([bad_video])
    bad_extra = ConditionBundle(extra_tokens=rng.normal((1, SMALL.d_text + 3)))
    with pytest.raises(ShapeError):
        model.condition([bad_extra])


@pytest.mark.parametrize("field", ["text_emb", "video_feat", "extra_tokens"])
def test_condition_bundle_checks_features_where_they_enter(field):
    for shape in ((4,), (0, 4), (2, 3, 4), ()):
        for wrap in (np.zeros, lambda s: np.zeros(s).tolist()):
            with pytest.raises(ShapeError, match=field):
                ConditionBundle(**{field: wrap(shape)})
    for bad in (np.nan, np.inf, -np.inf):
        values = np.ones((3, 4))
        values[1, 2] = bad
        with pytest.raises(ContractError, match=f"{field} contains non-finite values"):
            ConditionBundle(**{field: values})
    kept = getattr(ConditionBundle(**{field: [[1.0, 2.0]]}), field)
    assert kept.dtype == np.float64 and kept.shape == (1, 2)


def test_gradients_reach_both_towers():
    # perturbed, not fresh: zero-init mixers block gradient flow into the
    # video tower until they move off zero
    model = TwoTowerModel(SMALL, seed=0)
    _perturb(model)
    rng = SeededRng(14)
    x = Tensor(rng.normal((1, SMALL.t_audio, SMALL.d_audio_latent)))
    out = _forward(model, x, [0.5], [_cond(SMALL, rng)])
    backward(reduce_mean(out * out))
    params = model.parameters()
    for name in ("audio_in.w", "out_proj.w", "layers.0.audio.adaln.w", "layers.0.video.adaln.w", "layers.0.mix_a.w"):
        assert params[name].grad is not None, name
        assert np.any(params[name].grad != 0.0), name


def test_a_conditioning_takes_one_backward_and_a_fresh_one_takes_the_next():
    # a second backward through one Conditioning's tensors would add the
    # first backward's gradient on them into text_proj's again
    model = TwoTowerModel(SMALL, seed=0)
    _perturb(model)
    rng = SeededRng(15)
    conds = [_cond(SMALL, rng), _cond(SMALL, rng, video=False)]
    x = Tensor(rng.normal((2, SMALL.t_audio, SMALL.d_audio_latent)))

    def loss(conditioning):
        out = model(x, model.time_path([0.3, 0.8]), conditioning)
        return reduce_mean(out * out)

    conditioning = model.condition(conds)
    backward(loss(conditioning))
    want = {name: p.grad.copy() for name, p in model.parameters().items() if p.grad is not None}
    assert np.any(want["text_proj.w"] != 0.0)
    model.zero_grad()
    reused = loss(conditioning)
    with pytest.raises(ContractError, match="fresh model.condition"):
        backward(reused)
    assert all(p.grad is None for p in model.parameters().values())  # refused before any sweep
    backward(loss(model.condition(conds)))
    got = {name: p.grad for name, p in model.parameters().items() if p.grad is not None}
    assert got.keys() == want.keys()
    for name, grad in want.items():
        assert np.array_equal(got[name], grad), name


def _mixed_conds(rng, n, cfg=SMALL):
    """n bundles cycling through text+video, unconditional, video-only and
    text + an extra token, with token and frame counts that differ."""
    kinds = [
        lambda: _cond(cfg, rng, t_video=9),
        lambda: ConditionBundle(),
        lambda: _cond(cfg, rng, text=False, t_video=4),
        lambda: ConditionBundle(
            text_emb=rng.normal((3, cfg.d_text)),
            extra_tokens=rng.normal((1, cfg.d_text)),
        ),
    ]
    return [kinds[b % len(kinds)]() for b in range(n)]


def test_batch_matches_batch_1_forwards_and_gradients():
    model = TwoTowerModel(SMALL, seed=0)
    _perturb(model)
    rng = SeededRng(17)
    conds = _mixed_conds(rng, 4)
    times = [0.1, 0.4, 0.7, 0.95]
    x = rng.normal((4, SMALL.t_audio, SMALL.d_audio_latent))

    out = _forward(model, Tensor(x), times, conds)
    backward(reduce_mean(out * out))
    batch_grads = {name: p.grad.copy() for name, p in model.parameters().items() if p.grad is not None}

    # mean(y^2) over the batch is the mean of the per-item means
    item_grads = {name: np.zeros(p.shape) for name, p in model.parameters().items()}
    for b in range(4):
        model.zero_grad()
        alone = _forward(model, Tensor(x[b : b + 1]), [times[b]], [conds[b]])
        assert np.abs(alone.data[0] - out.data[b]).max() <= 1e-12, b
        backward(reduce_mean(alone * alone))
        for name, p in model.parameters().items():
            if p.grad is not None:
                item_grads[name] += p.grad / 4
    assert len(batch_grads) == len(item_grads) == 53  # every parameter takes a gradient
    for name, grad in batch_grads.items():
        assert np.abs(grad - item_grads[name]).max() <= 1e-12, name


def test_tape_size_does_not_grow_with_batch():
    model = TwoTowerModel(SMALL, seed=0)
    rng = SeededRng(18)
    sizes = []
    for n, conds in ((1, [_cond(SMALL, rng)]), (8, _mixed_conds(rng, 8))):
        x = Tensor(rng.normal((n, SMALL.t_audio, SMALL.d_audio_latent)))
        out = _forward(model, x, [0.5] * n, conds)
        sizes.append(len(ComputationTape.trace(reduce_mean(out * out)).nodes))
    assert sizes[0] == sizes[1]


def _count_ops(monkeypatch) -> collections.Counter:
    """Tape ops recorded from now on, by kind: every op records its output
    through tensor._from_op, so its calls counted by calling function."""
    kinds = collections.Counter()
    record = tensor._from_op

    def counted(*args):
        kinds[sys._getframe(1).f_code.co_name] += 1
        return record(*args)

    monkeypatch.setattr(tensor, "_from_op", counted)
    return kinds


def test_guided_forward_records_92_tape_ops(monkeypatch):
    """Perf budget of the hot path: the tape ops of one guided text+video
    forward at the default config. 9 of them condition the batch (text
    tokens, cross-attention keys and values, video input) and 8 make the
    time path of its one time (time embedding, its gelu, one adaln per
    block); 2 of the 4 gathers copy the state's shared audio rows out to
    both branches.
    A change that adds ops to the forward fails here without running a
    benchmark."""
    cfg = ModelConfig()
    model = TwoTowerModel(cfg, seed=0)
    rng = SeededRng(22)
    x_t, cond = rng.normal((1, cfg.t_audio, cfg.d_audio_latent)), _cond(cfg, rng)
    kinds = _count_ops(monkeypatch)
    conditioned = model.condition([ConditionBundle(), cond])
    flow.guided_velocity(model, x_t, model.time_path([0.5])[0], 2.0, conditioned)
    assert sum(kinds.values()) == 92
    pinned = ("matmul", "gelu", "gather_rows", "modulated_norm", "gated_residual", "scatter_rows", "mul")
    assert {k: kinds[k] for k in pinned} == {
        "matmul": 45,
        "gelu": 6,
        "gather_rows": 4,
        "modulated_norm": 10,
        "gated_residual": 10,
        "scatter_rows": 2,
        "mul": 1,
    }


def test_training_forward_records_95_tape_ops(monkeypatch):
    """Perf budget of a training step's forward: the tape ops of one
    cfm_loss at batch 8 of the default config, where some items carry
    video and some do not. The forward makes the time path of its 8 times
    (time embedding, its gelu, one adaln per block) and gathers the video
    items' rows of each video block's modulation; a change that adds ops
    to the training forward fails here without running a benchmark."""
    cfg = ModelConfig()
    rng = SeededRng(28)
    batch = [(rng.normal((cfg.t_audio, cfg.d_audio_latent)), cond) for cond in _mixed_conds(rng, 8, cfg)]
    kinds = _count_ops(monkeypatch)
    flow.cfm_loss(TwoTowerModel(cfg, seed=0), batch, SeededRng(29))
    assert sum(kinds.values()) == 95
    pinned = ("matmul", "gelu", "gather_rows", "modulated_norm", "gated_residual", "scatter_rows", "mul")
    assert {k: kinds[k] for k in pinned} == {
        "matmul": 45,
        "gelu": 6,
        "gather_rows": 4,
        "modulated_norm": 10,
        "gated_residual": 10,
        "scatter_rows": 2,
        "mul": 2,
    }


@pytest.mark.parametrize("nfe, ops", [(1, 93), (4, 321)])
def test_sample_many_conditions_once_per_trajectory(monkeypatch, nfe, ops):
    """Perf budget of the sampler: 9 conditioning ops and 8 time-path ops
    once per trajectory, then 76 per Euler step. 5 of those are gathers:
    3 copy the branch-shared rows out to the items and 2 pick the video
    items' audio rows for the mixers. A change that puts
    per-condition or per-time work back into the step loop fails here
    without running a benchmark."""
    kinds = _count_ops(monkeypatch)
    cfg = ModelConfig()
    rng = SeededRng(23)
    flow.sample_many(TwoTowerModel(cfg, seed=0), _cond(cfg, rng), flow.SamplerConfig(nfe=nfe), [1, 2])
    assert sum(kinds.values()) == ops == 9 + 8 + 76 * nfe
    assert kinds["gather_rows"] == 5 * nfe


def test_a_guided_step_runs_branch_shared_rows_once(monkeypatch):
    """Perf guard of the guided step: at k = 4 seeds and text+video, audio
    block 0's query product sees the rows of the 4 states, not of the 8
    guided items, and video block 0's the rows of the one video, not of
    4 copies; the later blocks see every item's rows."""
    cfg = ModelConfig()
    model = TwoTowerModel(cfg, seed=0)
    watched = {id(model.audio_blocks[i].wq.w): f"audio {i}" for i in range(cfg.n_layers)}
    watched |= {id(model.video_blocks[i].wq.w): f"video {i}" for i in range(cfg.n_layers)}
    rows = collections.defaultdict(list)

    def counted(a, b, bias=None):
        if id(b) in watched:
            rows[watched[id(b)]].append(a.size // a.shape[-1])
        return tensor.matmul(a, b, bias)

    monkeypatch.setattr("foleyflow.model.matmul", counted)
    flow.sample_many(model, _cond(cfg, SeededRng(31)), flow.SamplerConfig(nfe=2, guidance_scale=2.0), [1, 2, 3, 4])
    t = cfg.t_audio
    assert rows == {"audio 0": [4 * t] * 2, "audio 1": [8 * t] * 2, "video 0": [t] * 2, "video 1": [4 * t] * 2}


@pytest.mark.parametrize("m", [1, 64])
def test_a_time_path_row_keeps_the_bits_of_its_time(m):
    # the default widths, whose gemm rows keep their bits at any row
    # count (test_tensor); m = 1 runs through matmul's one-row rule
    cfg = ModelConfig(n_layers=1, t_audio=6)
    model = TwoTowerModel(cfg, seed=0)
    _perturb(model)
    rng = SeededRng(27)
    conds = _mixed_conds(rng, 4, cfg)
    conditioned = model.condition(conds)
    times = flow.sway_schedule(m, -1.0)[:m]
    path = model.time_path(times)
    assert len(path) == m
    x = Tensor(rng.normal((4, cfg.t_audio, cfg.d_audio_latent)))
    for k, t in enumerate(times):
        per_item = model(x, model.time_path([t] * 4), conditioned)
        assert np.array_equal(model(x, path[k], conditioned).data, per_item.data), k


def test_condition_checks_bundles_and_reuses_across_times():
    model = TwoTowerModel(SMALL, seed=0)
    _perturb(model)
    rng = SeededRng(24)
    conds = _mixed_conds(rng, 3)
    conditioned = model.condition(conds)
    assert conditioned.text_mask.shape[0] == 3 and conditioned.video == (0, 2)
    x = rng.normal((3, SMALL.t_audio, SMALL.d_audio_latent))
    for times in ([0.2, 0.5, 0.9], [0.0, 1.0, 0.3]):
        reused = model(Tensor(x), model.time_path(times), conditioned)
        assert np.array_equal(reused.data, _forward(model, Tensor(x), times, conds).data)
    with pytest.raises(ShapeError):
        model(Tensor(x[:2]), model.time_path([0.5, 0.5]), conditioned)
    with pytest.raises(ShapeError):
        model.condition([])
    with pytest.raises(ShapeError):
        model.condition([ConditionBundle(video_feat=rng.normal((4, SMALL.d_video_feat + 1)))])


def test_zero_grad_clears():
    model = TwoTowerModel(SMALL, seed=0)
    rng = SeededRng(15)
    x = Tensor(rng.normal((1, SMALL.t_audio, SMALL.d_audio_latent)))
    backward(reduce_mean(_forward(model, x, [0.5], [ConditionBundle()]) * 1.0))
    model.zero_grad()
    assert all(p.grad is None for p in model.parameters().values())


# ---------------------------------------------------------------------------
# persistence


def test_save_load_roundtrip_forward_identical(tmp_path):
    model = TwoTowerModel(SMALL, seed=0)
    _perturb(model)
    path = str(tmp_path / "m.ckpt")
    model.save(path)
    loaded = TwoTowerModel.load(path)
    assert loaded.config == SMALL
    rng = SeededRng(16)
    x = Tensor(rng.normal((1, SMALL.t_audio, SMALL.d_audio_latent)))
    cond = _cond(SMALL, rng)
    a = _forward(model, x, [0.25], [cond])
    b = _forward(loaded, x, [0.25], [cond])
    assert np.array_equal(a.data, b.data)


def _closed_form_param_count(cfg: ModelConfig) -> int:
    """The parameter count worked out by hand, as a check on _declare:
    projections, time MLP, positions and null text token, then per layer
    an audio block (9d adaLN, 8 attention maps), a video block (6d adaLN,
    4 attention maps), and 2L - 1 mixers in all."""

    def affine(i: int, o: int) -> int:
        return i * o + o

    d, a, v, x, T, L = cfg.d_model, cfg.d_audio_latent, cfg.d_video_feat, cfg.d_text, cfg.t_audio, cfg.n_layers
    audio_block = affine(d, 9 * d) + 8 * affine(d, d) + affine(d, 4 * d) + affine(4 * d, d)
    video_block = affine(d, 6 * d) + 4 * affine(d, d) + affine(d, 4 * d) + affine(4 * d, d)
    fixed = affine(a, d) + affine(v, d) + affine(x, d) + affine(d, a) + 2 * affine(d, d) + 2 * T * d + x
    return fixed + L * (audio_block + video_block) + (2 * L - 1) * affine(2 * d, d)


def test_param_count_matches_closed_form():
    for cfg in (
        SMALL,
        ModelConfig(),
        ModelConfig(d_model=16, n_layers=3, n_heads=2, d_audio_latent=8, d_video_feat=12, d_text=10, t_audio=20),
    ):
        assert TwoTowerModel(cfg, seed=0).flat.size == _closed_form_param_count(cfg)


def _saved(tmp_path, state: dict, name: str = "m.ckpt") -> str:
    path = str(tmp_path / name)
    container.write_checkpoint(path, astuple(SMALL), state)
    return path


def test_load_state_rejects_name_mismatch(tmp_path):
    state = TwoTowerModel(SMALL, seed=0).state_arrays()
    state["bogus"] = np.zeros(3)
    with pytest.raises(FormatError, match="bogus"):
        TwoTowerModel.load(_saved(tmp_path, state, "extra.ckpt"))
    state = TwoTowerModel(SMALL, seed=0).state_arrays()
    del state["out_proj.w"]
    with pytest.raises(FormatError, match="out_proj.w"):
        TwoTowerModel.load(_saved(tmp_path, state, "missing.ckpt"))


def test_load_state_rejects_shape_mismatch(tmp_path):
    state = TwoTowerModel(SMALL, seed=0).state_arrays()
    state["out_proj.b"] = np.zeros(SMALL.d_audio_latent + 1)
    with pytest.raises(FormatError, match="shape"):
        TwoTowerModel.load(_saved(tmp_path, state))


def test_load_state_is_all_or_nothing(tmp_path, monkeypatch):
    # every record but the last is valid, so a load that allocated and
    # copied as it checked would have built a model before raising
    state = TwoTowerModel(SMALL, seed=1).state_arrays()
    last = list(state)[-1]
    state[last] = np.zeros(state[last].size + 1)
    path = _saved(tmp_path, state)
    monkeypatch.setattr(TwoTowerModel, "_allocate", _refuse_allocation)
    with pytest.raises(FormatError, match=re.escape(last)):
        TwoTowerModel.load(path)


def test_load_state_copies_into_the_vector(tmp_path):
    state = TwoTowerModel(SMALL, seed=1).state_arrays()
    model = TwoTowerModel.load(_saved(tmp_path, state))
    assert model.flat.size == _closed_form_param_count(SMALL)
    for name, p in model.parameters().items():
        assert p.data.base is model.flat
        assert np.array_equal(model.flat[model.slices[name]], state[name].reshape(-1))


def _refuse(what: str):
    def refuse(*args, **kwargs):
        raise AssertionError(what)

    return refuse


_refuse_allocation = _refuse("parameter memory was allocated")


def _tiny_config(heads: int, width: int, layers: int, a: int, v: int, x: int, t: int) -> ModelConfig:
    return ModelConfig(d_model=heads * width, n_layers=layers, n_heads=heads, d_audio_latent=a, d_video_feat=v, d_text=x, t_audio=t)


_TINY = st.builds(_tiny_config, *[st.integers(1, 3)] * 7)
_DAMAGE = ("none", "drop", "extra", "reshape", "non-finite", "config")
_FIELDS = tuple(f.name for f in fields(ModelConfig))


def _every_field_at_the_limit(test):
    for field in range(len(_FIELDS)):
        test = example(cfg=SMALL, pick=field, value=2**62)(test)
    return test


def _damaged(cfg: ModelConfig, state: dict, damage: str, pick: int, value: int) -> tuple:
    """(config ints, records, the record named in the error or None, whether the file is valid)."""
    state = {name: arr.copy() for name, arr in state.items()}
    names = list(state)
    name, values = names[pick % len(names)], astuple(cfg)
    if damage == "drop":
        del state[name]
    elif damage == "extra":
        name = f"layers.{cfg.n_layers - 1}.mix_v.b"  # the dead mixer older checkpoints carried
        state[name] = np.zeros(cfg.d_model)
    elif damage == "reshape":
        state[name] = state[name][None]
    elif damage == "non-finite":
        state[name].reshape(-1)[pick % state[name].size] = (np.nan, np.inf, -np.inf)[pick % 3]
    elif damage == "config":
        field = pick % len(_FIELDS)
        values = values[:field] + (max(value, values[field] + 1),) + values[field + 1 :]
        # n_heads shapes no parameter: a raised head count that divides d_model is a valid config
        return values, state, None, _FIELDS[field] == "n_heads" and cfg.d_model % values[field] == 0
    return values, state, name, damage == "none"


@settings(max_examples=20, deadline=None)
@_every_field_at_the_limit
@given(cfg=_TINY, pick=st.integers(0, 2**16), value=st.integers(1, 2**62))
def test_load_checks_every_record_against_the_declaration_before_it_allocates(tmp_path_factory, cfg, pick, value):
    # a damaged file is a FormatError that names the path, and the record
    # where there is one, raised before any parameter memory exists; an
    # intact file loads into flat with the saved bits and draws nothing
    saved = TwoTowerModel(cfg, seed=pick).state_arrays()
    root = tmp_path_factory.mktemp("load")
    allocations = []
    real_allocate = TwoTowerModel._allocate

    def watched(self, *args):
        allocations.append(args)
        real_allocate(self, *args)

    for damage in _DAMAGE:
        values, state, name, valid = _damaged(cfg, saved, damage, pick, value)
        path = str(root / f"{damage}.ckpt")
        container.write_checkpoint(path, values, state)
        allocations.clear()
        with mock.patch.object(TwoTowerModel, "_allocate", watched):
            if not valid:
                with pytest.raises(FormatError, match=re.escape(path) + (f".*{re.escape(repr(name))}" if name else "")):
                    TwoTowerModel.load(path)
                assert allocations == [], damage
                continue
            with mock.patch.object(SeededRng, "normal", _refuse("load drew random numbers")):
                loaded = TwoTowerModel.load(path)
        assert len(allocations) == 1 and loaded.config == ModelConfig(*values)
        assert list(loaded.parameters()) == list(saved)
        for key, p in loaded.parameters().items():
            assert p.data.base is loaded.flat and p.data.tobytes() == state[key].tobytes(), key


@pytest.mark.parametrize("version", [0, 1, 2])
def test_checkpoint_of_another_version_does_not_load(tmp_path, version):
    path = tmp_path / "m.ckpt"
    TwoTowerModel(SMALL, seed=0).save(str(path))
    blob = path.read_bytes()
    path.write_bytes(blob[:4] + struct.pack("<I", version) + blob[8:])
    with pytest.raises(FormatError, match=f"version {version}"):
        TwoTowerModel.load(str(path))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_load_refuses_a_non_finite_parameter_by_name_before_copying(tmp_path, monkeypatch, value):
    # a well-formed file written with a NaN passes the container's CRC
    state = TwoTowerModel(SMALL, seed=0).state_arrays()
    state["layers.0.audio.fc1.w"][2, 3] = value
    path = str(tmp_path / "m.ckpt")
    container.write_checkpoint(path, astuple(SMALL), state)

    monkeypatch.setattr(TwoTowerModel, "_allocate", _refuse_allocation)
    with pytest.raises(FormatError, match=r"m\.ckpt: record 'layers\.0\.audio\.fc1\.w' holds a non-finite value"):
        TwoTowerModel.load(path)


def test_load_rejects_an_invalid_config_block(tmp_path):
    path = str(tmp_path / "heads.ckpt")
    container.write_checkpoint(path, {**asdict(SMALL), "n_heads": 3}.values(), TwoTowerModel(SMALL, seed=0).state_arrays())
    with pytest.raises(FormatError, match="heads.ckpt.*n_heads 3"):
        TwoTowerModel.load(path)


def test_load_rejects_a_config_block_wider_than_its_records_before_building(tmp_path, monkeypatch):
    small = ModelConfig(d_model=32, n_layers=1, n_heads=4, d_audio_latent=4, d_video_feat=4, d_text=4, t_audio=4)
    path = str(tmp_path / "wide.ckpt")
    container.write_checkpoint(path, {**asdict(small), "d_model": 48}.values(), TwoTowerModel(small, seed=0).state_arrays())

    monkeypatch.setattr(TwoTowerModel, "_allocate", _refuse_allocation)
    with pytest.raises(FormatError, match="wide.ckpt"):
        TwoTowerModel.load(path)


@pytest.mark.parametrize("count", [6, 8], ids=["6 ints", "8 ints"])
def test_load_refuses_a_config_record_of_another_field_count_before_building(tmp_path, monkeypatch, count):
    path = str(tmp_path / "m.ckpt")
    values = (astuple(SMALL) + (1,))[:count]
    container.write_checkpoint(path, values, TwoTowerModel(SMALL, seed=0).state_arrays())

    monkeypatch.setattr(TwoTowerModel, "_allocate", _refuse_allocation)
    with pytest.raises(FormatError, match=rf"m\.ckpt: config record holds {count} ints, ModelConfig has 7 fields"):
        TwoTowerModel.load(path)


def test_load_draws_no_random_numbers(tmp_path, monkeypatch):
    # every parameter comes from the file, so no init is drawn to be overwritten
    model = TwoTowerModel(SMALL, seed=4)
    _perturb(model)
    path = str(tmp_path / "m.ckpt")
    model.save(path)

    def refuse(*args, **kwargs):
        raise AssertionError("load drew random numbers")

    for name in ("__init__", "normal", "uniform", "bernoulli", "integers"):
        monkeypatch.setattr(SeededRng, name, refuse)
    loaded = TwoTowerModel.load(path)
    for name, p in loaded.parameters().items():
        assert np.array_equal(p.data, model.parameters()[name].data), name
        assert np.shares_memory(p.data, loaded.flat), name


def test_default_init_parameters_pinned():
    # Philox draws only, so the digest does not depend on the BLAS build;
    # a change in parameter names, order, shapes or init values moves it
    model = TwoTowerModel(ModelConfig(), seed=0)
    digest = hashlib.sha256()
    state = model.state_arrays()
    for name, arr in state.items():
        digest.update(name.encode("utf-8"))
        digest.update(repr(arr.shape).encode("utf-8"))
        digest.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    assert (len(state), model.flat.size) == (93, 103_008)
    assert digest.hexdigest() == "3942e8992a73b28e639040406220ff53b81256482ba985ca72ab5291fcfac7ee"
