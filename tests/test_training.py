"""Curriculum, batch drawing, gradient clipping, Adam, stage loops."""

import dataclasses
import math
import tracemalloc
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from foleyflow import training
from foleyflow.errors import ConfigError, ContractError, DivergenceError
from foleyflow.flow import SamplerConfig, cfm_loss, sample_many
from foleyflow.model import ConditionBundle, ModelConfig, TwoTowerModel
from foleyflow.providers import ToyClip, make_toy_clips
from foleyflow.rng import SeededRng, derive_seed
from foleyflow.tensor import backward
from foleyflow.training import (
    TAG_T2A,
    TAG_TV2A,
    TAG_V2A,
    ADAM_BETAS,
    ADAM_BLOCK,
    ADAM_EPS,
    CURRICULUM,
    AdamState,
    FlatGrads,
    OptimizerConfig,
    StageConfig,
    TrainEvent,
    adam_step,
    clip_grad_norm,
    draw_batch,
    format_event,
    gather_grads,
    run_curriculum,
    run_stage,
    stage_preset,
)

SMALL = ModelConfig(d_model=8, n_layers=1, n_heads=2, d_audio_latent=4, d_video_feat=4, d_text=4, t_audio=8)


def _datasets(n=3, seed=0):
    clips = make_toy_clips(
        n,
        t_audio=SMALL.t_audio,
        d_audio=SMALL.d_audio_latent,
        d_video=SMALL.d_video_feat,
        d_text=SMALL.d_text,
        seed=seed,
    )
    return {tag: clips for tag in (TAG_T2A, TAG_TV2A, TAG_V2A)}


# ---------------------------------------------------------------------------
# presets and configs


def test_stage_presets():
    s1, s2, s3 = stage_preset(1, None), stage_preset(2, None), stage_preset(3, None)
    assert s1.row.mix == {TAG_T2A: 1}
    assert s1.row.p_keep_text == 1.0 and s1.row.p_keep_video == 0.0
    assert s2.row.mix == {TAG_T2A: 1, TAG_TV2A: 1}
    assert s2.row.p_keep_text == 1.0 and s2.row.p_keep_video == 0.5
    assert s3.row.mix == {TAG_T2A: 1, TAG_TV2A: 1, TAG_V2A: 2}
    assert s3.row.p_keep_text == 0.5 and s3.row.p_keep_video == 0.75
    assert (s1.steps, s2.steps, s3.steps) == (300, 100, 300)
    assert stage_preset(2, steps=7) == StageConfig(2, 7)
    for bad in (0, 4, True, 1.0, "1", None):
        with pytest.raises(ConfigError, match="stage_id"):
            stage_preset(bad, None)
    for bad in (0, 2.5, True):
        with pytest.raises(ConfigError, match="steps"):
            stage_preset(1, bad)


def test_toy_and_production_step_tables():
    assert {stage_id: row.toy_steps for stage_id, row in CURRICULUM.items()} == {1: 300, 2: 100, 3: 300}
    # the table is read-only, mixes included
    with pytest.raises(TypeError):
        CURRICULUM[4] = CURRICULUM[3]
    with pytest.raises(TypeError):
        CURRICULUM[3].mix[TAG_V2A] = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        CURRICULUM[3].p_keep_text = 1.0


def test_stage_config_validation():
    # a stage is its id and step count; everything else is its row, not a copy
    assert [f.name for f in dataclasses.fields(StageConfig)] == ["stage_id", "steps"]
    assert StageConfig(stage_id=3, steps=1).row is CURRICULUM[3]
    assert StageConfig(stage_id=np.int64(2), steps=np.int64(5)).row is CURRICULUM[2]
    for stage_id in (0, -1, 4, True, 1.0, np.float64(2.0)):
        with pytest.raises(ConfigError, match="stage_id"):
            StageConfig(stage_id=stage_id, steps=1)
    for steps in (0, -3, 2.5, True, None):
        with pytest.raises(ConfigError, match="steps"):
            StageConfig(stage_id=1, steps=steps)
    with pytest.raises(TypeError):
        StageConfig(stage_id=1, steps=1, mix={TAG_T2A: 1})


def test_optimizer_config_defaults_and_presets():
    cfg = OptimizerConfig()
    assert cfg.lr == 3e-3
    assert ADAM_BETAS == (0.9, 0.999)
    assert ADAM_EPS == 1e-8
    assert cfg.grad_clip_norm == 0.2
    assert cfg.batch_size == 8
    with pytest.raises(ConfigError):
        OptimizerConfig(lr=0.0)
    with pytest.raises(ConfigError):
        OptimizerConfig(grad_clip_norm=0.0)
    for bad in (0, 2.5, True, 8.0):
        with pytest.raises(ConfigError, match="batch_size"):
            OptimizerConfig(batch_size=bad)
    assert OptimizerConfig(batch_size=np.int64(3)).batch_size == 3
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            OptimizerConfig(lr=bad)
        with pytest.raises(ConfigError):
            OptimizerConfig(grad_clip_norm=bad)


def test_event_line_roundtrip_exact():
    event = TrainEvent(
        step=17,
        stage_id=2,
        loss=0.123456789012345678,
        grad_norm_preclip=1.9999999999999998,
        mix_draw=TAG_TV2A,
        text_kept=True,
        video_kept=False,
    )
    fields = format_event(event).split(" ")
    assert fields == ["17", "2", repr(event.loss), repr(event.grad_norm_preclip), TAG_TV2A, "1", "0"]
    # repr floats read back with float() bit-exactly
    assert (float(fields[2]), float(fields[3])) == (event.loss, event.grad_norm_preclip)


# ---------------------------------------------------------------------------
# batch drawing


def test_draw_batch_deterministic():
    stage = stage_preset(3, None)
    datasets = _datasets()
    a = draw_batch(stage, datasets, SeededRng(5), batch_size=16)
    b = draw_batch(stage, datasets, SeededRng(5), batch_size=16)
    for sa, sb in zip(a, b):
        assert sa.tag == sb.tag
        assert (sa.cond.text_emb is None) == (sb.cond.text_emb is None)
        assert (sa.cond.video_feat is None) == (sb.cond.video_feat is None)
        assert np.array_equal(sa.x1, sb.x1)


@settings(max_examples=60, deadline=None)
@given(
    stage_id=st.sampled_from(sorted(CURRICULUM)),
    seed=st.integers(min_value=0, max_value=2**63 - 1),
    batch_size=st.integers(min_value=1, max_value=48),
)
def test_draw_batch_forced_modality_rules(stage_id, seed, batch_size):
    batch = draw_batch(stage_preset(stage_id, None), _datasets(), SeededRng(seed), batch_size)
    assert len(batch) == batch_size
    for s in batch:
        assert s.tag in CURRICULUM[stage_id].mix
        if s.tag == TAG_V2A:
            assert s.cond.text_emb is None
        if s.tag == TAG_T2A:
            assert s.cond.video_feat is None
        if stage_id == 1:
            assert s.tag == TAG_T2A and s.cond.text_emb is not None


def test_stage1_draws_text_only():
    stage = stage_preset(1, None)
    datasets = _datasets()
    for s in draw_batch(stage, datasets, SeededRng(7), batch_size=100):
        assert s.tag == TAG_T2A
        assert s.cond.text_emb is not None
        assert s.cond.video_feat is None


def test_draw_batch_missing_dataset_raises():
    stage = stage_preset(3, None)
    datasets = _datasets()
    del datasets[TAG_V2A]
    with pytest.raises(ConfigError, match="V2A"):
        draw_batch(stage, datasets, SeededRng(0), 1)
    datasets = _datasets()
    datasets[TAG_TV2A] = []
    with pytest.raises(ConfigError, match="TV2A"):
        draw_batch(stage, datasets, SeededRng(0), 1)


class _TopDrawRng:
    """Stub rng whose every uniform draw is the largest float below 1."""

    def uniform(self):
        return 1.0 - 2.0**-53

    def integers(self, n):
        return 0

    def bernoulli(self, p):
        return True


def test_draw_batch_top_draw_lands_in_last_bucket(monkeypatch):
    # these weights normalize and sum to 0.9999999999999999, which a
    # right-sided search puts the top draw past
    row = dataclasses.replace(CURRICULUM[3], mix={TAG_T2A: 9, TAG_TV2A: 8, TAG_V2A: 2})
    monkeypatch.setattr(training, "CURRICULUM", {**CURRICULUM, 3: row})
    weights = np.array([9, 8, 2], dtype=np.float64)
    assert np.cumsum(weights / weights.sum())[-1] <= _TopDrawRng().uniform()
    (sample,) = draw_batch(stage_preset(3, steps=1), _datasets(), _TopDrawRng(), 1)
    assert sample.tag == TAG_V2A


def test_stage3_mix_prefers_v2a():
    stage = stage_preset(3, None)
    tags = [s.tag for s in draw_batch(stage, _datasets(), SeededRng(8), batch_size=2000)]
    # weights 1:1:2 over T2A, TV2A, V2A
    assert abs(tags.count(TAG_V2A) / len(tags) - 0.5) < 0.05
    assert abs(tags.count(TAG_T2A) / len(tags) - 0.25) < 0.05


# ---------------------------------------------------------------------------
# clipping and Adam


def _flat(named: dict) -> FlatGrads:
    """FlatGrads holding each named gradient, in order, in one vector."""
    spans, start = [], 0
    for name, g in named.items():
        spans.append((name, slice(start, start + np.size(g))))
        start += np.size(g)
    return FlatGrads(np.concatenate([np.ravel(g) for g in named.values()]), spans)


def test_clip_grad_norm_below_ceiling_untouched():
    grads = _flat({"a": np.array([0.1, 0.0]), "b": np.array([0.0, 0.1])})
    before = grads.flat.copy()
    out, norm = clip_grad_norm(grads, 0.2)
    assert out is grads
    assert np.array_equal(out.flat, before)
    assert abs(norm - np.sqrt(0.02)) <= 1e-15


def test_clip_grad_norm_scales_to_ceiling():
    grads = _flat({"a": np.array([3.0]), "b": np.array([4.0])})
    out, norm = clip_grad_norm(grads, 0.2)
    assert norm == 5.0
    clipped = np.sqrt(sum(float(np.sum(g * g)) for g in (out.flat[at] for _, at in out.spans)))
    assert abs(clipped - 0.2) <= 1e-12
    assert np.allclose(out.flat[out.spans[0][1]], 3.0 * 0.2 / 5.0)


def test_clip_grad_norm_keeps_the_direction_of_a_gradient_whose_squares_overflow():
    g = np.array([1e200, -3e199, 0.5])
    with np.errstate(over="ignore"):
        out, norm = clip_grad_norm(_flat({"a": g[:2], "b": g[2:]}), 1.0)
    true = 1e200 * math.sqrt(1.09)  # 0.5 adds nothing at this scale
    assert abs(norm - true) <= 1e-15 * true
    assert abs(np.linalg.norm(out.flat) - 1.0) <= 1e-15
    assert np.allclose(out.flat, g / true, rtol=1e-14, atol=0)


def test_clip_grad_norm_reports_inf_only_past_the_float_range():
    with np.errstate(over="ignore"):
        out, norm = clip_grad_norm(_flat({"a": np.array([1.5e308, 1.5e308])}), 0.2)
    assert norm == math.inf
    assert np.allclose(out.flat, 0.2 / math.sqrt(2.0), rtol=1e-15, atol=0)


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 6), min_size=1, max_size=4),
    exponent=st.integers(-3, 307),
    max_norm=st.sampled_from([0.2, 1.0, 1e10]),
    seed=st.integers(0, 2**32 - 1),
)
def test_clip_grad_norm_clips_a_finite_gradient_of_any_scale_along_its_direction(sizes, exponent, max_norm, seed):
    rng = np.random.default_rng(seed)
    named = {f"p{i}": rng.uniform(-1.0, 1.0, size=n) * 10.0**exponent for i, n in enumerate(sizes)}
    g = np.concatenate(list(named.values()))
    with np.errstate(over="ignore"):
        overflows = not np.isfinite(float(np.sum(g * g)))
        out, norm = clip_grad_norm(_flat(named), max_norm)
        want, want_norm = _loop_clip_grad_norm(named, max_norm)
    if not overflows:  # today's bits
        assert norm == want_norm
        assert np.array_equal(out.flat, np.concatenate(list(want.values())))
        return
    peak = np.abs(g).max()
    unit = g / peak
    assert abs(norm - peak * np.linalg.norm(unit)) <= 1e-12 * norm
    clipped = np.linalg.norm(out.flat)
    assert abs(clipped - max_norm) <= 1e-12 * max_norm
    assert abs(out.flat @ unit - clipped * np.linalg.norm(unit)) <= 1e-12 * clipped * np.linalg.norm(unit)


def test_adam_holds_its_moments_and_two_blocks():
    # at the default model size, one step's scratch must not grow with the
    # model: m and v take 16 bytes a value, the two blocks 16 bytes a block
    # value. Slack: the finiteness check's bool mask over one run (1 byte a
    # value; the model's parameters make one run here) and 64 KiB for the
    # Python objects a step makes. Two more vectors of the model's size
    # would add 16 bytes a value.
    n = TwoTowerModel(ModelConfig(), seed=0).flat.size
    rng = np.random.default_rng(0)
    params, grads = rng.normal(size=n), FlatGrads(rng.normal(size=n), [("all", slice(0, n))])
    tracemalloc.start()
    try:
        state = AdamState(n)
        for _ in range(3):
            adam_step(params, grads, OptimizerConfig(), state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert n > 2 * ADAM_BLOCK
    assert peak <= 16 * n + 16 * ADAM_BLOCK + n + 64 * 1024


def test_adam_first_step_closed_form():
    # with m = g and v = g^2 after bias correction, the first update is
    # exactly -lr * g / (|g| + eps)
    rng = SeededRng(9)
    params = rng.normal((3, 4)).reshape(-1)
    before = params.copy()
    g = rng.normal((3, 4)).reshape(-1)
    cfg = OptimizerConfig(lr=1e-2)
    adam_step(params, _flat({"w": g}), cfg, AdamState(params.size))
    expected = before - cfg.lr * g / (np.abs(g) + ADAM_EPS)
    assert np.abs(params - expected).max() <= 1e-12


def test_adam_second_step_reference():
    cfg = OptimizerConfig(lr=0.1)
    b1, b2 = ADAM_BETAS
    p = np.array([1.0])
    g1, g2 = np.array([0.5]), np.array([-0.25])
    state = AdamState(1)
    adam_step(p, _flat({"p": g1}), cfg, state)
    adam_step(p, _flat({"p": g2}), cfg, state)

    # hand-rolled reference
    m = (1 - b1) * g1
    v = (1 - b2) * g1 * g1
    x = 1.0 - cfg.lr * (m / (1 - b1)) / (np.sqrt(v / (1 - b2)) + ADAM_EPS)
    m = b1 * m + (1 - b1) * g2
    v = b2 * v + (1 - b2) * g2 * g2
    x = x - cfg.lr * (m / (1 - b1**2)) / (np.sqrt(v / (1 - b2**2)) + ADAM_EPS)
    assert np.abs(p - x).max() <= 1e-12


def test_adam_skips_absent_grads():
    # q's slot holds a value that would move it, but q is not in the spans
    params = np.array([1.0, 2.0])
    state = AdamState(2)
    adam_step(params, FlatGrads(np.array([1.0, 0.5]), [("p", slice(0, 1))]), OptimizerConfig(lr=0.1), state)
    assert params[1] == 2.0
    assert params[0] != 1.0
    assert state.m[1] == 0.0 and state.v[1] == 0.0


def test_adam_rejects_nonfinite_grads():
    p = np.array([1.0])
    with pytest.raises(DivergenceError):
        adam_step(p, _flat({"p": np.array([np.nan])}), OptimizerConfig(), AdamState(1))


def test_adam_nonfinite_grad_changes_nothing():
    # the finite gradient comes first, so a step that updated as it checked
    # would already have moved "a" and its moments when "b" raises
    params = np.array([1.0, 2.0, 3.0])
    state = AdamState(3)
    adam_step(params, _flat({"a": np.array([0.5, -0.5]), "b": np.array([0.25])}), OptimizerConfig(lr=0.1), state)
    before, m_before, v_before = params.copy(), state.m.copy(), state.v.copy()
    with pytest.raises(DivergenceError, match="for b at") as err:
        adam_step(params, _flat({"a": np.array([1.0, 1.0]), "b": np.array([np.nan])}), OptimizerConfig(lr=0.1), state)
    assert err.value.step == 2
    assert state.step == 1
    assert np.array_equal(params, before)
    assert np.array_equal(state.m, m_before)
    assert np.array_equal(state.v, v_before)


# ---------------------------------------------------------------------------
# stage loop


def test_run_stage_updates_and_logs(tmp_path):
    model = TwoTowerModel(SMALL, seed=0)
    before = model.state_arrays()
    stage = stage_preset(1, steps=3)
    opt = OptimizerConfig(lr=1e-3, batch_size=2)
    seen = []
    ckpt = str(tmp_path / "s1.ckpt")
    events = run_stage(model, stage, opt, _datasets(), SeededRng(1), seen.append, start_step=0, checkpoint_path=ckpt)
    assert [e.step for e in events] == [1, 2, 3]
    assert seen == events
    assert all(e.stage_id == 1 for e in events)
    assert all(np.isfinite(e.loss) for e in events)
    after = model.state_arrays()
    assert any(not np.array_equal(before[k], after[k]) for k in before)
    loaded = TwoTowerModel.load(ckpt)
    assert all(np.array_equal(loaded.state_arrays()[k], after[k]) for k in after)


def test_a_sample_before_a_stage_leaves_its_run_bit_equal(tmp_path):
    # sampling runs untaped; the stage after it must still train taped,
    # exactly as without the sample
    runs = []
    for sample_first in (False, True):
        model = TwoTowerModel(SMALL, seed=0)
        if sample_first:
            clip = _datasets()[TAG_TV2A][0]
            cond = ConditionBundle(text_emb=clip.text_emb, video_feat=clip.video_feat)
            sample_many(model, cond, SamplerConfig(nfe=3), [1, 2])
        opt = OptimizerConfig(lr=1e-3, batch_size=2)
        ckpt = str(tmp_path / f"s3-{sample_first}.ckpt")
        events = run_stage(model, stage_preset(3, steps=3), opt, _datasets(), SeededRng(4), None, 0, ckpt)
        runs.append(([(e.loss, e.grad_norm_preclip) for e in events], model.state_arrays()))
    (plain, plain_state), (after_sample, state) = runs
    assert after_sample == plain
    assert state.keys() == plain_state.keys()
    assert all(np.array_equal(state[k], plain_state[k]) for k in state)


def test_run_stage_start_step_offsets_numbering(tmp_path):
    model = TwoTowerModel(SMALL, seed=0)
    opt, ckpt = OptimizerConfig(lr=1e-3, batch_size=1), str(tmp_path / "s1.ckpt")
    events = run_stage(model, stage_preset(1, steps=2), opt, _datasets(), SeededRng(2), None, 10, ckpt)
    assert [e.step for e in events] == [11, 12]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf data floods the forward pass
def test_run_stage_divergence_restores_and_checkpoints(tmp_path):
    model = TwoTowerModel(SMALL, seed=0)
    initial = model.state_arrays()
    bad_clip = ToyClip(
        x1=np.full((SMALL.t_audio, SMALL.d_audio_latent), np.inf),
        text_emb=np.zeros((2, SMALL.d_text)),
        video_feat=np.zeros((SMALL.t_audio, SMALL.d_video_feat)),
    )
    datasets = {TAG_T2A: [bad_clip]}
    ckpt = str(tmp_path / "rescue.ckpt")
    with pytest.raises(DivergenceError) as err:
        run_stage(
            model,
            stage_preset(1, steps=5),
            OptimizerConfig(lr=1e-3, batch_size=1),
            datasets,
            SeededRng(3),
            sink=None,
            start_step=0,
            checkpoint_path=ckpt,
        )
    assert err.value.step == 1
    after = model.state_arrays()
    assert all(np.array_equal(initial[k], after[k]) for k in initial)
    rescued = TwoTowerModel.load(ckpt)
    assert all(np.array_equal(rescued.state_arrays()[k], initial[k]) for k in initial)


def test_run_stage_rejects_a_detached_parameter(tmp_path):
    # a rebound p.data no longer views the vector Adam updates
    model = TwoTowerModel(SMALL, seed=0)
    p = model.parameters()["out_proj.w"]
    p.data = p.data.copy()
    before = model.state_arrays()
    with pytest.raises(ContractError, match="out_proj.w"):
        run_stage(model, stage_preset(1, steps=1), OptimizerConfig(batch_size=1), _datasets(), SeededRng(2), None, 0,
                  str(tmp_path / "s1.ckpt"))
    after = model.state_arrays()
    assert all(np.array_equal(before[k], after[k]) for k in before)


def _loop_clip_grad_norm(grads: dict, max_norm: float) -> tuple:
    # the per-parameter clip the flat one replaced
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g * g))
    norm = float(np.sqrt(total))
    if norm <= max_norm:
        return grads, norm
    scale = max_norm / norm
    return {name: g * scale for name, g in grads.items()}, norm


def _loop_adam_step(params: dict, grads: dict, opt_cfg, state: dict) -> None:
    # the per-parameter Adam the flat one replaced; state holds step, m, v
    t = state["step"] + 1
    for name in params:
        g = grads.get(name)
        if g is not None and not np.all(np.isfinite(g)):
            raise DivergenceError(f"non-finite gradient for {name} at optimizer step {t}", step=t)
    state["step"] = t
    b1, b2 = ADAM_BETAS
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            continue
        m = state["m"].setdefault(name, np.zeros(p.shape))
        v = state["v"].setdefault(name, np.zeros(p.shape))
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        p.data -= opt_cfg.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def _loop_run_stage(model, stage, opt_cfg, datasets, rng, sink, start_step, checkpoint_path):
    # run_stage's step with the per-parameter optimizer; it saves no checkpoint
    events = []
    state = {"step": 0, "m": {}, "v": {}}
    params = model.parameters()
    for i in range(stage.steps):
        batch = draw_batch(stage, datasets, rng, opt_cfg.batch_size)
        model.zero_grad()
        loss = cfm_loss(model, [(s.x1, s.cond) for s in batch], rng)
        backward(loss)
        grads = {name: p.grad for name, p in params.items() if p.grad is not None}
        grads, pre_norm = _loop_clip_grad_norm(grads, opt_cfg.grad_clip_norm)
        _loop_adam_step(params, grads, opt_cfg, state)
        first = batch[0]
        events.append(
            TrainEvent(
                start_step + i + 1,
                stage.stage_id,
                loss.item(),
                pre_norm,
                first.tag,
                first.cond.text_emb is not None,
                first.cond.video_feat is not None,
            )
        )
    return events


def test_flat_optimizer_matches_the_per_parameter_loop(monkeypatch, tmp_path):
    # batch 1, so an event's video flag is its batch's: stage 2 has a step
    # without video after one with it, when the video tower and mixers
    # already have moments that the skip rule must leave alone
    stages = [stage_preset(1, steps=3), stage_preset(2, steps=6), stage_preset(3, steps=4)]
    opt = OptimizerConfig(lr=3e-3, batch_size=1, grad_clip_norm=0.3)
    flat_model = TwoTowerModel(SMALL, seed=5)
    flat_events = run_curriculum(flat_model, stages, opt, _datasets(), seed=3, out_dir=str(tmp_path))
    loop_model = TwoTowerModel(SMALL, seed=5)
    monkeypatch.setattr(training, "run_stage", _loop_run_stage)
    loop_events = run_curriculum(loop_model, stages, opt, _datasets(), seed=3, out_dir=str(tmp_path))

    video = [e.video_kept for e in flat_events if e.stage_id == 2]
    assert True in video and False in video[video.index(True) :]
    # steps on both sides of the clip ceiling
    assert {e.grad_norm_preclip > opt.grad_clip_norm for e in flat_events} == {True, False}
    assert flat_events == loop_events
    flat_state, loop_state = flat_model.state_arrays(), loop_model.state_arrays()
    assert all(np.array_equal(flat_state[k], loop_state[k]) for k in loop_state)


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


@settings(max_examples=80, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 9), min_size=1, max_size=6),
    block=st.sampled_from([None, 1, 2, 3, 5]),
    touched=st.lists(st.lists(st.booleans(), min_size=6, max_size=6), min_size=1, max_size=4),
    bad=st.none() | st.tuples(st.integers(0, 3), st.integers(0, 2**16), st.sampled_from([np.nan, np.inf, -np.inf])),
    seed=st.integers(0, 2**32 - 1),
)
@example(
    sizes=[ADAM_BLOCK + 3, 2, 2 * ADAM_BLOCK - 1, 5],
    block=None,
    touched=[[True, True, False, True, True, True], [True] * 6, [False, True, True, True, False, False]],
    bad=(1, ADAM_BLOCK + 4, np.nan),
    seed=0,
)
def test_blocked_adam_matches_the_per_parameter_loop(sizes, block, touched, bad, seed):
    # block None keeps ADAM_BLOCK; the others make runs of several blocks
    # that end mid-parameter. Parameters left out of a step leave gaps
    # between its spans, and the slots outside the spans hold NaN, which
    # adam_step must never read. A non-finite value inside a span must
    # raise the loop's DivergenceError and change nothing.
    rng = np.random.default_rng(seed)
    bounds = np.cumsum([0] + sizes).tolist()
    slices = {f"p{i}": slice(a, b) for i, (a, b) in enumerate(zip(bounds, bounds[1:]))}
    n = bounds[-1]
    params = rng.normal(size=n)
    loop_flat = params.copy()
    loop_params = {name: types.SimpleNamespace(data=loop_flat[at], shape=(at.stop - at.start,)) for name, at in slices.items()}
    loop_state = {"step": 0, "m": {}, "v": {}}
    opt = OptimizerConfig(lr=0.1)
    with mock.patch.object(training, "ADAM_BLOCK", block or ADAM_BLOCK):
        state = AdamState(n)
        for i, flags in enumerate(touched):
            g = np.full(n, np.nan)
            spans = [(name, at) for (name, at), flag in zip(slices.items(), flags) if flag]
            for _, at in spans:
                g[at] = rng.normal(size=at.stop - at.start) * rng.choice([1e-3, 1.0, 1e3])
            if bad is not None and bad[0] == i:
                g[bad[1] % n] = bad[2]
            before = [_bits(a) for a in (params, state.m, state.v)]
            try:
                _loop_adam_step(loop_params, {name: g[at].copy() for name, at in spans}, opt, loop_state)
            except DivergenceError as want:
                with pytest.raises(DivergenceError) as got:
                    adam_step(params, FlatGrads(g, spans), opt, state)
                assert str(got.value) == str(want) and got.value.step == want.step
                assert state.step == loop_state["step"] == i
                assert all(np.array_equal(b, _bits(a)) for b, a in zip(before, (params, state.m, state.v)))
                continue
            adam_step(params, FlatGrads(g, spans), opt, state)
            assert state.step == loop_state["step"]
            assert np.array_equal(_bits(params), _bits(loop_flat))
            for name, at in slices.items():
                for moment in ("m", "v"):
                    want = loop_state[moment].get(name, np.zeros(at.stop - at.start))
                    assert np.array_equal(_bits(getattr(state, moment)[at]), _bits(want)), (moment, name)


# ---------------------------------------------------------------------------
# curriculum


def test_curriculum_chains_steps_and_checkpoints(tmp_path):
    model = TwoTowerModel(SMALL, seed=0)
    stages = [stage_preset(1, steps=2), stage_preset(2, steps=2), stage_preset(3, steps=2)]
    opt = OptimizerConfig(lr=1e-3, batch_size=1)
    events = run_curriculum(model, stages, opt, _datasets(), seed=0, out_dir=str(tmp_path))
    assert [e.step for e in events] == [1, 2, 3, 4, 5, 6]
    assert [e.stage_id for e in events] == [1, 1, 2, 2, 3, 3]
    for sid in (1, 2, 3):
        assert (tmp_path / f"stage{sid}.ckpt").exists()
    final = TwoTowerModel.load(str(tmp_path / "stage3.ckpt"))
    assert all(np.array_equal(final.state_arrays()[k], model.state_arrays()[k]) for k in model.state_arrays())


def test_curriculum_requires_increasing_stage_ids(tmp_path):
    model = TwoTowerModel(SMALL, seed=0)
    stages = [stage_preset(2, steps=1), stage_preset(1, steps=1)]
    with pytest.raises(ConfigError, match="increasing"):
        run_curriculum(model, stages, OptimizerConfig(), _datasets(), seed=0, out_dir=str(tmp_path))
    with pytest.raises(ConfigError):
        run_curriculum(model, [], OptimizerConfig(), _datasets(), seed=0, out_dir=str(tmp_path))


def test_curriculum_into_a_missing_directory_fails_before_the_first_step(tmp_path):
    model = TwoTowerModel(SMALL, seed=0)
    before = {k: v.copy() for k, v in model.state_arrays().items()}
    stages = [stage_preset(1, steps=2), stage_preset(2, steps=2)]
    (tmp_path / "file").write_text("")
    for missing in (tmp_path / "absent", tmp_path / "file"):
        seen = []
        with pytest.raises(ContractError, match="not a directory"):
            run_curriculum(model, stages, OptimizerConfig(), _datasets(), seed=0, out_dir=str(missing), sink=seen.append)
        assert seen == []
    assert all(np.array_equal(before[k], v) for k, v in model.state_arrays().items())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]


def test_curriculum_resume_replays_later_stage_exactly(tmp_path):
    # each stage derives its rng from (seed, stage_id), so training stage 2
    # from the stage-1 checkpoint reproduces the full run's stage-2 events
    datasets = _datasets()
    opt = OptimizerConfig(lr=1e-3, batch_size=2)

    full_model = TwoTowerModel(SMALL, seed=0)
    full_events = run_curriculum(
        full_model,
        [stage_preset(1, steps=3), stage_preset(2, steps=3)],
        opt,
        datasets,
        seed=11,
        out_dir=str(tmp_path),
    )

    resumed = TwoTowerModel.load(str(tmp_path / "stage1.ckpt"))
    (tmp_path / "resumed").mkdir()
    resumed_events = run_curriculum(
        resumed, [stage_preset(2, steps=3)], opt, datasets, seed=11, out_dir=str(tmp_path / "resumed")
    )
    assert (tmp_path / "resumed" / "stage2.ckpt").read_bytes() == (tmp_path / "stage2.ckpt").read_bytes()
    stage2_full = [e for e in full_events if e.stage_id == 2]
    assert [e.loss for e in resumed_events] == [e.loss for e in stage2_full]
    assert [e.mix_draw for e in resumed_events] == [e.mix_draw for e in stage2_full]
    assert all(
        np.array_equal(resumed.state_arrays()[k], full_model.state_arrays()[k])
        for k in full_model.state_arrays()
    )


# ---------------------------------------------------------------------------
# whole-model gradient

# central-difference step, and the bound on the relative error of a
# directional derivative: 100 times 3.0e-8, the worst error at this step
# over 20 directions of one jittered tiny model (1.7e-6 at h = 1e-3, 6.2e-7
# at h = 1e-6). Over 200 drawn configs the worst was 5.0e-7, the round-off
# of a loss near 1 divided by 2h; a wiring fault errs by orders more
_H = 1e-5
_RTOL = 100 * 3.0e-8


@settings(max_examples=30, deadline=None)
@given(
    width_heads=st.sampled_from([(4, 1), (4, 2), (6, 3), (8, 2)]),
    n_layers=st.integers(1, 2),
    dims=st.tuples(st.integers(1, 3), st.integers(1, 5), st.integers(1, 4), st.integers(2, 6)),
    bundles=st.lists(st.tuples(st.sampled_from(["text", "video", "both", "neither"]), st.booleans()), min_size=1, max_size=3),
    picks=st.lists(st.integers(0, 2), min_size=1, max_size=4),
    seed=st.integers(0, 2**16),
)
@example(
    width_heads=(8, 2),
    n_layers=2,
    dims=(3, 5, 4, 6),
    bundles=[("video", False), ("neither", True), ("both", True)],
    picks=[0, 1, 2, 0],
    seed=0,
)
def test_the_whole_model_gradient_matches_central_differences(width_heads, n_layers, dims, bundles, picks, seed):
    # items may share a bundle object, as a sampler's do: a shared video
    # input then reaches its items through a gather with repeated rows
    (d_model, n_heads), (d_audio, d_video, d_text, t_audio) = width_heads, dims
    cfg = ModelConfig(d_model, n_layers, n_heads, d_audio, d_video, d_text, t_audio)
    model = TwoTowerModel(cfg, seed=seed)
    rng = SeededRng(seed + 1)
    model.flat += 0.05 * rng.normal(model.flat.shape)  # the zero-init gates and mixers open
    conds = [
        ConditionBundle(
            text_emb=rng.normal((2, d_text)) if kind in ("text", "both") else None,
            video_feat=rng.normal((3, d_video)) if kind in ("video", "both") else None,
            extra_tokens=rng.normal((1, d_text)) if extra else None,
        )
        for kind, extra in bundles
    ]
    batch = [(rng.normal((t_audio, d_audio)), conds[i % len(conds)]) for i in picks]

    def loss():
        return cfm_loss(model, batch, SeededRng(seed + 2))

    backward(loss())
    grads = gather_grads(model)
    dense = np.zeros(model.flat.size)  # a parameter the loss missed keeps 0
    for _, at in grads.spans:
        dense[at] = grads.flat[at]
    items = [cond for _, cond in batch]
    if any(c.video_feat is not None for c in items) and any(c.text_emb is None for c in items):
        assert [name for name, _ in grads.spans] == list(model.parameters())
    base = model.flat.copy()
    for _ in range(3):
        u = rng.normal(base.shape)
        u /= np.linalg.norm(u)
        model.flat[:] = base + _H * u
        up = loss().item()
        model.flat[:] = base - _H * u
        down = loss().item()
        model.flat[:] = base
        numeric, exact = (up - down) / (2.0 * _H), dense @ u
        assert abs(exact - numeric) <= _RTOL * max(abs(exact), abs(numeric)), (exact, numeric)
