"""Curriculum, batch drawing, gradient clipping, Adam, stage loops."""

import numpy as np
import pytest

from foleyflow.errors import ConfigError, ContractError, DivergenceError
from foleyflow.flow import SamplerConfig, sample_many
from foleyflow.model import ConditionBundle, ModelConfig, TwoTowerModel
from foleyflow.providers import ToyClip, make_toy_clips
from foleyflow.rng import SeededRng, derive_seed
from foleyflow.tensor import Tensor
from foleyflow.training import (
    TAG_T2A,
    TAG_TV2A,
    TAG_V2A,
    ADAM_BETAS,
    ADAM_EPS,
    TOY_STAGE_STEPS,
    AdamState,
    OptimizerConfig,
    StageConfig,
    TrainEvent,
    adam_step,
    clip_grad_norm,
    draw_batch,
    format_event,
    parse_event,
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
    s1, s2, s3 = stage_preset(1), stage_preset(2), stage_preset(3)
    assert s1.mix == {TAG_T2A: 1}
    assert s1.p_keep_text == 1.0 and s1.p_keep_video == 0.0
    assert s2.mix == {TAG_T2A: 1, TAG_TV2A: 1}
    assert s2.p_keep_text == 1.0 and s2.p_keep_video == 0.5
    assert s3.mix == {TAG_T2A: 1, TAG_TV2A: 1, TAG_V2A: 2}
    assert s3.p_keep_text == 0.5 and s3.p_keep_video == 0.75
    assert (s1.steps, s2.steps, s3.steps) == (300, 100, 300)
    assert stage_preset(2, steps=7).steps == 7
    with pytest.raises(ConfigError):
        stage_preset(4)


def test_toy_and_production_step_tables():
    assert TOY_STAGE_STEPS == {1: 300, 2: 100, 3: 300}


def test_stage_config_validation():
    with pytest.raises(ConfigError):
        StageConfig(stage_id=0, steps=1, mix={TAG_T2A: 1}, p_keep_text=1.0, p_keep_video=0.0)
    with pytest.raises(ConfigError):
        StageConfig(stage_id=1, steps=0, mix={TAG_T2A: 1}, p_keep_text=1.0, p_keep_video=0.0)
    with pytest.raises(ConfigError):
        StageConfig(stage_id=1, steps=1, mix={}, p_keep_text=1.0, p_keep_video=0.0)
    with pytest.raises(ConfigError):
        StageConfig(stage_id=1, steps=1, mix={"XYZ": 1}, p_keep_text=1.0, p_keep_video=0.0)
    with pytest.raises(ConfigError):
        StageConfig(stage_id=1, steps=1, mix={TAG_T2A: 0}, p_keep_text=1.0, p_keep_video=0.0)
    with pytest.raises(ConfigError):
        StageConfig(stage_id=1, steps=1, mix={TAG_T2A: 1}, p_keep_text=1.5, p_keep_video=0.0)


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
    line = format_event(event)
    back = parse_event(line)
    assert back == event  # repr floats survive the trip bit-exactly
    with pytest.raises(ContractError):
        parse_event("1 2 3")


# ---------------------------------------------------------------------------
# batch drawing


def test_draw_batch_deterministic():
    stage = stage_preset(3)
    datasets = _datasets()
    a = draw_batch(stage, datasets, SeededRng(5), batch_size=16)
    b = draw_batch(stage, datasets, SeededRng(5), batch_size=16)
    for sa, sb in zip(a, b):
        assert sa.tag == sb.tag
        assert (sa.cond.text_emb is None) == (sb.cond.text_emb is None)
        assert (sa.cond.video_feat is None) == (sb.cond.video_feat is None)
        assert np.array_equal(sa.x1, sb.x1)


def test_draw_batch_forced_modality_rules():
    stage = stage_preset(3)
    datasets = _datasets()
    rng = SeededRng(6)
    for s in draw_batch(stage, datasets, rng, batch_size=400):
        if s.tag == TAG_T2A:
            assert s.cond.video_feat is None
        if s.tag == TAG_V2A:
            assert s.cond.text_emb is None


def test_stage1_draws_text_only():
    stage = stage_preset(1)
    datasets = _datasets()
    for s in draw_batch(stage, datasets, SeededRng(7), batch_size=100):
        assert s.tag == TAG_T2A
        assert s.cond.text_emb is not None
        assert s.cond.video_feat is None


def test_draw_batch_missing_dataset_raises():
    stage = stage_preset(3)
    datasets = _datasets()
    del datasets[TAG_V2A]
    with pytest.raises(ConfigError, match="V2A"):
        draw_batch(stage, datasets, SeededRng(0))
    datasets = _datasets()
    datasets[TAG_TV2A] = []
    with pytest.raises(ConfigError, match="TV2A"):
        draw_batch(stage, datasets, SeededRng(0))


class _TopDrawRng:
    """Stub rng whose every uniform draw is the largest float below 1."""

    def uniform(self):
        return 1.0 - 2.0**-53

    def integers(self, n):
        return 0

    def bernoulli(self, p):
        return True


def test_draw_batch_top_draw_lands_in_last_bucket():
    # these weights normalize and sum to 0.9999999999999999, below the draw
    mix = {TAG_T2A: 9, TAG_TV2A: 8, TAG_V2A: 2}
    stage = StageConfig(stage_id=3, steps=1, mix=mix, p_keep_text=0.5, p_keep_video=0.5)
    (sample,) = draw_batch(stage, _datasets(), _TopDrawRng())
    assert sample.tag == TAG_V2A


def test_draw_batch_size_contract():
    with pytest.raises(ContractError):
        draw_batch(stage_preset(1), _datasets(), SeededRng(0), batch_size=0)


def test_stage3_mix_prefers_v2a():
    stage = stage_preset(3)
    tags = [s.tag for s in draw_batch(stage, _datasets(), SeededRng(8), batch_size=2000)]
    # weights 1:1:2 over T2A, TV2A, V2A
    assert abs(tags.count(TAG_V2A) / len(tags) - 0.5) < 0.05
    assert abs(tags.count(TAG_T2A) / len(tags) - 0.25) < 0.05


# ---------------------------------------------------------------------------
# clipping and Adam


def test_clip_grad_norm_below_ceiling_untouched():
    grads = {"a": np.array([0.1, 0.0]), "b": np.array([0.0, 0.1])}
    out, norm = clip_grad_norm(grads, 0.2)
    assert out is grads
    assert abs(norm - np.sqrt(0.02)) <= 1e-15


def test_clip_grad_norm_scales_to_ceiling():
    grads = {"a": np.array([3.0]), "b": np.array([4.0])}
    out, norm = clip_grad_norm(grads, 0.2)
    assert norm == 5.0
    clipped = np.sqrt(sum(float(np.sum(g * g)) for g in out.values()))
    assert abs(clipped - 0.2) <= 1e-12
    assert np.allclose(out["a"], 3.0 * 0.2 / 5.0)
    with pytest.raises(ContractError):
        clip_grad_norm(grads, 0.0)


def test_adam_first_step_closed_form():
    # with m = g and v = g^2 after bias correction, the first update is
    # exactly -lr * g / (|g| + eps)
    rng = SeededRng(9)
    params = {"w": Tensor(rng.normal((3, 4)), requires_grad=True)}
    before = params["w"].data.copy()
    g = rng.normal((3, 4))
    cfg = OptimizerConfig(lr=1e-2)
    adam_step(params, {"w": g}, cfg, AdamState())
    expected = before - cfg.lr * g / (np.abs(g) + ADAM_EPS)
    assert np.abs(params["w"].data - expected).max() <= 1e-12


def test_adam_second_step_reference():
    cfg = OptimizerConfig(lr=0.1)
    b1, b2 = ADAM_BETAS
    p = Tensor(np.array([1.0]), requires_grad=True)
    g1, g2 = np.array([0.5]), np.array([-0.25])
    state = AdamState()
    adam_step({"p": p}, {"p": g1}, cfg, state)
    adam_step({"p": p}, {"p": g2}, cfg, state)

    # hand-rolled reference
    m = (1 - b1) * g1
    v = (1 - b2) * g1 * g1
    x = 1.0 - cfg.lr * (m / (1 - b1)) / (np.sqrt(v / (1 - b2)) + ADAM_EPS)
    m = b1 * m + (1 - b1) * g2
    v = b2 * v + (1 - b2) * g2 * g2
    x = x - cfg.lr * (m / (1 - b1**2)) / (np.sqrt(v / (1 - b2**2)) + ADAM_EPS)
    assert np.abs(p.data - x).max() <= 1e-12


def test_adam_skips_absent_grads():
    p = Tensor(np.array([1.0]), requires_grad=True)
    q = Tensor(np.array([2.0]), requires_grad=True)
    adam_step({"p": p, "q": q}, {"p": np.array([1.0])}, OptimizerConfig(lr=0.1), AdamState())
    assert q.data[0] == 2.0
    assert p.data[0] != 1.0


def test_adam_rejects_nonfinite_grads():
    p = Tensor(np.array([1.0]), requires_grad=True)
    with pytest.raises(DivergenceError):
        adam_step({"p": p}, {"p": np.array([np.nan])}, OptimizerConfig(), AdamState())


def test_adam_nonfinite_grad_changes_nothing():
    # the finite gradient comes first, so a step that updated as it checked
    # would already have moved "a" and its moments when "b" raises
    params = {"a": Tensor(np.array([1.0, 2.0]), requires_grad=True), "b": Tensor(np.array([3.0]), requires_grad=True)}
    state = AdamState()
    adam_step(params, {"a": np.array([0.5, -0.5]), "b": np.array([0.25])}, OptimizerConfig(lr=0.1), state)
    before = {name: p.data.copy() for name, p in params.items()}
    m_before = {name: m.copy() for name, m in state.m.items()}
    v_before = {name: v.copy() for name, v in state.v.items()}
    with pytest.raises(DivergenceError) as err:
        adam_step(params, {"a": np.array([1.0, 1.0]), "b": np.array([np.nan])}, OptimizerConfig(lr=0.1), state)
    assert err.value.step == 2
    assert state.step == 1
    for name, p in params.items():
        assert np.array_equal(p.data, before[name])
        assert np.array_equal(state.m[name], m_before[name])
        assert np.array_equal(state.v[name], v_before[name])


# ---------------------------------------------------------------------------
# stage loop


def test_run_stage_updates_and_logs(tmp_path):
    model = TwoTowerModel(SMALL, seed=0)
    before = model.state_arrays()
    stage = stage_preset(1, steps=3)
    opt = OptimizerConfig(lr=1e-3, batch_size=2)
    seen = []
    ckpt = str(tmp_path / "s1.ckpt")
    events = run_stage(model, stage, opt, _datasets(), SeededRng(1), sink=seen.append, checkpoint_path=ckpt)
    assert [e.step for e in events] == [1, 2, 3]
    assert seen == events
    assert all(e.stage_id == 1 for e in events)
    assert all(np.isfinite(e.loss) for e in events)
    after = model.state_arrays()
    assert any(not np.array_equal(before[k], after[k]) for k in before)
    loaded = TwoTowerModel.load(ckpt)
    assert all(np.array_equal(loaded.state_arrays()[k], after[k]) for k in after)


def test_a_sample_before_a_stage_leaves_its_run_bit_equal():
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
        events = run_stage(model, stage_preset(3, steps=3), opt, _datasets(), SeededRng(4))
        runs.append(([(e.loss, e.grad_norm_preclip) for e in events], model.state_arrays()))
    (plain, plain_state), (after_sample, state) = runs
    assert after_sample == plain
    assert state.keys() == plain_state.keys()
    assert all(np.array_equal(state[k], plain_state[k]) for k in state)


def test_run_stage_start_step_offsets_numbering():
    model = TwoTowerModel(SMALL, seed=0)
    events = run_stage(
        model, stage_preset(1, steps=2), OptimizerConfig(lr=1e-3, batch_size=1), _datasets(), SeededRng(2), start_step=10
    )
    assert [e.step for e in events] == [11, 12]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf data floods the forward pass
def test_run_stage_divergence_restores_and_checkpoints(tmp_path):
    model = TwoTowerModel(SMALL, seed=0)
    initial = model.state_arrays()
    bad_clip = ToyClip(
        clip_id="bad",
        x1=np.full((SMALL.t_audio, SMALL.d_audio_latent), np.inf),
        text_emb=np.zeros((2, SMALL.d_text)),
        video_feat=np.zeros((SMALL.t_audio, SMALL.d_video_feat)),
        event_frames=(2,),
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
            checkpoint_path=ckpt,
        )
    assert err.value.step == 1
    after = model.state_arrays()
    assert all(np.array_equal(initial[k], after[k]) for k in initial)
    rescued = TwoTowerModel.load(ckpt)
    assert all(np.array_equal(rescued.state_arrays()[k], initial[k]) for k in initial)


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


def test_curriculum_requires_increasing_stage_ids():
    model = TwoTowerModel(SMALL, seed=0)
    stages = [stage_preset(2, steps=1), stage_preset(1, steps=1)]
    with pytest.raises(ConfigError, match="increasing"):
        run_curriculum(model, stages, OptimizerConfig(), _datasets(), seed=0)
    with pytest.raises(ConfigError):
        run_curriculum(model, [], OptimizerConfig(), _datasets(), seed=0)


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
    resumed_events = run_curriculum(
        resumed, [stage_preset(2, steps=3)], opt, datasets, seed=11, out_dir=None
    )
    stage2_full = [e for e in full_events if e.stage_id == 2]
    assert [e.loss for e in resumed_events] == [e.loss for e in stage2_full]
    assert [e.mix_draw for e in resumed_events] == [e.mix_draw for e in stage2_full]
    assert all(
        np.array_equal(resumed.state_arrays()[k], full_model.state_arrays()[k])
        for k in full_model.state_arrays()
    )
