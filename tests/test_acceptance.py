"""Ten-point acceptance gate for the whole stack.

Each criterion is one test that prints a single [PASS]/[FAIL] verdict
line (visible under -s):

    python3 -m pytest tests/test_acceptance.py -s
"""

import functools
import time

import numpy as np
import pytest
from gradcheck import check_gradients

from foleyflow import container, datapipe, flow, metrics, providers, training
from foleyflow.cli import main as cli_main
from foleyflow.model import (
    ConditionBundle,
    ModelConfig,
    TwoTowerModel,
    cross_modal_mix,
)
from foleyflow.refiner import refine
from foleyflow.rng import SeededRng, derive_seed
from foleyflow.tensor import (
    Tensor,
    add,
    attention,
    concat,
    gated_residual,
    gather_rows,
    gelu,
    matmul,
    modulated_norm,
    mul,
    reduce_mean,
    scatter_rows,
    softmax,
    sub,
    transpose,
)

SMALL = ModelConfig(d_model=8, n_layers=1, n_heads=2, d_audio_latent=4, d_video_feat=6, d_text=5, t_audio=7)


def criterion(n, label):
    """Print exactly one verdict line per criterion, pass or fail."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"\n[FAIL] criterion {n:>2}: {label}")
                raise
            print(f"\n[PASS] criterion {n:>2}: {label}")
            return result

        return wrapper

    return deco


def _toy_clips(n, cfg, seed=0):
    return providers.make_toy_clips(
        n,
        t_audio=cfg.t_audio,
        d_audio=cfg.d_audio_latent,
        d_video=cfg.d_video_feat,
        d_text=cfg.d_text,
        seed=derive_seed(seed, "data"),
    )


@pytest.fixture(scope="module")
def toy_run(tmp_path_factory):
    """One full toy-preset curriculum, shared by the training criteria."""
    start = time.monotonic()
    cfg = ModelConfig()
    model = TwoTowerModel(cfg, seed=0)
    clips = _toy_clips(16, cfg)
    datasets = {t: clips for t in (training.TAG_T2A, training.TAG_TV2A, training.TAG_V2A)}
    stages = [training.stage_preset(s, None) for s in (1, 2, 3)]
    events = []
    out_dir = str(tmp_path_factory.mktemp("toy_run"))
    training.run_curriculum(model, stages, training.OptimizerConfig(), datasets, seed=0, out_dir=out_dir,
                            sink=events.append)
    return model, clips, events, time.monotonic() - start


# ---------------------------------------------------------------------------
# 1. gradient suite


@criterion(1, "gradient suite (ops + 1-layer two-tower pass), < 60 s")
def test_criterion_1_gradients():
    start = time.monotonic()
    rng = SeededRng(42)

    def leaf(shape):
        return Tensor(rng.normal(shape), requires_grad=True)

    def weighted(out_builder, tensors):
        # reduce through a fixed random weighting so every entry matters
        probe = {}

        def build():
            out = out_builder()
            key = out.shape
            if key not in probe:
                probe[key] = Tensor(SeededRng(7).normal(out.shape))
            return reduce_mean(mul(out, probe[key]))

        return check_gradients(build, tensors)

    checked = 0
    a, b = leaf((3, 4)), leaf((4, 2))
    checked += weighted(lambda: matmul(a, b), {"a": a, "b": b})
    a3 = leaf((2, 3, 4))
    checked += weighted(lambda: matmul(a3, b), {"a3": a3, "b": b})
    bias = leaf((2,))
    checked += weighted(lambda: matmul(a, b, bias), {"a": a, "b": b, "bias": bias})
    checked += weighted(lambda: matmul(a3, b, bias), {"a3": a3, "b": b, "bias": bias})
    x, y = leaf((3, 4)), leaf((4,))
    checked += weighted(lambda: add(x, y), {"x": x, "y": y})
    checked += weighted(lambda: sub(x, y), {"x": x, "y": y})
    checked += weighted(lambda: mul(x, y), {"x": x, "y": y})
    p, q = leaf((3, 2)), leaf((3, 3))
    checked += weighted(lambda: concat(p, q), {"p": p, "q": q})
    # attention: B > 1, Tq != Tk, a mask hiding at least one key per item
    aq, ak, av = leaf((2, 3, 4)), leaf((2, 4, 4)), leaf((2, 4, 4))
    keep = np.array([[True, True, False, True], [False, True, True, False]])
    checked += weighted(lambda: attention(aq, ak, av, 2, keep), {"aq": aq, "ak": ak, "av": av})
    rows = leaf((3, 2, 2))
    checked += weighted(lambda: gather_rows(rows, [2, 0]), {"rows": rows})
    base = leaf((4, 2, 2))
    checked += weighted(lambda: scatter_rows(rows, [3, 0, 1], base), {"rows": rows, "base": base})
    w = leaf((3, 6))
    checked += weighted(lambda: transpose(w), {"w": w})
    checked += weighted(lambda: softmax(w), {"w": w})
    checked += weighted(lambda: gelu(w), {"w": w})
    # adaLN-zero sublayer halves, each sublayer's chunks of a (B, 1, 9d) mod
    s_x, s_y, mod = leaf((2, 3, 4)), leaf((2, 3, 4)), leaf((2, 1, 36))
    for i in range(3):
        checked += weighted(lambda: modulated_norm(s_x, mod, i), {"s_x": s_x, "mod": mod})
        checked += weighted(lambda: gated_residual(s_x, mod, i, s_y), {"s_x": s_x, "mod": mod, "s_y": s_y})
    z = leaf((3, 3))
    checked += check_gradients(lambda: reduce_mean(mul(z, z)), {"z": z})

    # full 1-layer two-tower pass, jittered off the zero-init plateau
    model = TwoTowerModel(SMALL, seed=0)
    jit = SeededRng(5)
    for tensor in model.parameters().values():
        tensor.data = tensor.data + jit.normal(tensor.shape) * 0.05
    cond = ConditionBundle(
        text_emb=jit.normal((2, SMALL.d_text)),
        video_feat=jit.normal((SMALL.t_audio, SMALL.d_video_feat)),
    )
    x_t = jit.normal((1, SMALL.t_audio, SMALL.d_audio_latent))
    target = Tensor(jit.normal((1, SMALL.t_audio, SMALL.d_audio_latent)))

    def model_loss():
        model.zero_grad()
        conditioning = model.condition([cond])
        diff = sub(model(Tensor(x_t), model.time_path([0.37]), conditioning), target)
        return reduce_mean(mul(diff, diff))

    checked += check_gradients(model_loss, model.parameters(), entries_per_tensor=2)

    elapsed = time.monotonic() - start
    assert checked > 300
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f} s"


# ---------------------------------------------------------------------------
# 2. mixer exactness


@criterion(2, "mixer equations to 1e-12; zero-init ignores video to 1e-12")
def test_criterion_2_mixer():
    rng = SeededRng(1)
    d = 6

    def mixer(w):  # the (weight, bias) pair of weight w and zero bias
        return Tensor(w), Tensor(np.zeros(d))

    mix_a = mixer(rng.normal((2 * d, d)) * 0.02)
    mix_v = mixer(rng.normal((2 * d, d)) * 0.02)
    y_a = Tensor(rng.normal((5, d)))
    y_v = Tensor(rng.normal((5, d)))
    out_a, out_v = cross_modal_mix(y_a, y_v, mix_a, mix_v)
    joint = np.concatenate([y_a.data, y_v.data], axis=1)
    want_a = y_a.data + joint @ mix_a[0].data + mix_a[1].data
    want_v = y_v.data + joint @ mix_v[0].data + mix_v[1].data
    assert np.max(np.abs(out_a.data - want_a)) <= 1e-12
    assert np.max(np.abs(out_v.data - want_v)) <= 1e-12

    # zero-init mixers are the identity on both streams
    zero_a = mixer(np.zeros((2 * d, d)))
    zero_v = mixer(np.zeros((2 * d, d)))
    id_a, id_v = cross_modal_mix(y_a, y_v, zero_a, zero_v)
    assert np.max(np.abs(id_a.data - y_a.data)) <= 1e-12
    assert np.max(np.abs(id_v.data - y_v.data)) <= 1e-12

    # end to end: a fresh model's output does not depend on the video input
    cfg = ModelConfig(d_model=16, n_layers=2, n_heads=4, d_audio_latent=6, d_video_feat=8, d_text=5, t_audio=9)
    model = TwoTowerModel(cfg, seed=0)
    x_t = rng.normal((1, cfg.t_audio, cfg.d_audio_latent))
    outs = []
    for video in (rng.normal((cfg.t_audio, cfg.d_video_feat)), rng.normal((4, cfg.d_video_feat)) * 10.0, None):
        cond = ConditionBundle(video_feat=video)
        outs.append(model(Tensor(x_t.copy()), model.time_path([0.4]), model.condition([cond])).data)
    assert np.max(np.abs(outs[0] - outs[1])) <= 1e-12
    assert np.max(np.abs(outs[0] - outs[2])) <= 1e-12


# ---------------------------------------------------------------------------
# 3. curriculum statistics


@criterion(3, "40k stage-3 draws: 1:1:2 mix and keep rates within 3 sigma, < 10 s")
def test_criterion_3_curriculum_statistics():
    start = time.monotonic()
    n = 40_000
    stage = training.stage_preset(3, None)
    cfg = ModelConfig(d_model=8, n_layers=1, n_heads=2, d_audio_latent=2, d_video_feat=2, d_text=2, t_audio=8)
    clips = _toy_clips(2, cfg, seed=3)
    datasets = {t: clips for t in (training.TAG_T2A, training.TAG_TV2A, training.TAG_V2A)}
    batch = training.draw_batch(stage, datasets, SeededRng(11), batch_size=n)

    def sigma(p, count):
        return 3.0 * np.sqrt(p * (1.0 - p) / count)

    tags = [s.tag for s in batch]
    for tag, frac in ((training.TAG_T2A, 0.25), (training.TAG_TV2A, 0.25), (training.TAG_V2A, 0.5)):
        observed = tags.count(tag) / n
        assert abs(observed - frac) <= sigma(frac, n), f"{tag}: {observed} vs {frac}"

    # forced rules are absolute, free flags are Bernoulli at the stage rates
    assert not any(s.cond.text_emb is not None for s in batch if s.tag == training.TAG_V2A)
    assert not any(s.cond.video_feat is not None for s in batch if s.tag == training.TAG_T2A)
    text_free = [s for s in batch if s.tag != training.TAG_V2A]
    video_free = [s for s in batch if s.tag != training.TAG_T2A]
    text_rate = sum(s.cond.text_emb is not None for s in text_free) / len(text_free)
    video_rate = sum(s.cond.video_feat is not None for s in video_free) / len(video_free)
    assert abs(text_rate - stage.row.p_keep_text) <= sigma(stage.row.p_keep_text, len(text_free))
    assert abs(video_rate - stage.row.p_keep_video) <= sigma(stage.row.p_keep_video, len(video_free))

    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"draw statistics took {elapsed:.1f} s"


# ---------------------------------------------------------------------------
# 4. optimizer contract


@criterion(4, "post-clip norm <= 0.2 across 300 toy steps; Adam closed form to 1e-12")
def test_criterion_4_optimizer_contract():
    opt_cfg = training.OptimizerConfig()

    # closed-form first step: v_hat = g^2, so the update is lr * g / (|g| + eps)
    w = np.array([0.7])
    g = np.array([0.3])
    training.adam_step(w, training.FlatGrads(g, [("w", slice(0, 1))]), opt_cfg, training.AdamState(1))
    expected = 0.7 - opt_cfg.lr * (0.3 / (abs(0.3) + training.ADAM_EPS))
    assert abs(float(w[0]) - expected) <= 1e-12

    # 300-step toy run, measuring the clipped gradients directly
    cfg = ModelConfig()
    model = TwoTowerModel(cfg, seed=0)
    clips = _toy_clips(16, cfg)
    datasets = {t: clips for t in (training.TAG_T2A, training.TAG_TV2A, training.TAG_V2A)}
    stage = training.stage_preset(1, 300)
    rng = SeededRng(derive_seed(0, "stage", 1))
    state = training.AdamState(model.flat.size)
    from foleyflow.flow import cfm_loss
    from foleyflow.tensor import backward

    worst = 0.0
    for _ in range(stage.steps):
        batch = training.draw_batch(stage, datasets, rng, opt_cfg.batch_size)
        model.zero_grad()
        loss = cfm_loss(model, [(s.x1, s.cond) for s in batch], rng)
        backward(loss)
        grads, _ = training.clip_grad_norm(training.gather_grads(model), opt_cfg.grad_clip_norm)
        post = float(np.sqrt(sum(float(np.sum(g * g)) for g in (grads.flat[at] for _, at in grads.spans))))
        worst = max(worst, post)
        assert post <= opt_cfg.grad_clip_norm + 1e-9, f"post-clip norm {post}"
        training.adam_step(model.flat, grads, opt_cfg, state)
    assert worst > 0.0


# ---------------------------------------------------------------------------
# 5. toy overfit


@criterion(5, "toy overfit: loss halves and conditioning beats unconditional alignment, < 5 min")
def test_criterion_5_toy_overfit(toy_run):
    model, clips, events, train_elapsed = toy_run
    start = time.monotonic()

    losses = [e.loss for e in events]
    first50 = float(np.mean(losses[:50]))
    last50 = float(np.mean(losses[-50:]))
    assert last50 < 0.5 * first50, f"loss went {first50:.4f} -> {last50:.4f}"

    frame_rate = 16.0
    cond_scores, uncond_scores = [], []
    for i in range(8):
        clip = clips[i]
        scfg = flow.SamplerConfig(nfe=32, sway_coef=-1.0, guidance_scale=2.0, seed=1000 + i)
        cond = ConditionBundle(video_feat=clip.video_feat)
        duration = model.config.t_audio / frame_rate
        video_rate = clip.video_feat.shape[0] / duration
        video_peaks = metrics.detect_peaks(metrics.energy_envelope(clip.video_feat), video_rate)
        for bundle, bucket in ((cond, cond_scores), (ConditionBundle(), uncond_scores)):
            latent = flow.sample(model, bundle, scfg)
            peaks = metrics.detect_peaks(metrics.energy_envelope(latent), frame_rate)
            bucket.append(metrics.av_align(peaks, video_peaks))

    mean_cond = float(np.mean(cond_scores))
    mean_uncond = float(np.mean(uncond_scores))
    assert mean_cond > mean_uncond, f"av_align conditional {mean_cond:.4f} vs unconditional {mean_uncond:.4f}"

    total = train_elapsed + (time.monotonic() - start)
    assert total < 300.0, f"toy overfit took {total:.1f} s"


# ---------------------------------------------------------------------------
# 6. sampler convergence


@criterion(6, "Euler error shrinks with NFE on v = -x; sway(0) is the uniform grid")
def test_criterion_6_sampler_convergence():
    cfg = ModelConfig(d_model=8, n_layers=1, n_heads=2, d_audio_latent=3, d_video_feat=4, d_text=4, t_audio=6)

    class Decay:
        config = cfg

        def condition(self, conds):
            return list(conds)

        def time_path(self, times):
            return times

        def __call__(self, x_t, times, conds):
            x = x_t.data if isinstance(x_t, Tensor) else np.asarray(x_t)
            return Tensor(-x)  # (B, T, a): every item decays

    seed = 3
    x0 = SeededRng(seed).normal((cfg.t_audio, cfg.d_audio_latent))
    exact = x0 * np.exp(-1.0)
    errors = {}
    for nfe in (16, 64, 256):
        out = flow.sample(Decay(), ConditionBundle(), flow.SamplerConfig(nfe=nfe, seed=seed))
        errors[nfe] = float(np.max(np.abs(out - exact)))
    assert errors[256] < errors[64] < errors[16], f"errors {errors}"

    for nfe in (4, 16, 64):
        grid = flow.sway_schedule(nfe, 0.0)
        assert np.max(np.abs(grid - np.linspace(0.0, 1.0, nfe + 1))) <= 1e-12


# ---------------------------------------------------------------------------
# 7. metric fixtures


@criterion(7, "metric fixtures: FAD self 0, Gaussian oracle 5%, IS = c, AV = 0.25, self-eval")
def test_criterion_7_metric_fixtures(tmp_path):
    rng = SeededRng(21)

    same = metrics.EmbeddingSet(rng.normal((64, 6)))
    assert metrics.frechet_distance(same, metrics.EmbeddingSet(same.vectors.copy())) <= 1e-8

    # N(0, I) vs N(mu, I) at n = 10^4: estimate within 5% of |mu|^2
    mu = np.array([1.0, -1.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0])
    a = rng.normal((10_000, 8))
    b = rng.normal((10_000, 8)) + mu
    fd = metrics.frechet_distance(metrics.EmbeddingSet(a), metrics.EmbeddingSet(b))
    target = float(mu @ mu)
    assert abs(fd - target) <= 0.05 * target, f"fd {fd} vs |mu|^2 {target}"

    for c in (2, 4, 8):
        one_hots = metrics.ClassPosterior(np.eye(c))
        assert abs(metrics.inception_score(one_hots) - c) <= 1e-6

    # 1 match out of audio {1.0, 5.0} and video {1.02, 2.0, 3.0}: 1/(2+3-1)
    audio_train = metrics.PeakTrain((1.0, 5.0), duration=6.0)
    video_train = metrics.PeakTrain((1.02, 2.0, 3.0), duration=6.0)
    assert metrics.av_align(audio_train, video_train) == 0.25

    gen_dir = tmp_path / "latents"
    gen_dir.mkdir()
    for i in range(2):
        latent = SeededRng(100 + i).normal((16, 8)) * 2.0
        container.write_latents(str(gen_dir / f"clip{i}{metrics.LATENT_EXTENSION}"), {metrics.LATENT_RECORD: latent})
    report = metrics.evaluate_set(str(gen_dir), str(gen_dir), metrics.FRAME_RATE)
    assert report.values["FAD"] == 0.0
    assert report.values["AV"] == 1.0


# ---------------------------------------------------------------------------
# 8. pipeline conservation


@criterion(8, "pipeline: conservation, oracle drop reasons, idempotence on 50 records")
def test_criterion_8_pipeline(tmp_path):
    rng = SeededRng(8)
    records = []
    for i in range(50):
        duration = 1.0 + float(rng.uniform()) * 2.0
        n_events = 1 + int(rng.integers(2))
        events = []
        cursor = 0.0
        for j in range(n_events):
            width = duration / (n_events * 2)
            start = cursor + float(rng.uniform()) * width
            events.append((f"e{j}", start, min(duration, start + width)))
            cursor = start + width
        records.append(
            datapipe.ClipRecord(
                clip_id=f"clip{i:02d}",
                duration=duration,
                events=tuple(events),
                av_align_score=None if rng.uniform() < 0.15 else float(rng.uniform()),
                semantic_score=None if rng.uniform() < 0.15 else float(rng.uniform()),
                speech_flag=bool(rng.bernoulli(0.2)),
                bgm_flag=bool(rng.bernoulli(0.2)),
            )
        )

    policy = datapipe.FilterPolicy()

    def oracle(r):
        if not r.scored:
            return "unscored"
        if r.av_align_score < policy.min_av_align:
            return "alignment"
        if r.semantic_score < policy.min_semantic:
            return "semantic"
        if policy.drop_speech and r.speech_flag:
            return "speech"
        if policy.drop_bgm and r.bgm_flag:
            return "bgm"
        return None

    src = str(tmp_path / "in.manifest")
    out1 = str(tmp_path / "out1.manifest")
    out2 = str(tmp_path / "out2.manifest")
    datapipe.write_manifest(src, map(datapipe.format_record, records))
    result = datapipe.run_pipeline(src, out1, policy)

    assert not result.parse_problems
    assert len(result.kept) + len(result.dropped) == 50

    want_dropped = {r.clip_id: oracle(r) for r in records if oracle(r) is not None}
    got_dropped = dict(result.dropped)  # clip id -> reason
    assert got_dropped == want_dropped
    assert set(result.kept) == {r.clip_id for r in records if oracle(r) is None}

    datapipe.run_pipeline(out1, out2, policy)
    assert open(out1).read() == open(out2).read()


# ---------------------------------------------------------------------------
# 9. refiner guarantee


@criterion(9, "refiner reward never drops below the coarse input on 100 runs")
def test_criterion_9_refiner_guarantee():
    model = TwoTowerModel(SMALL, seed=0)
    violations = 0
    rng = SeededRng(9)
    for trial in range(100):
        with_text = bool(rng.bernoulli(0.5))
        with_video = bool(rng.bernoulli(0.5))
        cond = ConditionBundle(
            text_emb=rng.normal((2, SMALL.d_text)) if with_text else None,
            video_feat=rng.normal((6, SMALL.d_video_feat)) if with_video else None,
        )
        coarse = rng.normal((SMALL.t_audio, SMALL.d_audio_latent))
        result = refine(model, cond, coarse, k=1, sampler_cfg=flow.SamplerConfig(nfe=4, seed=trial),
                        frame_rate=metrics.FRAME_RATE)
        if result.report.aggregate < result.coarse_report.aggregate:
            violations += 1
    assert violations == 0


# ---------------------------------------------------------------------------
# 10. CLI determinism


@criterion(10, "every CLI command is bit-identical across two seeded runs")
def test_criterion_10_cli_determinism(tmp_path):
    def run_twice(build_argv, outputs):
        blobs = []
        for tag in ("a", "b"):
            base = tmp_path / tag
            base.mkdir(exist_ok=True)
            assert cli_main(build_argv(base)) == 0
            blobs.append([(name, (base / name).read_bytes()) for name in outputs(base)])
        assert blobs[0] == blobs[1]

    run_twice(
        lambda base: [
            "train",
            "--stages", "1",
            "--steps", "2",
            "--batch-size", "2",
            "--data-clips", "4",
            "--seed", "5",
            "--out", str(base / "run"),
        ],
        lambda base: ["run/stage1.ckpt", "run/events.log"],
    )

    ckpt = str(tmp_path / "a" / "run" / "stage1.ckpt")
    run_twice(
        lambda base: [
            "sample",
            "--checkpoint", ckpt,
            "--out", str(base / "gen.ysnd"),
            "--text", "rain",
            "--nfe", "4",
            "--seed", "7",
        ],
        lambda base: ["gen.ysnd", "gen.ysnd.env.csv"],
    )

    eval_src = tmp_path / "evalset"
    eval_src.mkdir()
    for i in range(2):
        argv = [
            "sample",
            "--checkpoint", ckpt,
            "--out", str(eval_src / f"clip{i}.ysnd"),
            "--nfe", "4",
            "--seed", str(20 + i),
        ]
        assert cli_main(argv) == 0
    run_twice(
        lambda base: [
            "eval",
            str(eval_src),
            str(eval_src),
            "--json",
            "--out", str(base / "report.json"),
            "--plot", str(base / "plots"),
        ],
        lambda base: ["report.json", "plots/clip0.envelopes.csv", "plots/clip1.envelopes.csv"],
    )

    manifest = tmp_path / "in.manifest"
    records = [
        datapipe.ClipRecord("good", 2.0, (("hit", 0.2, 0.5), ("thud", 1.0, 1.4)), 0.8, 0.9, False, False),
        datapipe.ClipRecord("talky", 2.0, (("hit", 0.2, 0.5),), 0.8, 0.9, True, False),
    ]
    datapipe.write_manifest(str(manifest), map(datapipe.format_record, records))
    run_twice(
        lambda base: [
            "pipeline",
            str(manifest),
            str(base / "out.manifest"),
            "--report", str(base / "drops.csv"),
        ],
        lambda base: ["out.manifest", "drops.csv"],
    )

    coarse = str(tmp_path / "a" / "gen.ysnd")
    run_twice(
        lambda base: [
            "refine",
            "--checkpoint", ckpt,
            "--coarse", coarse,
            "--out", str(base / "refined.ysnd"),
            "--text", "rain",
            "--k", "2",
            "--nfe", "4",
            "--seed", "4",
        ],
        lambda base: ["refined.ysnd", "refined.ysnd.trace.csv"],
    )
