"""Three-stage conditioning curriculum, Adam, and the step loop.

Stage 1 trains text-to-audio only; stage 2 introduces video on paired
data; stage 3 re-weights toward video-to-audio and starts dropping text.
Per-draw keep flags are Bernoulli with the stage's keep probabilities,
applied on top of two hard rules: draws from a text-only source never
carry video, and draws from the video-only source never carry text. The
flag draws double as classifier-free dropout, so the unconditional branch
gets trained without a separate mechanism.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import ConfigError, ContractError, DivergenceError, check_positive_int
from .flow import cfm_loss
from .model import ConditionBundle, TwoTowerModel
from .rng import SeededRng, derive_seed
from .tensor import backward

TAG_T2A = "T2A"
TAG_TV2A = "TV2A"
TAG_V2A = "V2A"


@dataclass(frozen=True)
class CurriculumRow:
    """A stage's dataset mix (tag -> relative weight), its keep
    probabilities for text and video, and its toy step count."""

    mix: MappingProxyType
    p_keep_text: float
    p_keep_video: float
    toy_steps: int


# read-only, mixes included; toy step counts keep the full curriculum in desk time
CURRICULUM = MappingProxyType({
    1: CurriculumRow(MappingProxyType({TAG_T2A: 1}), 1.0, 0.0, 300),
    2: CurriculumRow(MappingProxyType({TAG_T2A: 1, TAG_TV2A: 1}), 1.0, 0.5, 100),
    3: CurriculumRow(MappingProxyType({TAG_T2A: 1, TAG_TV2A: 1, TAG_V2A: 2}), 0.5, 0.75, 300),
})


def _curriculum_row(stage_id) -> CurriculumRow:
    check_positive_int("stage_id", stage_id)
    if stage_id not in CURRICULUM:
        raise ConfigError(f"stage_id must be 1, 2, or 3, got {stage_id}")
    return CURRICULUM[stage_id]


@dataclass(frozen=True)
class StageConfig:
    """A curriculum stage, run for steps steps; the rest of it is its row."""

    stage_id: int
    steps: int

    def __post_init__(self):
        _curriculum_row(self.stage_id)
        check_positive_int("steps", self.steps)

    @property
    def row(self) -> CurriculumRow:
        return CURRICULUM[self.stage_id]


def stage_preset(stage_id: int, steps: int | None) -> StageConfig:
    """A stage of steps steps, or of its toy step count when steps is None."""
    return StageConfig(stage_id, _curriculum_row(stage_id).toy_steps if steps is None else steps)


# Adam's moment decay rates and denominator floor
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class OptimizerConfig:
    """Defaults sized for the toy curriculum."""

    lr: float = 3e-3
    grad_clip_norm: float = 0.2
    batch_size: int = 8

    def __post_init__(self):
        for name in ("lr", "grad_clip_norm"):
            value = getattr(self, name)
            if not (0.0 < value < math.inf):
                raise ConfigError(f"{name} must be finite and > 0, got {value}")
        check_positive_int("batch_size", self.batch_size)


@dataclass(frozen=True)
class TrainEvent:
    step: int
    stage_id: int
    loss: float
    grad_norm_preclip: float
    mix_draw: str
    text_kept: bool
    video_kept: bool


def format_event(event: TrainEvent) -> str:
    """One whitespace-separated line; floats use repr for exact round-trip."""
    return (
        f"{event.step} {event.stage_id} {event.loss!r} {event.grad_norm_preclip!r} "
        f"{event.mix_draw} {int(event.text_kept)} {int(event.video_kept)}"
    )


@dataclass(frozen=True)
class DrawnSample:
    x1: np.ndarray
    cond: ConditionBundle
    tag: str


def draw_batch(stage: StageConfig, datasets: dict, rng: SeededRng, batch_size: int) -> list:
    """Draw batch_size training samples, an OptimizerConfig's positive
    batch size, under the stage's mixing rules.

    Per sample the rng is consumed in a fixed order: dataset tag, clip
    index, then only the keep flags the tag leaves free (text is forced
    off for V2A draws, video is forced off for T2A draws).
    """
    row = stage.row
    tags = sorted(row.mix)
    for tag in tags:
        if tag not in datasets or not datasets[tag]:
            raise ConfigError(f"stage {stage.stage_id} mix needs dataset {tag!r}, which is missing or empty")
    weights = np.array([row.mix[t] for t in tags], dtype=np.float64)
    cumulative = np.cumsum(weights / weights.sum())
    cumulative[-1] = 1.0  # round-off can leave it below a draw in [0, 1)

    batch = []
    for _ in range(batch_size):
        u = rng.uniform()
        tag = tags[int(np.searchsorted(cumulative, u, side="right"))]
        clip = datasets[tag][rng.integers(len(datasets[tag]))]
        text_kept = False if tag == TAG_V2A else rng.bernoulli(row.p_keep_text)
        video_kept = False if tag == TAG_T2A else rng.bernoulli(row.p_keep_video)
        cond = ConditionBundle(
            text_emb=clip.text_emb if text_kept else None,
            video_feat=clip.video_feat if video_kept else None,
        )
        batch.append(DrawnSample(x1=clip.x1, cond=cond, tag=tag))
    return batch


@dataclass(frozen=True)
class FlatGrads:
    """A train step's gradients in one vector laid out like the parameter
    vector (TwoTowerModel.flat): flat[at] is the gradient of each
    (name, at) in spans, the parameters the loss reached, in registry
    order. The slots outside the spans are never read."""

    flat: np.ndarray
    spans: list


def _runs(spans: list) -> list:
    """The slices of spans, adjacent ones merged."""
    runs: list = []
    for _, at in spans:
        if runs and runs[-1].stop == at.start:
            runs[-1] = slice(runs[-1].start, at.stop)
        else:
            runs.append(at)
    return runs


def gather_grads(model: TwoTowerModel) -> FlatGrads:
    """Copy each parameter's .grad into its slice of a new vector of the
    model's size, and record which parameters have one. The vector is
    allocated here, after the backward, so a train step holds it only
    from its backward to its optimizer update, not through its forward.

    Raises ContractError if a parameter's data is no longer its view of
    model.flat, as after rebinding p.data: the optimizer updates the
    vector, so such a parameter would silently stop training.
    """
    out, spans = np.empty(model.flat.size), []
    for name, p in model.parameters().items():
        if p.data.base is not model.flat:
            raise ContractError(f"parameter {name} no longer views the model's vector; change p.data in place")
        if p.grad is not None:
            at = model.slices[name]
            out[at] = p.grad.reshape(-1)
            spans.append((name, at))
    return FlatGrads(out, spans)


def clip_grad_norm(grads: FlatGrads, max_norm: float) -> tuple[FlatGrads, float]:
    """Scale the gradients in place so their global L2 norm is at most
    max_norm, an OptimizerConfig's positive grad_clip_norm.

    Returns the gradients and the pre-clip norm, the sum of each
    parameter's sum of squares taken in registry order. When that sum
    overflows but every gradient is finite, the norm is taken of the
    gradients over their largest magnitude instead, and they are clipped
    along their direction; the pre-clip norm is then inf only when the
    true norm exceeds the float range.
    """
    total = 0.0
    for _, at in grads.spans:
        g = grads.flat[at]
        total += float((g * g).sum())
    norm = float(np.sqrt(total))
    runs = _runs(grads.spans)
    if not math.isfinite(total) and all(np.isfinite(grads.flat[at]).all() for at in runs):
        # the squares overflowed: the gradients over their largest
        # magnitude have a norm in [1, sqrt(size)]
        peak = max(float(np.abs(grads.flat[at]).max()) for at in runs)
        unit = math.sqrt(sum(float(np.square(grads.flat[at] / peak).sum()) for at in runs))
        norm = peak * unit
        if norm > max_norm:
            for at in runs:
                grads.flat[at] /= peak
                grads.flat[at] *= max_norm / unit
    elif norm > max_norm:
        scale = max_norm / norm
        for at in runs:
            grads.flat[at] *= scale
    return grads, norm


# values per block of adam_step's update
ADAM_BLOCK = 8192


class AdamState:
    """The step count and Adam's moments m and v, laid out like the
    parameter vector; a parameter's slots stay zero until its first
    update. work holds two scratch vectors of one block, ADAM_BLOCK
    values, whatever the model's size."""

    def __init__(self, size: int):
        self.step = 0
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.work = (np.empty(ADAM_BLOCK), np.empty(ADAM_BLOCK))


def adam_step(params: np.ndarray, grads: FlatGrads, opt_cfg: OptimizerConfig, state: AdamState) -> None:
    """One bias-corrected Adam update, in place on the parameter vector.

    Only the slices of the parameters in grads.spans change, in params, m
    and v alike. All or nothing: the gradients are checked before any
    parameter, moment or the step count changes, so a DivergenceError
    leaves them as they were; it names the first non-finite parameter.
    The update then walks each run of adjacent parameters a block of
    ADAM_BLOCK values at a time. Every value goes through the same
    operations in the same order whatever the block size, so the blocks
    change no bits.
    """
    t = state.step + 1
    g, runs = grads.flat, _runs(grads.spans)
    if not all(np.isfinite(g[at]).all() for at in runs):
        name = next(name for name, at in grads.spans if not np.isfinite(g[at]).all())
        raise DivergenceError(f"non-finite gradient for {name} at optimizer step {t}", step=t)
    state.step = t
    b1, b2 = ADAM_BETAS
    c1, c2 = 1.0 - b1**t, 1.0 - b2**t
    # lr * (m / c1) / (sqrt(v / c2) + eps) in this order, which the bits
    # depend on, computed in the two scratch blocks
    work1, work2 = state.work
    blocks = (slice(i, min(i + ADAM_BLOCK, run.stop)) for run in runs for i in range(run.start, run.stop, ADAM_BLOCK))
    for at in blocks:
        n = at.stop - at.start
        gr, m, v, w1, w2 = g[at], state.m[at], state.v[at], work1[:n], work2[:n]
        m *= b1
        m += np.multiply(gr, 1.0 - b1, out=w1)
        v *= b2
        np.multiply(gr, gr, out=w1)
        v += np.multiply(w1, 1.0 - b2, out=w1)
        np.divide(m, c1, out=w1)
        np.sqrt(np.divide(v, c2, out=w2), out=w2)
        w2 += ADAM_EPS
        w1 *= opt_cfg.lr
        w1 /= w2
        params[at] -= w1


@np.errstate(over="ignore", invalid="ignore")
def run_stage(
    model: TwoTowerModel,
    stage: StageConfig,
    opt_cfg: OptimizerConfig,
    datasets: dict,
    rng: SeededRng,
    sink,
    start_step: int,
    checkpoint_path: str,
) -> list:
    """Run one curriculum stage, numbering its steps from start_step + 1,
    save the model to checkpoint_path and return the stage's TrainEvents.

    sink, unless None, receives each event as it is produced. A loss or
    gradient divergence raises before any parameter changes, so the model
    keeps the previous step's parameters; they are written to
    checkpoint_path before raising, so one np.errstate per call silences
    numpy's overflow and invalid warnings. A parameter rebound off
    model.flat is a ContractError (see gather_grads).
    """
    events: list = []
    state = AdamState(model.flat.size)

    for i in range(stage.steps):
        step = start_step + i + 1
        batch = draw_batch(stage, datasets, rng, opt_cfg.batch_size)
        model.zero_grad()
        loss = cfm_loss(model, [(s.x1, s.cond) for s in batch], rng)
        loss_value = loss.item()
        try:
            if not np.isfinite(loss_value):
                raise DivergenceError(f"training loss diverged at step {step}", step=step)
            backward(loss)
            grads, pre_norm = clip_grad_norm(gather_grads(model), opt_cfg.grad_clip_norm)
            adam_step(model.flat, grads, opt_cfg, state)
            del grads  # the gradient vector lives from backward to the update, not through a forward
        except DivergenceError:
            model.save(checkpoint_path)
            raise

        first = batch[0]
        event = TrainEvent(
            step=step,
            stage_id=stage.stage_id,
            loss=loss_value,
            grad_norm_preclip=pre_norm,
            mix_draw=first.tag,
            text_kept=first.cond.text_emb is not None,
            video_kept=first.cond.video_feat is not None,
        )
        events.append(event)
        if sink is not None:
            sink(event)

    model.save(checkpoint_path)
    return events


def check_stage_order(stages: list) -> None:
    """A curriculum runs at least one stage, in strictly increasing stage ids."""
    ids = [s.stage_id for s in stages]
    if not ids:
        raise ConfigError("no stages selected")
    if any(b <= a for a, b in zip(ids, ids[1:])):
        raise ConfigError(f"stage ids must be strictly increasing, got {ids}")


def run_curriculum(
    model: TwoTowerModel,
    stages: list,
    opt_cfg: OptimizerConfig,
    datasets: dict,
    seed: int,
    out_dir: str,
    sink=None,
) -> list:
    """Run stages in order, checkpointing each to out_dir/stage<id>.ckpt
    and chaining step numbers.

    The stages pass check_stage_order. Each stage gets its own seed
    derived from (seed, stage_id), so a run resumed from a stage-N
    checkpoint reproduces the original stage-N+1 losses, draws,
    parameters and checkpoint bytes exactly. Its step numbers are not:
    checkpoints do not store the step, so a resumed run numbers its
    steps from 1. An out_dir that is not a directory fails before the
    first step.
    """
    check_stage_order(stages)
    if not os.path.isdir(out_dir):
        raise ContractError(f"not a directory: {out_dir}")
    events: list = []
    step = 0
    for stage in stages:
        stage_rng = SeededRng(derive_seed(seed, "stage", stage.stage_id))
        stage_events = run_stage(
            model,
            stage,
            opt_cfg,
            datasets,
            stage_rng,
            sink=sink,
            start_step=step,
            checkpoint_path=f"{out_dir}/stage{stage.stage_id}.ckpt",
        )
        events.extend(stage_events)
        step = events[-1].step
    return events
