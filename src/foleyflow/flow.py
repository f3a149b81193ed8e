"""Rectified-flow training objective and ODE sampling.

Training regresses the straight-path velocity x1 - x0 at interpolated
points x_t = (1-t) x0 + t x1. Sampling integrates the learned field with
explicit Euler over a sway-warped time grid and applies classifier-free
guidance by blending the conditional and unconditional branches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, DivergenceError, ShapeError
from .model import ConditionBundle
from .rng import SeededRng
from .tensor import Tensor, reduce_mean

# upper end of the admissible sway range; below it the warped grid is
# monotone on [0, 1]
SWAY_MAX = 2.0 / (math.pi - 2.0)
SWAY_MIN = -1.0


@dataclass(frozen=True)
class FlowSample:
    """One supervised point on the straight path from noise to data."""

    t: float
    x_t: np.ndarray
    target_v: np.ndarray


def make_flow_sample(x0: np.ndarray, x1: np.ndarray, t: float) -> FlowSample:
    x0 = np.asarray(x0, dtype=np.float64)
    x1 = np.asarray(x1, dtype=np.float64)
    if x0.shape != x1.shape:
        raise ShapeError(f"flow endpoints must match: {x0.shape} vs {x1.shape}")
    if not (0.0 <= t <= 1.0):
        raise ContractError(f"interpolation time {t} outside [0, 1]")
    x_t = (1.0 - t) * x0 + t * x1
    return FlowSample(t=float(t), x_t=x_t, target_v=x1 - x0)


@dataclass(frozen=True)
class SamplerConfig:
    nfe: int = 64
    sway_coef: float = -1.0
    guidance_scale: float = 2.0
    seed: int = 0

    def __post_init__(self):
        if self.nfe < 1:
            raise ConfigError(f"nfe must be >= 1, got {self.nfe}")
        if not (SWAY_MIN <= self.sway_coef <= SWAY_MAX):
            raise ConfigError(f"sway_coef {self.sway_coef} outside [{SWAY_MIN}, {SWAY_MAX:.6f}]")
        if self.guidance_scale < 0:
            raise ConfigError(f"guidance_scale must be >= 0, got {self.guidance_scale}")


def sway_schedule(nfe: int, sway_coef: float) -> np.ndarray:
    """Time grid t_k = u + s (cos(pi u / 2) - 1 + u) for u = k/nfe.

    Negative s front-loads steps near t = 0; s = 0 is the uniform grid.
    Endpoints are exactly 0 and 1 and the grid is strictly increasing for
    s in the admissible range.
    """
    if nfe < 1:
        raise ConfigError(f"nfe must be >= 1, got {nfe}")
    if not (SWAY_MIN <= sway_coef <= SWAY_MAX):
        raise ConfigError(f"sway_coef {sway_coef} outside [{SWAY_MIN}, {SWAY_MAX:.6f}]")
    u = np.arange(nfe + 1, dtype=np.float64) / nfe
    grid = u + sway_coef * (np.cos(math.pi * u / 2.0) - 1.0 + u)
    grid[0] = 0.0
    grid[-1] = 1.0
    return grid


def cfm_loss(model, batch, rng: SeededRng) -> Tensor:
    """Mean squared velocity error over a batch of (x1, condition) pairs.

    For each item, draws x0 ~ N(0, I) then t ~ U(0, 1) from rng (in that
    order) and builds x_t; one model call then predicts every item, and
    the loss regresses the predictions onto x1 - x0. The returned scalar
    stays on the tape for backward().
    """
    items = list(batch)
    if not items:
        raise ContractError("cfm_loss needs a non-empty batch")
    points = []
    for x1, _ in items:
        if isinstance(x1, Tensor):
            x1 = x1.data
        x1 = np.asarray(x1, dtype=np.float64)
        x0 = rng.normal(x1.shape)
        t = rng.uniform()
        points.append(make_flow_sample(x0, x1, t))
    shapes = {p.x_t.shape for p in points}
    if len(shapes) != 1:
        raise ShapeError(f"cfm_loss batch items differ in shape: {sorted(shapes)}")
    pred = model(Tensor(np.stack([p.x_t for p in points])), [p.t for p in points], [cond for _, cond in items])
    diff = pred - Tensor(np.stack([p.target_v for p in points]))
    return reduce_mean(diff * diff)


def _is_unconditional(cond: ConditionBundle) -> bool:
    return not cond.text_kept and not cond.video_kept and cond.extra_tokens is None


def guided_velocity(model, x_t, t: float, cond: ConditionBundle, guidance_scale: float) -> np.ndarray:
    """Classifier-free-guided velocity v_u + w (v_c - v_u) as a plain array.

    The unconditional branch v_u sees ConditionBundle(): no text, no video
    and no extra tokens. w = 0 returns the unconditional branch alone and
    w = 1 the conditional branch alone, each from a batch-1 model call;
    other weights run both branches as one batch-2 call.
    """
    if guidance_scale < 0:
        raise ContractError(f"guidance_scale must be >= 0, got {guidance_scale}")
    x = x_t.data if isinstance(x_t, Tensor) else np.asarray(x_t, dtype=np.float64)
    if _is_unconditional(cond) or guidance_scale == 0.0:
        branches = [ConditionBundle()]
    elif guidance_scale == 1.0:
        branches = [cond]
    else:
        branches = [ConditionBundle(), cond]
    v = model(Tensor(np.stack([x] * len(branches))), [t] * len(branches), branches).data
    if len(branches) == 1:
        return v[0]
    return v[0] + guidance_scale * (v[1] - v[0])


def sample(model, cond: ConditionBundle, sampler_cfg: SamplerConfig) -> np.ndarray:
    """Integrate the velocity field from seeded noise at t=0 to audio at t=1.

    model must expose .config (for the latent shape) and be callable on a
    batch as model(x_t, times, conds). Deterministic given sampler_cfg.seed.
    """
    cfg = model.config
    grid = sway_schedule(sampler_cfg.nfe, sampler_cfg.sway_coef)
    rng = SeededRng(sampler_cfg.seed)
    x = rng.normal((cfg.t_audio, cfg.d_audio_latent))
    for k in range(sampler_cfg.nfe):
        v = guided_velocity(model, x, float(grid[k]), cond, sampler_cfg.guidance_scale)
        x = x + (grid[k + 1] - grid[k]) * v
        if not np.all(np.isfinite(x)):
            raise DivergenceError(f"sampler produced non-finite values at step {k}", step=k)
    return x
