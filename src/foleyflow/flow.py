"""Rectified-flow training objective and ODE sampling.

Training regresses the straight-path velocity x1 - x0 at interpolated
points x_t = (1-t) x0 + t x1. Sampling integrates the learned field with
explicit Euler over a sway-warped time grid and applies classifier-free
guidance by blending the conditional and unconditional branches. A
trajectory decides its branches once; each Euler step reads how many
there are from the conditioned batch it is given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, DivergenceError, ShapeError, check_positive_int
from .model import ConditionBundle
from .rng import SeededRng
from .tensor import Tensor, no_tape, reduce_mean

# upper end of the admissible sway range; below it the warped grid is
# monotone on [0, 1]
SWAY_MAX = 2.0 / (math.pi - 2.0)
SWAY_MIN = -1.0

# grid times per model.time_path call, so a trajectory's time path takes
# the same memory at any nfe
_PATH_ROWS = 64


@dataclass(frozen=True)
class SamplerConfig:
    nfe: int = 64
    sway_coef: float = -1.0
    guidance_scale: float = 2.0
    seed: int = 0

    def __post_init__(self):
        check_positive_int("nfe", self.nfe)
        if not (SWAY_MIN <= self.sway_coef <= SWAY_MAX):
            raise ConfigError(f"sway_coef {self.sway_coef} outside [{SWAY_MIN}, {SWAY_MAX:.6f}]")
        if not (0.0 <= self.guidance_scale < math.inf):
            raise ConfigError(f"guidance_scale must be finite and >= 0, got {self.guidance_scale}")


def sway_schedule(nfe: int, sway_coef: float) -> np.ndarray:
    """Time grid t_k = u + s (cos(pi u / 2) - 1 + u) for u = k/nfe.

    Negative s front-loads steps near t = 0; s = 0 is the uniform grid.
    nfe and s are a SamplerConfig's, which checks their ranges. Endpoints
    are exactly 0 and 1, and the grid is strictly increasing or a
    ConfigError. At s = SWAY_MAX the warp is flat at u = 1, so its last
    steps shrink as nfe^-3; from nfe ~ 2^18 they fall below the float64
    spacing near 1, and no formula can make them positive.
    """
    u = np.arange(nfe + 1, dtype=np.float64) / nfe
    grid = u + sway_coef * (np.cos(math.pi * u / 2.0) - 1.0 + u)
    grid[0] = 0.0
    grid[-1] = 1.0
    if not (np.diff(grid) > 0.0).all():
        raise ConfigError(f"sway grid for nfe {nfe} and s {sway_coef} is not strictly increasing in float64")
    return grid


def cfm_loss(model, batch, rng: SeededRng) -> Tensor:
    """Mean squared velocity error over a non-empty batch of (x1, condition) pairs.

    For each item, draws x0 ~ N(0, I) then t ~ U(0, 1) from rng (in that
    order) and builds x_t; one model call on the batch's model.condition
    and the time_path of its times, computed in that order, then predicts
    every item, and the loss regresses the predictions onto x1 - x0. The
    returned 0-d tensor stays on the tape for backward().
    """
    items = list(batch)
    if not items:
        raise ShapeError("cfm_loss needs a batch of at least one (x1, condition) pair, got none")
    x1 = [np.asarray(x, dtype=np.float64) for x, _ in items]
    shapes = {x.shape for x in x1}
    if len(shapes) != 1:
        raise ShapeError(f"cfm_loss batch items differ in shape: {sorted(shapes)}")
    x0, t = zip(*[(rng.normal(x.shape), rng.uniform()) for x in x1])
    x0, x1 = np.stack(x0), np.stack(x1)
    tb = np.reshape(t, (-1,) + (1,) * (x1.ndim - 1))
    conditioning = model.condition([cond for _, cond in items])
    pred = model(Tensor((1.0 - tb) * x0 + tb * x1), model.time_path(t), conditioning)
    diff = pred - Tensor(x1 - x0)
    return reduce_mean(diff * diff)


def _guidance_branches(cond: ConditionBundle, guidance_scale: float) -> list:
    """The bundles of the branches a guided velocity runs, unconditional first.

    The unconditional branch sees ConditionBundle(): no text, no video and
    no extra tokens. w = 0, or a cond that is itself unconditional, needs
    that branch alone and w = 1 the conditional branch alone; other weights
    need both.
    """
    if guidance_scale == 0.0 or all(f is None for f in (cond.text_emb, cond.video_feat, cond.extra_tokens)):
        return [ConditionBundle()]
    if guidance_scale == 1.0:
        return [cond]
    return [ConditionBundle(), cond]


def guided_velocity(model, x: np.ndarray, t, guidance_scale: float, conditioned) -> np.ndarray:
    """Classifier-free-guided velocity v_u + w (v_c - v_u) of a stack of n
    states (n, t_audio, d_audio_latent), as a plain array of the same shape.

    conditioned is the model.condition of a batch of r n items, each
    branch's bundle n times in branch order, and t the step's row of a
    model.time_path; a sampler computes both once per trajectory. The one
    model call gets the n states once, and item b reads state b % n, so
    what depends on a state and the time alone runs once for both
    branches (TwoTowerModel.forward). One branch (r = 1) is returned as
    it is; two, the unconditional first, are blended with weight
    guidance_scale. The call runs taped unless its caller is inside
    tensor.no_tape.
    """
    v = model(Tensor(x), t, conditioned).data.reshape((-1,) + x.shape)
    return v[0] if len(v) == 1 else v[0] + guidance_scale * (v[1] - v[0])


def sample_many(model, cond: ConditionBundle, sampler_cfg: SamplerConfig, seeds) -> list:
    """Integrate one trajectory per seed, at least one (no seed is a
    ContractError), all in one Euler loop.

    The states form one (n, t_audio, d_audio_latent) stack from t=0 to t=1,
    so a step is one guided_velocity call; sampler_cfg.seed is not used.
    The guidance branches are decided once (_guidance_branches) and the
    guided batch conditioned once, its n conditional items on the one
    cond object, so the model runs their video input through its first
    video block once per step; the grid times' time path is computed once,
    in blocks of _PATH_ROWS times, and step k reads row k. All of it
    runs under tensor.no_tape: nothing is recorded for a backward, and no
    parameter gets a gradient; and under one np.errstate that silences
    numpy's overflow and invalid warnings, since the loop itself turns a
    non-finite row into an error. Returns per seed, in order, the latent
    at t=1 or the DivergenceError of a trajectory that went non-finite;
    its row stays in the stack, zeroed, and the loop stops early only
    when every row has. Where gemm rows do not depend on the row count
    (README, Determinism), a latent has its one-seed bits, and the bits of
    a loop that computes each step's one-time path on its own.

    model must expose .config (for the latent shape), .condition(conds),
    .time_path(times), and be callable on a batch as
    model(x_t, time_path_row, conditioned).
    """
    seeds = list(seeds)
    if not seeds:
        raise ContractError("sample_many needs at least one seed, got none")
    cfg = model.config
    w = sampler_cfg.guidance_scale
    grid = sway_schedule(sampler_cfg.nfe, sampler_cfg.sway_coef)
    x = np.stack([SeededRng(seed).normal((cfg.t_audio, cfg.d_audio_latent)) for seed in seeds])
    results: list = [None] * len(seeds)
    with no_tape(), np.errstate(over="ignore", invalid="ignore"):
        conditioned = model.condition([c for c in _guidance_branches(cond, w) for _ in seeds])
        for k in range(sampler_cfg.nfe):
            if k % _PATH_ROWS == 0:
                path = model.time_path(grid[k : min(k + _PATH_ROWS, sampler_cfg.nfe)])
            v = guided_velocity(model, x, path[k % _PATH_ROWS], w, conditioned)
            x = x + (grid[k + 1] - grid[k]) * v
            for row in np.flatnonzero(~np.isfinite(x).all(axis=(1, 2))):
                if results[row] is None:
                    results[row] = DivergenceError(f"sampler produced non-finite values at step {k}", step=k)
                x[row] = 0.0  # keeps NaN and inf out of the model
            if None not in results:
                break
    return [latent if error is None else error for latent, error in zip(x, results)]


def sample(model, cond: ConditionBundle, sampler_cfg: SamplerConfig) -> np.ndarray:
    """Integrate the velocity field from seeded noise at t=0 to audio at t=1.

    The one-seed case of sample_many, with sampler_cfg.seed; raises
    DivergenceError if the trajectory goes non-finite. Deterministic given
    sampler_cfg.seed.
    """
    (latent,) = sample_many(model, cond, sampler_cfg, [sampler_cfg.seed])
    if isinstance(latent, DivergenceError):
        raise latent
    return latent
