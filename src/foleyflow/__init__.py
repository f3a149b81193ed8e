"""Flow-matching sound generation for video: model, training curriculum,
sway-scheduled sampler, evaluation metrics, manifest pipeline, refiner."""

from .errors import (
    ConfigError,
    ContractError,
    DivergenceError,
    FoleyflowError,
    FormatError,
    ShapeError,
)
from .flow import SamplerConfig, cfm_loss, guided_velocity, make_flow_sample, sample, sway_schedule
from .model import ConditionBundle, ModelConfig, TwoTowerModel, cross_modal_mix
from .rng import SeededRng, derive_seed, string_seed
from .tensor import ComputationTape, Tensor, backward
from .training import (
    OptimizerConfig,
    StageConfig,
    adam_step,
    draw_batch,
    run_curriculum,
    run_stage,
    stage_preset,
)

__version__ = "0.1.0"

__all__ = [
    "ComputationTape",
    "ConditionBundle",
    "ConfigError",
    "ContractError",
    "DivergenceError",
    "FoleyflowError",
    "FormatError",
    "ModelConfig",
    "OptimizerConfig",
    "SamplerConfig",
    "SeededRng",
    "ShapeError",
    "StageConfig",
    "Tensor",
    "TwoTowerModel",
    "__version__",
    "adam_step",
    "backward",
    "cfm_loss",
    "cross_modal_mix",
    "derive_seed",
    "draw_batch",
    "guided_velocity",
    "make_flow_sample",
    "run_curriculum",
    "run_stage",
    "sample",
    "stage_preset",
    "string_seed",
    "sway_schedule",
]
