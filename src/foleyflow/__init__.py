"""Flow-matching sound generation for video: model, training curriculum,
sway-scheduled sampler, evaluation metrics, manifest pipeline, refiner."""

__version__ = "0.1.0"
