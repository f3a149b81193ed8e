"""Per-layer metrics computed from a traced window's spans.

A layer is a foleyflow module. Conventions, also listed in README.md:
counts are those of pass 0, which every traced run makes with the same
inputs for a given seed; ratios pool every traced pass; times are
seconds per pass, averaged over the traced passes and scaled, like the
end-to-end times, by the run's host-speed factor. ``*_self_s`` and
``tensor.op_s.<kind>`` are self times (a span's duration minus its wrapped
children's); every other ``*_s`` is inclusive wall time of the named call.
"""

from __future__ import annotations

import math
import os

import numpy as np

from tracer import LAYERS, self_times

# the op kinds of tensor.__all__ at the time the benchmark was written;
# kinds added later are counted under "other"
KINDS = ("matmul", "elementwise", "add", "sub", "mul", "concat", "concat_rows", "narrow", "transpose",
         "layer_norm", "softmax", "gelu", "reduce_sum", "reduce_mean", "other")

PER_LAYER = (
    [("tensor.op_calls", "count")]
    + [(f"tensor.op_calls.{k}", "count") for k in KINDS]
    + [(f"tensor.op_s.{k}", "s/pass") for k in KINDS]
    + [
        ("tensor.backward_s", "s/pass"),
        ("tensor.trace_s", "s/pass"),
        ("tensor.tape_nodes_per_step", "count"),
        ("tensor.matmul_gflop", "GFLOP"),
        ("model.forward_calls", "count"),
        ("model.forward_ms_p50.video", "ms"),
        ("model.forward_ms_p50.novideo", "ms"),
        ("model.forward_self_s", "s/pass"),
        ("model.video_tower_share", "ratio"),
        ("model.state_arrays_calls", "count"),
        ("model.state_arrays_s", "s/pass"),
        ("model.load_s", "s/pass"),
        ("flow.cfm_loss_s", "s/pass"),
        ("flow.guided_velocity_calls", "count"),
        ("flow.guided_velocity_s", "s/pass"),
        ("flow.sample_self_s", "s/pass"),
        ("training.draw_batch_s", "s/pass"),
        ("training.clip_grad_norm_s", "s/pass"),
        ("training.adam_step_s", "s/pass"),
        ("training.step_self_s", "s/pass"),
        ("training.clip_engaged_ratio", "ratio"),
        ("rng.draws", "count"),
        ("rng.draw_s", "s/pass"),
        ("container.write_calls", "count"),
        ("container.write_bytes", "B"),
        ("container.write_s", "s/pass"),
        ("container.read_calls", "count"),
        ("container.read_bytes", "B"),
        ("container.read_s", "s/pass"),
        ("refiner.candidate_sample_s", "s/pass"),
        ("refiner.reward_s", "s/pass"),
        ("refiner.signal_s", "s/pass"),
        ("refiner.win_ratio", "ratio"),
        ("refiner.candidates_failed", "count"),
        ("metrics.evaluate_set_s", "s/pass"),
        ("metrics.detect_peaks_calls", "count"),
        ("metrics.detect_peaks_s", "s/pass"),
        ("metrics.frechet_s", "s/pass"),
        ("metrics.av_align_s", "s/pass"),
        ("datapipe.read_s", "s/pass"),
        ("datapipe.process_s", "s/pass"),
        ("datapipe.write_s", "s/pass"),
        ("datapipe.kept_ratio", "ratio"),
        ("datapipe.parse_problems", "count"),
        ("providers.embed_calls", "count"),
        ("providers.embed_s", "s/pass"),
    ]
    + [(f"{layer}.self_s", "s/pass") for layer in LAYERS]
    + [
        ("trace.coverage", "ratio"),
        ("trace.overhead", "ratio"),
        ("trace.spans_per_pass", "count"),
    ]
)


# The calls the metrics above read. One missing from the code under test
# is reported, and the metrics that need it read zero.
SOURCES = (
    "tensor.backward",
    "tensor.ComputationTape.trace",
    "model.TwoTowerModel.forward",
    "model.TwoTowerModel.state_arrays",
    "model.TwoTowerModel.load",
    "flow.cfm_loss",
    "flow.guided_velocity",
    "flow.sample",
    "training.run_stage",
    "training.draw_batch",
    "training.clip_grad_norm",
    "training.adam_step",
    "rng.SeededRng.normal",
    "container.write_checkpoint",
    "container.read_checkpoint",
    "container.write_latents",
    "container.read_latents",
    "refiner.refine",
    "refiner.reward",
    "refiner.extract_signal",
    "metrics.evaluate_set",
    "metrics.detect_peaks",
    "metrics.frechet_distance",
    "metrics.av_align",
    "datapipe.read_manifest",
    "datapipe.process_records",
    "datapipe.write_manifest",
    "providers.SyntheticEmbedder.embed",
    "cli.main",
)


def missing(tracer) -> list:
    """Layer modules and SOURCES names the tracer did not find."""
    found = set(tracer.found)
    return tracer.missing_layers + [name for name in SOURCES if name not in found]


# ---------------------------------------------------------------------------
# hooks: values read from a wrapped call's arguments and result


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


class Hook:
    def before(self, args, kwargs):
        return None

    def after(self, tracer, span, args, kwargs, out, before):
        raise NotImplementedError


class MatmulFlops(Hook):
    """2*m*k*n per product, times the broadcast batch; computed, not measured."""

    def after(self, tracer, span, args, kwargs, out, before):
        sa, sb = _arg(args, kwargs, 0, "a").shape, _arg(args, kwargs, 1, "b").shape
        batch = math.prod(np.broadcast_shapes(sa[:-2], sb[:-2]))
        m = sa[-2] if len(sa) > 1 else 1
        n = sb[-1] if len(sb) > 1 else 1
        tracer.note("matmul_flop", span, 2 * batch * m * sa[-1] * n)


class VideoTower(Hook):
    """Video tower runs during the call, from the public counter."""

    def before(self, args, kwargs):
        return getattr(args[0], "video_tower_invocations", 0)

    def after(self, tracer, span, args, kwargs, out, before):
        tracer.note("forward_video", span, getattr(args[0], "video_tower_invocations", 0) - before)


class ClipEngaged(Hook):
    def after(self, tracer, span, args, kwargs, out, before):
        tracer.note("clip_engaged", span, bool(out[1] > _arg(args, kwargs, 1, "max_norm")))


class FileBytes(Hook):
    def __init__(self, key: str):
        self.key = key

    def after(self, tracer, span, args, kwargs, out, before):
        try:
            tracer.note(self.key, span, os.path.getsize(_arg(args, kwargs, 0, "path")))
        except (OSError, TypeError, IndexError, KeyError):
            pass


class RefineOutcome(Hook):
    def after(self, tracer, span, args, kwargs, out, before):
        tracer.note("refine_win", span, out.picked != "coarse")
        tracer.note("candidates_failed", span, sum(1 for e in out.trace if getattr(e, "error", None)))


class PipelineOutcome(Hook):
    def after(self, tracer, span, args, kwargs, out, before):
        tracer.note("pipeline", span, (len(out.kept), len(out.dropped), len(out.parse_problems)))


def hooks():
    """Span name -> hook, for the names whose calls carry a per-layer value."""
    fixed = {
        "tensor.matmul": MatmulFlops(),
        "model.TwoTowerModel.forward": VideoTower(),
        "training.clip_grad_norm": ClipEngaged(),
        "refiner.refine": RefineOutcome(),
        "datapipe.run_pipeline": PipelineOutcome(),
    }

    def hook_for(name: str):
        if name in fixed:
            return fixed[name]
        if name.startswith("container.write"):
            return FileBytes("write_bytes")
        if name.startswith("container.read"):
            return FileBytes("read_bytes")
        return None

    return hook_for


# ---------------------------------------------------------------------------
# aggregation


def per_layer(tracer, traced: list, untraced: list, speed: float, replay_speed: float) -> dict:
    """Every PER_LAYER metric from the tracer's spans and notes.

    traced and untraced are the pass results of the traced window and of
    its untraced replay, pass for pass; speed and replay_speed are their
    host-speed factors (calib.factor).
    """
    cols = tracer.arrays()
    names = tracer.names
    n_names = len(names)
    n_passes = max(1, len(traced))
    name_col = cols["name"]
    dur = (cols["end_ns"] - cols["start_ns"]) * speed
    own = self_times(cols) * speed
    in_pass0 = cols["pass"] == 0
    count0 = np.bincount(name_col[in_pass0], minlength=n_names)
    dur_by = np.bincount(name_col, weights=dur, minlength=n_names)
    own_by = np.bincount(name_col, weights=own, minlength=n_names)

    def ids(pred) -> list:
        return [i for i, name in enumerate(names) if pred(name)]

    def is_(name):
        return lambda n: n == name

    def pre(prefix):
        return lambda n: n.startswith(prefix)

    def calls(pred) -> int:
        return int(sum(count0[i] for i in ids(pred)))

    def incl_s(pred) -> float:
        return float(sum(dur_by[i] for i in ids(pred))) / n_passes / 1e9

    def self_s(pred) -> float:
        return float(sum(own_by[i] for i in ids(pred))) / n_passes / 1e9

    def notes(key: str, pass0: bool = False) -> list:
        return [(span, v) for p, span, v in tracer.observed.get(key, ()) if not pass0 or p == 0]

    def ratio(values) -> float:
        values = list(values)
        return float(sum(values)) / len(values) if values else 0.0

    m: dict = {}
    kinds = tracer.kinds
    op_ids = set(ids(lambda n: n.split(".", 1)[0] == "tensor" and n.split(".", 1)[1] in kinds))
    m["tensor.op_calls"] = calls(lambda n: n in {names[i] for i in op_ids})
    for k in KINDS:
        if k == "other":
            pred = lambda n: n.startswith("tensor.") and n[7:] in kinds and n[7:] not in KINDS  # noqa: E731
        else:
            pred = is_(f"tensor.{k}")
        m[f"tensor.op_calls.{k}"] = calls(pred)
        m[f"tensor.op_s.{k}"] = self_s(pred)
    m["tensor.backward_s"] = incl_s(is_("tensor.backward"))
    m["tensor.trace_s"] = incl_s(is_("tensor.ComputationTape.trace"))
    parent = cols["parent"]
    is_op = np.isin(name_col, list(op_ids))
    parent_is_op = np.zeros_like(is_op)
    has_parent = parent >= 0
    parent_is_op[has_parent] = is_op[parent[has_parent]]
    nodes0 = int(np.count_nonzero(is_op & ~parent_is_op & in_pass0))
    steps0 = calls(is_("training.adam_step")) or calls(is_("flow.guided_velocity"))
    m["tensor.tape_nodes_per_step"] = nodes0 / steps0 if steps0 else 0.0
    m["tensor.matmul_gflop"] = sum(v for _, v in notes("matmul_flop", pass0=True)) / 1e9

    fwd = notes("forward_video")
    video_ms = [dur[s] / 1e6 for s, d in fwd if d > 0]
    novideo_ms = [dur[s] / 1e6 for s, d in fwd if d <= 0]
    m["model.forward_calls"] = calls(is_("model.TwoTowerModel.forward"))
    m["model.forward_ms_p50.video"] = float(np.median(video_ms)) if video_ms else 0.0
    m["model.forward_ms_p50.novideo"] = float(np.median(novideo_ms)) if novideo_ms else 0.0
    m["model.forward_self_s"] = self_s(is_("model.TwoTowerModel.forward"))
    m["model.video_tower_share"] = ratio(d for _, d in fwd)
    m["model.state_arrays_calls"] = calls(is_("model.TwoTowerModel.state_arrays"))
    m["model.state_arrays_s"] = incl_s(is_("model.TwoTowerModel.state_arrays"))
    m["model.load_s"] = incl_s(is_("model.TwoTowerModel.load"))

    m["flow.cfm_loss_s"] = incl_s(is_("flow.cfm_loss"))
    m["flow.guided_velocity_calls"] = calls(is_("flow.guided_velocity"))
    m["flow.guided_velocity_s"] = incl_s(is_("flow.guided_velocity"))
    m["flow.sample_self_s"] = self_s(is_("flow.sample"))

    m["training.draw_batch_s"] = incl_s(is_("training.draw_batch"))
    m["training.clip_grad_norm_s"] = incl_s(is_("training.clip_grad_norm"))
    m["training.adam_step_s"] = incl_s(is_("training.adam_step"))
    m["training.step_self_s"] = self_s(is_("training.run_stage"))
    m["training.clip_engaged_ratio"] = ratio(v for _, v in notes("clip_engaged"))

    m["rng.draws"] = calls(pre("rng.SeededRng."))
    m["rng.draw_s"] = incl_s(pre("rng.SeededRng."))

    for side in ("write", "read"):
        m[f"container.{side}_calls"] = calls(pre(f"container.{side}"))
        m[f"container.{side}_bytes"] = int(sum(v for _, v in notes(f"{side}_bytes", pass0=True)))
        m[f"container.{side}_s"] = incl_s(pre(f"container.{side}"))

    refine_ids = ids(is_("refiner.refine"))
    under_refine = np.isin(parent, np.flatnonzero(np.isin(name_col, refine_ids))) & has_parent
    sampling = np.isin(name_col, ids(lambda n: n.split(".", 1)[0] in ("flow", "model", "tensor")))
    m["refiner.candidate_sample_s"] = float(dur[under_refine & sampling].sum()) / n_passes / 1e9
    m["refiner.reward_s"] = incl_s(is_("refiner.reward"))
    m["refiner.signal_s"] = incl_s(lambda n: n in ("refiner.extract_signal", "refiner.signal_token"))
    m["refiner.win_ratio"] = ratio(v for _, v in notes("refine_win"))
    m["refiner.candidates_failed"] = int(sum(v for _, v in notes("candidates_failed", pass0=True)))

    m["metrics.evaluate_set_s"] = incl_s(is_("metrics.evaluate_set"))
    m["metrics.detect_peaks_calls"] = calls(is_("metrics.detect_peaks"))
    m["metrics.detect_peaks_s"] = incl_s(is_("metrics.detect_peaks"))
    m["metrics.frechet_s"] = incl_s(is_("metrics.frechet_distance"))
    m["metrics.av_align_s"] = incl_s(is_("metrics.av_align"))

    outcomes = [v for _, v in notes("pipeline")]
    m["datapipe.read_s"] = incl_s(is_("datapipe.read_manifest"))
    m["datapipe.process_s"] = incl_s(is_("datapipe.process_records"))
    m["datapipe.write_s"] = incl_s(is_("datapipe.write_manifest"))
    parsed = sum(k + d for k, d, _ in outcomes)
    m["datapipe.kept_ratio"] = sum(k for k, _, _ in outcomes) / parsed if parsed else 0.0
    m["datapipe.parse_problems"] = int(sum(p for _, _, p in (v for _, v in notes("pipeline", pass0=True))))

    m["providers.embed_calls"] = calls(is_("providers.SyntheticEmbedder.embed"))
    m["providers.embed_s"] = incl_s(is_("providers.SyntheticEmbedder.embed"))

    layer_self = {layer: self_s(pre(f"{layer}.")) for layer in LAYERS}
    for layer, seconds in layer_self.items():
        m[f"{layer}.self_s"] = seconds
    traced_wall = sum(r.wall for r in traced) * speed
    # the replay runs later than the traced window: compare at reference host speed
    untraced_wall = sum(r.wall for r in untraced) * replay_speed
    m["trace.coverage"] = sum(layer_self.values()) * n_passes / traced_wall if traced_wall else 0.0
    m["trace.overhead"] = traced_wall / untraced_wall - 1.0 if untraced_wall else 0.0
    m["trace.spans_per_pass"] = name_col.size / n_passes
    return m
