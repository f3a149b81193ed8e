"""Output checks. Each returns a list of problems; an empty list passes.

The checks read only what the program wrote (files, printed reports) and
what the input generator knows about its own inputs, so a perturbed
output trips them.
"""

from __future__ import annotations

import json
import math

# Reference values are compared within |a - b| <= ATOL + RTOL * |b|. Not
# bit-exact: a batched or reordered matmul may change the last bits once.
RTOL = 1e-6
ATOL = 1e-9


def close(a: float, b: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= ATOL + RTOL * abs(b)


def compare_reference(actual: dict, reference: dict) -> list:
    """Compare a probe's values with the committed reference values.

    Lists of floats are compared element-wise within the tolerance above;
    integers and strings must match exactly.
    """
    problems = []
    for key, want in reference.items():
        got = actual.get(key)
        if got is None:
            problems.append(f"reference {key}: missing from probe")
        elif isinstance(want, list):
            if not isinstance(got, list) or len(got) != len(want):
                problems.append(f"reference {key}: length {len(got) if isinstance(got, list) else '-'} != {len(want)}")
                continue
            bad = [i for i, (g, w) in enumerate(zip(got, want)) if not close(float(g), float(w))]
            if bad:
                i = bad[0]
                problems.append(f"reference {key}[{i}]: {got[i]!r} differs from {want[i]!r} ({len(bad)} entries off)")
        elif isinstance(want, float):
            if not close(float(got), want):
                problems.append(f"reference {key}: {got!r} differs from {want!r}")
        elif got != want:
            problems.append(f"reference {key}: {got!r} != {want!r}")
    return problems


def check_step(loss: float, grad_norm: float) -> list:
    """One training step's logged loss and pre-clip gradient norm are finite."""
    if math.isfinite(loss) and math.isfinite(grad_norm):
        return []
    return [f"train: non-finite loss {loss!r} or grad norm {grad_norm!r}"]


def check_latent(latent, shape: tuple) -> list:
    """A sample output: the expected shape and finite values throughout."""
    if tuple(latent.shape) != tuple(shape):
        return [f"latent shape {tuple(latent.shape)} != {tuple(shape)}"]
    if not all(math.isfinite(float(v)) for v in latent.reshape(-1)):
        return ["latent has non-finite values"]
    return []


def check_refine_trace(text: str, k: int) -> list:
    """The refine CSV trace: k candidates, and the pick scores >= the coarse input."""
    rows, coarse, picked = {}, None, None
    for line in text.strip().splitlines()[1:]:
        if line.startswith("# coarse_aggregate,"):
            coarse = float(line.split(",", 1)[1])
        elif line.startswith("# picked,"):
            picked = line.split(",", 1)[1]
        elif line and not line.startswith("#"):
            cells = line.split(",")
            rows[int(cells[0])] = cells
    if coarse is None or picked is None:
        return ["refine: trace lacks the coarse aggregate or the pick"]
    problems = []
    if len(rows) != k:
        problems.append(f"refine: {len(rows)} candidates in trace, expected {k}")
    if picked == "coarse":
        best = coarse
        better = [i for i, c in rows.items() if c[-1] == "ok" and float(c[-2]) > coarse]
        if better:
            problems.append(f"refine: kept the coarse input although candidate {better[0]} scored higher")
    elif picked.startswith("candidate:") and int(picked.split(":")[1]) in rows:
        cells = rows[int(picked.split(":")[1])]
        best = float(cells[-2]) if cells[-1] == "ok" else -math.inf
    else:
        return [f"refine: pick {picked!r} names no candidate"]
    if best < coarse:
        problems.append(f"refine: picked {picked} scoring {best} below the coarse input's {coarse}")
    return problems


def parse_drop_report(text: str) -> dict:
    counts = {}
    for line in text.strip().splitlines():
        name, _, value = line.partition(",")
        counts[name] = int(value)
    return counts


def check_pipeline(report_text: str, stderr_text: str, out_lines: int, expected: dict) -> list:
    """Conservation and agreement with what the generator put in the manifest.

    kept + dropped + malformed must equal the manifest's data lines, the
    per-reason drop counts must add up to the reported total and match the
    generator's own count, and the output must hold one line per event cut.
    """
    problems = []
    try:
        report = parse_drop_report(report_text)
    except ValueError:
        return [f"pipeline: unreadable drop report {report_text[:80]!r}"]
    warnings = sum(1 for line in stderr_text.splitlines() if line.startswith("warning: manifest line"))
    kept, dropped = report.get("total_kept", -1), report.get("total_dropped", -1)
    if kept + dropped + warnings != expected["lines"]:
        problems.append(
            f"pipeline: kept {kept} + dropped {dropped} + malformed {warnings} != {expected['lines']} input lines"
        )
    by_reason = {k: v for k, v in report.items() if not k.startswith("total_")}
    if sum(by_reason.values()) != dropped:
        problems.append(f"pipeline: drop reasons sum to {sum(by_reason.values())}, report total is {dropped}")
    if warnings != expected["malformed"]:
        problems.append(f"pipeline: {warnings} malformed lines reported, {expected['malformed']} generated")
    if kept != expected["kept"]:
        problems.append(f"pipeline: kept {kept}, expected {expected['kept']}")
    for reason, want in expected["dropped"].items():
        if by_reason.get(reason) != want:
            problems.append(f"pipeline: dropped {by_reason.get(reason)} as {reason}, expected {want}")
    if out_lines != expected["segments"]:
        problems.append(f"pipeline: wrote {out_lines} segments, expected {expected['segments']}")
    return problems


def check_eval(report_text: str, expected: dict) -> list:
    """The JSON eval report: every pair scored, finite values, missing ids listed."""
    try:
        report = json.loads(report_text)
    except ValueError:
        return [f"eval: report is not JSON: {report_text[:80]!r}"]
    problems = []
    if report.get("n_pairs") != expected["pairs"]:
        problems.append(f"eval: scored {report.get('n_pairs')} pairs, expected {expected['pairs']}")
    if len(report.get("missing", ())) != expected["missing"]:
        problems.append(f"eval: {len(report.get('missing', ()))} missing ids, expected {expected['missing']}")
    values = report.get("values", {})
    if len(values) != 6 or not all(math.isfinite(float(v)) for v in values.values()):
        problems.append(f"eval: expected six finite values, got {values}")
    return problems
