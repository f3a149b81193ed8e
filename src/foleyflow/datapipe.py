"""Manifest-driven filtering and cutting of clip records.

Manifest format (one record per line, comma-separated, header required):

    #ysnd-manifest v1
    clip_id,duration,events,av_align_score,semantic_score,speech_flag,bgm_flag

  events        semicolon-separated label:start:end triples (may be empty)
  scores        floats, or "-" when not yet computed
  flags         0 or 1

Filtering drops records by the first failing rule in the documented order
unscored, alignment, semantic, speech, bgm. Cutting slices one segment per
event; a record that is already exactly one full-cover event passes
through unchanged, which makes the pipeline idempotent on its own output.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from .container import replacing
from .errors import ConfigError, ContractError, FormatError

MANIFEST_HEADER = "#ysnd-manifest v1"

DROP_REASONS = ("unscored", "alignment", "semantic", "speech", "bgm")


@dataclass(frozen=True, slots=True)
class ClipRecord:
    """One manifest record; construction enforces what the reader needs.

    clip_id and labels are printable (no line break of any kind), clip_id
    has no comma and starts with neither "#" nor whitespace, and labels
    hold none of ",;:", so every record that constructs is written as one
    manifest line that parses back equal.
    """

    clip_id: str
    duration: float
    events: tuple  # of (label, t_start, t_end)
    av_align_score: float | None = None
    semantic_score: float | None = None
    speech_flag: bool = False
    bgm_flag: bool = False

    def __post_init__(self):
        clip_id, duration = self.clip_id, self.duration
        if not clip_id or "," in clip_id or clip_id[0] == "#" or clip_id[0].isspace() or not clip_id.isprintable():
            raise ContractError(f"invalid clip_id {clip_id!r}")
        if type(duration) is not float:
            try:
                duration = float(duration)
            except (TypeError, ValueError, OverflowError):
                raise ContractError(f"{clip_id}: duration must convert to a float, got {duration!r:.40}") from None
            object.__setattr__(self, "duration", duration)
        if not (0 < duration < math.inf):
            raise ContractError(f"{clip_id}: duration must be finite and > 0, got {duration}")
        events = tuple([(str(label), float(start), float(end)) for label, start, end in self.events])
        for label, start, end in events:
            if not label or "," in label or ";" in label or ":" in label or not label.isprintable():
                raise ContractError(f"{clip_id}: invalid event label {label!r}")
            if not (0.0 <= start < end <= duration):
                raise ContractError(f"{clip_id}: event {label!r} span [{start}, {end}) outside [0, {duration}]")
        object.__setattr__(self, "events", events)
        for name in ("av_align_score", "semantic_score"):
            value = getattr(self, name)
            if value is not None and not (0.0 <= value <= 1.0):
                raise ContractError(f"{clip_id}: {name} must lie in [0, 1], got {value}")

    @property
    def scored(self) -> bool:
        return self.av_align_score is not None and self.semantic_score is not None


@dataclass(frozen=True)
class FilterPolicy:
    min_av_align: float = 0.2
    min_semantic: float = 0.3
    drop_speech: bool = True
    drop_bgm: bool = True

    def __post_init__(self):
        for name in ("min_av_align", "min_semantic"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")


# ---------------------------------------------------------------------------
# manifest serialization


def _format_score(value) -> str:
    return "-" if value is None else repr(float(value))


def format_record(record: ClipRecord) -> str:
    events = ";".join([f"{label}:{start!r}:{end!r}" for label, start, end in record.events])
    return ",".join(
        [
            record.clip_id,
            repr(record.duration),
            events,
            _format_score(record.av_align_score),
            _format_score(record.semantic_score),
            "1" if record.speech_flag else "0",
            "1" if record.bgm_flag else "0",
        ]
    )


def parse_record(line: str) -> ClipRecord:
    parts = line.split(",")
    if len(parts) != 7:
        raise FormatError(f"expected 7 comma-separated fields, got {len(parts)}")
    clip_id, duration_s, events_s, av_s, sem_s, speech_s, bgm_s = parts
    events = []
    if events_s:
        for chunk in events_s.split(";"):
            bits = chunk.split(":")
            if len(bits) != 3:
                raise FormatError(f"event {chunk!r} is not label:start:end")
            # one shared string per distinct label: a manifest repeats few labels
            events.append((sys.intern(bits[0]), float(bits[1]), float(bits[2])))
    if speech_s not in ("0", "1") or bgm_s not in ("0", "1"):
        raise FormatError(f"flags must be 0 or 1, got {speech_s!r}/{bgm_s!r}")
    # positional, like cut's segments: a keyword call to a class builds a
    # kwargs dict per record
    return ClipRecord(
        clip_id,
        float(duration_s),
        events,
        None if av_s == "-" else float(av_s),
        None if sem_s == "-" else float(sem_s),
        speech_s == "1",
        bgm_s == "1",
    )


def read_manifest(path: str) -> tuple[list, list]:
    """Parse a manifest file.

    Returns (records, problems) where problems is a list of
    (line_number, reason) for lines that failed to parse; parsing
    continues past them.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: manifest is not valid UTF-8 ({exc.reason} at byte {exc.start})") from None
    lines = text.split("\n")
    if lines[0].strip() != MANIFEST_HEADER:
        raise FormatError(f"{path}: first line must be {MANIFEST_HEADER!r}")
    records: list = []
    problems: list = []
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            records.append(parse_record(line))
        except (FormatError, ContractError, ValueError) as exc:
            problems.append((lineno, str(exc)))
    return records, problems


def write_manifest(path: str, records) -> None:
    """Write the header, then one line per record, straight to the file.

    No copy of the text is held in memory, and the file takes path's place
    atomically once every record is written, or inside an output set once
    the whole set is (see container.replacing).
    """
    with replacing(path) as out:
        out.write(MANIFEST_HEADER + "\n")
        out.writelines(format_record(r) + "\n" for r in records)


# ---------------------------------------------------------------------------
# filtering, cutting


def drop_reason(record: ClipRecord, policy: FilterPolicy) -> str | None:
    """First failing rule in the documented order, or None when kept."""
    if not record.scored:
        return "unscored"
    if record.av_align_score < policy.min_av_align:
        return "alignment"
    if record.semantic_score < policy.min_semantic:
        return "semantic"
    if policy.drop_speech and record.speech_flag:
        return "speech"
    if policy.drop_bgm and record.bgm_flag:
        return "bgm"
    return None


def filter_records(records, policy: FilterPolicy) -> tuple[list, list]:
    """Partition records into (kept, dropped); dropped pairs with a reason."""
    kept: list = []
    dropped: list = []
    for record in records:
        reason = drop_reason(record, policy)
        if reason is None:
            kept.append(record)
        else:
            dropped.append((record, reason))
    return kept, dropped


def _is_single_full_cover(record: ClipRecord) -> bool:
    if len(record.events) != 1:
        return False
    _, start, end = record.events[0]
    return start == 0.0 and end == record.duration


def cut(record: ClipRecord) -> list:
    """Slice one segment record per event, in time order.

    Segment ids are parent#index, except that a record which is already
    exactly one full-cover event is returned unchanged.
    """
    if _is_single_full_cover(record):
        return [record]
    segments: list = []
    events = sorted(record.events, key=lambda e: (e[1], e[2]))
    for index, (label, start, end) in enumerate(events):
        seg_duration = end - start
        segment = ClipRecord(
            f"{record.clip_id}#{index}",
            seg_duration,
            ((label, 0.0, seg_duration),),
            record.av_align_score,
            record.semantic_score,
            record.speech_flag,
            record.bgm_flag,
        )
        segments.append(segment)
    return segments


# ---------------------------------------------------------------------------
# end-to-end pipeline


@dataclass(frozen=True)
class PipelineResult:
    segments: tuple
    kept: tuple
    dropped: tuple  # of (record, reason)
    drop_counts: dict
    parse_problems: tuple = ()


def process_records(records, policy: FilterPolicy) -> PipelineResult:
    """Filter and cut a record list."""
    kept, dropped = filter_records(records, policy)
    counts = {reason: 0 for reason in DROP_REASONS}
    for _, reason in dropped:
        counts[reason] += 1
    segments: list = []
    for record in kept:
        segments.extend(cut(record))
    return PipelineResult(
        segments=tuple(segments),
        kept=tuple(kept),
        dropped=tuple(dropped),
        drop_counts=counts,
    )


def run_pipeline(manifest_in: str, manifest_out: str, policy: FilterPolicy) -> PipelineResult:
    """File-level pipeline: read, filter, cut, write."""
    records, problems = read_manifest(manifest_in)
    result = replace(process_records(records, policy), parse_problems=tuple(problems))
    write_manifest(manifest_out, result.segments)
    return result


def render_drop_report(result: PipelineResult) -> str:
    """reason,count per line in the documented order, then a total line."""
    lines = [f"{reason},{result.drop_counts[reason]}" for reason in DROP_REASONS]
    lines.append(f"total_dropped,{len(result.dropped)}")
    lines.append(f"total_kept,{len(result.kept)}")
    return "\n".join(lines)
