"""Manifest-driven filtering and cutting of clip records.

Manifest format (one record per line, comma-separated, header required):

    #ysnd-manifest v1
    clip_id,duration,events,av_align_score,semantic_score,speech_flag,bgm_flag

  events        semicolon-separated label:start:end triples (may be empty)
  scores        floats, or "-" when not yet computed
  flags         0 or 1

Lines end at "\n", "\r\n" or a lone "\r" (universal newlines, as
Path.read_text reads them), and problems are numbered by those lines.

Filtering drops records by the first failing rule in the documented order
unscored, alignment, semantic, speech, bgm. Cutting slices one segment per
event; a record that is already exactly one full-cover event passes
through unchanged, which makes the pipeline idempotent on its own output.
The pipeline streams: each line is parsed into typed fields, checked once
against the record rules (ClipRecord), filtered, cut and written before the
next line is read; only clip ids, drop reasons and parse problems are kept.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

from .container import replacing
from .errors import ConfigError, ContractError, FormatError

MANIFEST_HEADER = "#ysnd-manifest v1"

DROP_REASONS = ("unscored", "alignment", "semantic", "speech", "bgm")


class ClipRecord(namedtuple("ClipRecord", "clip_id duration events av_align_score semantic_score speech_flag bgm_flag")):
    """One manifest record: an immutable tuple, so it also equals a plain
    tuple of its fields. The constructor takes fields of the record's types,
    as parse_record's are (str, float, a tuple of (str, float, float)
    events, float or None scores, bool flags), converts nothing and checks
    the record rules: clip_id and labels are printable (no line break of any
    kind), clip_id has no comma and starts with neither "#" nor whitespace,
    and labels hold none of ",;:", so every record that constructs is
    written as one manifest line that parses back equal.
    """

    __slots__ = ()

    def __new__(cls, clip_id, duration, events, av_align_score, semantic_score, speech_flag, bgm_flag):
        if not clip_id or "," in clip_id or clip_id[0] == "#" or clip_id[0].isspace() or not clip_id.isprintable():
            raise ContractError(f"invalid clip_id {clip_id!r}")
        if not (0 < duration < math.inf):
            raise ContractError(f"{clip_id}: duration must be finite and > 0, got {duration}")
        for label, start, end in events:
            if not label or "," in label or ";" in label or ":" in label or not label.isprintable():
                raise ContractError(f"{clip_id}: invalid event label {label!r}")
            if not (0.0 <= start < end <= duration):
                raise ContractError(f"{clip_id}: event {label!r} span [{start}, {end}) outside [0, {duration}]")
        if av_align_score is not None and not (0.0 <= av_align_score <= 1.0):
            raise ContractError(f"{clip_id}: av_align_score must lie in [0, 1], got {av_align_score}")
        if semantic_score is not None and not (0.0 <= semantic_score <= 1.0):
            raise ContractError(f"{clip_id}: semantic_score must lie in [0, 1], got {semantic_score}")
        return tuple.__new__(cls, (clip_id, duration, events, av_align_score, semantic_score, speech_flag, bgm_flag))

    @classmethod
    def _make(cls, fields):  # _replace builds through this: check
        return cls(*fields)

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


def _format_scores_and_flags(record: ClipRecord) -> str:
    av, sem = record.av_align_score, record.semantic_score
    speech, bgm = "1" if record.speech_flag else "0", "1" if record.bgm_flag else "0"
    return f"{'-' if av is None else repr(float(av))},{'-' if sem is None else repr(float(sem))},{speech},{bgm}"


def format_record(record: ClipRecord) -> str:
    events = ";".join([f"{label}:{start!r}:{end!r}" for label, start, end in record.events])
    return f"{record.clip_id},{record.duration!r},{events},{_format_scores_and_flags(record)}"


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
    # the constructor called as a function: the class call's dispatch through
    # C cost the streamed pipeline about a tenth of its time (CPython 3.11)
    return ClipRecord.__new__(ClipRecord, clip_id, float(duration_s), tuple(events),
                              None if av_s == "-" else float(av_s), None if sem_s == "-" else float(sem_s),
                              speech_s == "1", bgm_s == "1")


def _check_utf8(path: str) -> None:
    """Raise the FormatError of path's first byte that is not UTF-8, if any,
    with its offset counted from the start of the file."""
    try:
        Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: manifest is not valid UTF-8 ({exc.reason} at byte {exc.start})") from None


def _lines(path: str) -> Iterator[str]:
    try:
        with open(path, encoding="utf-8") as fh:  # universal newlines, as Path.read_text
            yield from fh
    except UnicodeDecodeError:
        _check_utf8(path)
        raise


def _records(lines: Iterator[str], problems: list) -> Iterator[ClipRecord]:
    for lineno, raw in enumerate(lines, start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            record = parse_record(line)
        except (FormatError, ContractError, ValueError) as exc:
            problems.append((lineno, str(exc)))
        else:
            yield record


def read_manifest(path: str, problems: list) -> Iterator[ClipRecord]:
    """Check a manifest file's header, then yield its records one at a time.

    Each line that fails to parse appends (line_number, reason) to problems,
    and reading continues past it. A byte that is not UTF-8 raises
    FormatError when reading reaches it, or at once if the header is wrong
    too, so a caller commits no output before the records run out.
    """
    lines = _lines(path)
    if next(lines, "").strip() != MANIFEST_HEADER:
        _check_utf8(path)
        raise FormatError(f"{path}: first line must be {MANIFEST_HEADER!r}")
    return _records(lines, problems)


def write_manifest(path: str, lines) -> None:
    """Write the header, then each of lines, straight to the file.

    No copy of the text is held in memory, and the file takes path's place
    atomically once every line is written, or inside an output set once
    the whole set is (see container.replacing).
    """
    with replacing(path) as out:
        out.write(MANIFEST_HEADER + "\n")
        out.writelines(line + "\n" for line in lines)


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


def cut(record: ClipRecord) -> list:
    """Manifest lines of one segment per event, in time order.

    Segment ids are parent#index, except that a record which is already
    exactly one full-cover event is written unchanged. A segment keeps its
    parent's scores and flags, and its one event spans all of its duration
    end - start, which is finite and > 0 since the parent passed its checks;
    so each line is one that ClipRecord accepts, and none is built.
    """
    if len(record.events) == 1 and record.events[0][1:] == (0.0, record.duration):
        return [format_record(record)]
    tail = _format_scores_and_flags(record)
    lines: list = []
    for index, (label, start, end) in enumerate(sorted(record.events, key=lambda e: (e[1], e[2]))):
        duration = repr(end - start)
        lines.append(f"{record.clip_id}#{index},{duration},{label}:0.0:{duration},{tail}")
    return lines


# ---------------------------------------------------------------------------
# end-to-end pipeline


@dataclass(frozen=True)
class PipelineResult:
    """What a pipeline run kept and dropped, in input order."""

    kept: list = field(default_factory=list)  # clip ids
    dropped: list = field(default_factory=list)  # (clip_id, reason)
    parse_problems: list = field(default_factory=list)  # (line_number, reason)


def process_records(records, policy: FilterPolicy, result: PipelineResult) -> Iterator[str]:
    """Yield the segment lines of each record that policy keeps, and note
    each record in result.kept or, with its reason, in result.dropped."""
    for record in records:
        reason = drop_reason(record, policy)
        if reason is None:
            result.kept.append(record.clip_id)
            yield from cut(record)
        else:
            result.dropped.append((record.clip_id, reason))


def run_pipeline(manifest_in: str, manifest_out: str, policy: FilterPolicy) -> PipelineResult:
    """File-level pipeline in one streaming pass: read, filter, cut, write."""
    result = PipelineResult()
    records = read_manifest(manifest_in, result.parse_problems)
    write_manifest(manifest_out, process_records(records, policy, result))
    return result


def render_drop_report(result: PipelineResult) -> str:
    """reason,count per line in the documented order, then a total line."""
    counts = dict.fromkeys(DROP_REASONS, 0)
    for _, reason in result.dropped:
        counts[reason] += 1
    lines = [f"{reason},{counts[reason]}" for reason in DROP_REASONS]
    lines.append(f"total_dropped,{len(result.dropped)}")
    lines.append(f"total_kept,{len(result.kept)}")
    return "\n".join(lines)
