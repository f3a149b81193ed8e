"""Manifest pipeline: parse/format round-trips, filter order, cutting, and
the streamed pipeline against the read-everything-then-write one it replaced."""

import math
import os
import stat
import sys
import tracemalloc
from dataclasses import asdict, dataclass
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from foleyflow.datapipe import (
    DROP_REASONS,
    MANIFEST_HEADER,
    ClipRecord,
    FilterPolicy,
    PipelineResult,
    cut,
    drop_reason,
    format_record,
    parse_record,
    process_records,
    read_manifest,
    render_drop_report,
    run_pipeline,
    write_manifest,
)
from foleyflow.errors import ConfigError, ContractError, FormatError


def _record(**overrides):
    base = dict(
        clip_id="clipA",
        duration=2.0,
        events=(("hit", 0.2, 0.5), ("thud", 1.0, 1.4)),
        av_align_score=0.8,
        semantic_score=0.9,
        speech_flag=False,
        bgm_flag=False,
    )
    base.update(overrides)
    return ClipRecord(**base)


def _read(path) -> tuple[list, list]:
    problems: list = []
    return list(read_manifest(str(path), problems)), problems


def _write(path, records) -> None:
    write_manifest(str(path), map(format_record, records))


# ---------------------------------------------------------------------------
# record contracts


def test_record_validation():
    with pytest.raises(ContractError):
        _record(clip_id="")
    with pytest.raises(ContractError):
        _record(clip_id="a,b")
    with pytest.raises(ContractError):
        _record(duration=0.0)
    with pytest.raises(ContractError, match="finite"):
        _record(duration=math.inf, events=(("hit", 0.0, math.inf),))
    with pytest.raises(ContractError):
        _record(events=(("hit", 0.5, 0.2),))
    with pytest.raises(ContractError):
        _record(events=(("hit", 0.0, 3.0),))
    with pytest.raises(ContractError):
        _record(events=(("a:b", 0.0, 1.0),))
    with pytest.raises(ContractError):
        _record(av_align_score=1.5)


@pytest.mark.parametrize(
    "overrides, message",
    [
        (dict(events=(("a,b", 0.0, 1.0),)), "clipA: invalid event label 'a,b'"),
        (dict(events=(("a;b", 0.0, 1.0),)), "clipA: invalid event label 'a;b'"),
        (dict(events=(("a:b", 0.0, 1.0),)), "clipA: invalid event label 'a:b'"),
        (dict(events=(("", 0.0, 1.0),)), "clipA: invalid event label ''"),
        (dict(events=(("hit", math.nan, 1.0),)), "clipA: event 'hit' span [nan, 1.0) outside [0, 2.0]"),
        (dict(events=(("hit", 0.0, math.nan),)), "clipA: event 'hit' span [0.0, nan) outside [0, 2.0]"),
        (dict(duration=math.nan), "clipA: duration must be finite and > 0, got nan"),
        (dict(av_align_score=math.nan), "clipA: av_align_score must lie in [0, 1], got nan"),
        (dict(semantic_score=math.nan), "clipA: semantic_score must lie in [0, 1], got nan"),
    ],
    ids=["comma", "semicolon", "colon", "empty-label", "nan-start", "nan-end", "nan-duration", "nan-av", "nan-sem"],
)
def test_record_rejection_messages(overrides, message):
    with pytest.raises(ContractError) as info:
        _record(**overrides)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "overrides",
    [
        dict(events=(("a\nb", 0.0, 1.0),)),
        dict(events=(("a\x85b", 0.0, 1.0),)),
        dict(events=(("a\u2028b", 0.0, 1.0),)),
        dict(clip_id="c\u2028d"),
        dict(clip_id="#c4"),
        dict(clip_id=" c5 "),
    ],
    ids=["label-newline", "label-nel", "label-line-separator", "id-line-separator", "id-hash", "id-space"],
)
def test_record_rejects_what_the_reader_cannot_read_back(overrides):
    # each would be written as a line that reads back lost, split or changed
    with pytest.raises(ContractError):
        _record(**overrides)


def test_record_replace_checks_like_the_constructor():
    assert _record()._replace(clip_id="other").clip_id == "other"
    with pytest.raises(ContractError, match="invalid clip_id"):
        _record()._replace(clip_id="a,b")
    with pytest.raises(ContractError, match="av_align_score"):
        _record()._replace(av_align_score=1.5)


def test_record_has_no_instance_dict():
    assert not hasattr(_record(), "__dict__")


def test_record_is_an_immutable_hashable_tuple():
    rec = _record()
    with pytest.raises(AttributeError):
        rec.duration = 3.0
    assert hash(rec) == hash(_record()) and {rec, _record()} == {rec}
    assert rec == tuple(rec) == ("clipA", 2.0, (("hit", 0.2, 0.5), ("thud", 1.0, 1.4)), 0.8, 0.9, False, False)


def test_scored_property():
    assert _record().scored
    assert not _record(av_align_score=None).scored
    assert not _record(semantic_score=None).scored


# ---------------------------------------------------------------------------
# serialization


def test_format_parse_roundtrip_exact():
    # repr floats survive the trip bit for bit, awkward values included
    rec = _record(
        duration=1.0 / 3.0,
        events=(("hit", 0.1000000000000001, 0.2999999999999999),),
        av_align_score=math.pi / 4.0,
        semantic_score=None,
        speech_flag=True,
    )
    assert parse_record(format_record(rec)) == rec


def test_parse_record_fields():
    rec = parse_record("c1,2.0,hit:0.2:0.5;thud:1.0:1.4,0.8,0.9,0,1")
    assert rec.clip_id == "c1"
    assert rec.events == (("hit", 0.2, 0.5), ("thud", 1.0, 1.4))
    assert rec.bgm_flag and not rec.speech_flag


def test_parse_record_missing_scores():
    rec = parse_record("c1,2.0,hit:0.2:0.5,-,-,0,0")
    assert rec.av_align_score is None and rec.semantic_score is None
    assert not rec.scored


def test_parse_record_empty_events():
    assert parse_record("c1,2.0,,0.5,0.5,0,0").events == ()


def test_parse_record_errors():
    with pytest.raises(FormatError):
        parse_record("only,three,fields")
    with pytest.raises(FormatError):
        parse_record("c1,2.0,hit:0.2,0.8,0.9,0,0")  # event missing end
    with pytest.raises(FormatError):
        parse_record("c1,2.0,hit:0.2:0.5,0.8,0.9,2,0")  # bad flag


def test_each_parsed_line_is_converted_and_checked_once(tmp_path, monkeypatch):
    # parse_record converts the line's text to the record's types, and the
    # constructor checks the rules once per line
    checked = []
    construct = ClipRecord.__new__

    def counting_construct(cls, *fields):
        checked.append(fields[0])
        return construct(cls, *fields)

    monkeypatch.setattr(ClipRecord, "__new__", counting_construct)
    src = tmp_path / "in.txt"
    src.write_text(
        MANIFEST_HEADER + "\n" + "c1,2.0,hit:0.2:0.5;thud:1.0:1.4,0.8,0.9,0,0\n" + "c2,2.0,hit:0.0:2.0,0.8,0.9,0,0\n"
        + "c3,2.0,hit:0.2:0.5,0.8,0.9,1,0\n" + "c4,2.0,hit:0.2:9.0,0.8,0.9,0,0\n" + "c5,2.0,hit:0.2:0.5,0.8,0.9,7,0\n"
    )
    result = run_pipeline(str(src), str(tmp_path / "out.txt"), FilterPolicy())
    assert checked == ["c1", "c2", "c3", "c4"]  # c5's flag fails before the rules
    assert (result.kept, [lineno for lineno, _ in result.parse_problems]) == (["c1", "c2"], [5, 6])


def test_read_manifest_requires_header(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("clipA,2.0,,0.5,0.5,0,0\n")
    with pytest.raises(FormatError, match="first line"):
        _read(path)


def test_read_manifest_collects_problems_and_continues(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text(
        MANIFEST_HEADER
        + "\n"
        + "good1,2.0,hit:0.2:0.5,0.8,0.9,0,0\n"
        + "broken line\n"
        + "# a comment\n"
        + "\n"
        + "good2,1.0,,0.5,0.5,0,0\n"
        + "bad2,-1.0,,0.5,0.5,0,0\n"
        + "endless,inf,,0.5,0.5,0,0\n"
        + "endless2,inf,hit:0.0:inf,0.5,0.5,0,0\n"
    )
    records, problems = _read(path)
    assert [r.clip_id for r in records] == ["good1", "good2"]
    assert [lineno for lineno, _ in problems] == [3, 7, 8, 9]


def test_read_manifest_numbers_problems_by_file_line(tmp_path):
    # a form feed is a line boundary to str.splitlines, not to the file
    path = tmp_path / "m.txt"
    path.write_text(
        MANIFEST_HEADER + "\n" + "c1,2.0,hit:0.2:0.5,0.8,0.9,0\x0c,0\n" + "c2,2.0,,0.8,0.9,7,0\n" + "c3,2.0,,0.8,0.9,0,0\n"
    )
    records, problems = _read(path)
    assert [r.clip_id for r in records] == ["c3"]
    assert [lineno for lineno, _ in problems] == [2, 3]


def test_read_manifest_reads_crlf(tmp_path):
    path = tmp_path / "m.txt"
    path.write_bytes((MANIFEST_HEADER + "\r\nc1,2.0,hit:0.2:0.5,0.8,0.9,0,0\r\nbroken\r\n").encode())
    records, problems = _read(path)
    assert records == [parse_record("c1,2.0,hit:0.2:0.5,0.8,0.9,0,0")]
    assert [lineno for lineno, _ in problems] == [3]


def test_lines_end_at_a_lone_cr_or_crlf_as_at_lf(tmp_path):
    # universal newlines, as Path.read_text reads a file
    path = tmp_path / "m.txt"
    path.write_bytes(b"#ysnd-manifest v1\nc1,2.0,,0.5,0.5,0,0\rc2,2.0,,0.5,0.5,0,0\r\nbad\n")
    records, problems = _read(path)
    assert [r.clip_id for r in records] == ["c1", "c2"]
    assert [lineno for lineno, _ in problems] == [4]


def test_read_manifest_rejects_non_utf8(tmp_path):
    path = tmp_path / "m.txt"
    path.write_bytes(MANIFEST_HEADER.encode() + b"\nclip\xff,2.0,,0.5,0.5,0,0\n")
    with pytest.raises(FormatError, match=f"m.txt: manifest is not valid UTF-8 .* at byte {len(MANIFEST_HEADER) + 5}"):
        _read(path)


def test_write_read_manifest_roundtrip(tmp_path):
    path = str(tmp_path / "m.txt")
    records = [_record(), _record(clip_id="clipB", semantic_score=None)]
    _write(path, records)
    back, problems = _read(path)
    assert problems == []
    assert back == records


@pytest.fixture(scope="module")
def two_label_manifest(tmp_path_factory):
    """20k records of two events each, one "hit" and one "thud"."""
    path = tmp_path_factory.mktemp("two_labels") / "in.txt"
    lines = [MANIFEST_HEADER] + [f"c{i:05d},2.0,hit:0.25:0.5;thud:1.0:1.5,0.5,0.5,0,0" for i in range(20_000)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_read_manifest_shares_one_string_per_label(two_label_manifest):
    records, problems = _read(two_label_manifest)
    assert problems == []
    labels = [label for r in records for label, _, _ in r.events]
    assert len(labels) == 40_000
    assert len({id(label) for label in labels}) == 2


def test_run_pipeline_holds_no_record_and_no_copy_of_its_text(two_label_manifest, tmp_path):
    out = tmp_path / "out.txt"
    tracemalloc.start()
    try:
        result = run_pipeline(str(two_label_manifest), str(out), FilterPolicy())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the records, their segments, the text and its lines took 22.3 MB when
    # the pipeline read everything before it wrote; the 20k kept ids take 1.3
    assert peak < 2.5e6
    assert len(result.kept) == 20_000
    segments = [
        f"c{i:05d}#0,0.25,hit:0.0:0.25,0.5,0.5,0,0\nc{i:05d}#1,0.5,thud:0.0:0.5,0.5,0.5,0,0\n" for i in range(20_000)
    ]
    assert out.read_text(encoding="utf-8") == MANIFEST_HEADER + "\n" + "".join(segments)


def test_write_manifest_that_fails_part_way_leaves_the_old_file(tmp_path):
    path = tmp_path / "m.txt"
    _write(path, [_record()])
    before = path.read_bytes()
    umask = os.umask(0)
    os.umask(umask)
    assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask

    def lines():
        for i in range(5_000):  # more than one write buffer, so the failure comes mid-file
            yield format_record(_record(clip_id=f"new{i}"))
        raise RuntimeError("record source failed")

    with pytest.raises(RuntimeError, match="record source failed"):
        write_manifest(str(path), lines())
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["m.txt"]


@st.composite
def _awkward_text(draw):
    """Printable text, one time in four with a character the format treats specially."""
    text = draw(st.text(st.characters(categories=("L", "M", "N", "P", "S", "Zs")), max_size=5))
    if draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(",;:# \t\r\n\x0c\x85\u2028\x00")) + text[at:]
    return text


_score = st.none() | st.floats(0.0, 1.0)


@st.composite
def _record_fields(draw):
    duration = draw(st.floats(0.0, exclude_min=True, allow_infinity=False))
    events = []
    for _ in range(draw(st.integers(0, 3))):
        start, end = sorted([draw(st.floats(0.0, duration)), draw(st.floats(0.0, duration))])
        events.append((draw(_awkward_text()), start, end))
    return dict(
        clip_id=draw(_awkward_text()),
        duration=duration,
        events=tuple(events),
        av_align_score=draw(_score),
        semantic_score=draw(_score),
        speech_flag=draw(st.booleans()),
        bgm_flag=draw(st.booleans()),
    )


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(fields=st.lists(_record_fields(), max_size=4))
def test_every_record_that_constructs_roundtrips(tmp_path, fields):
    records = []
    for kwargs in fields:
        try:
            records.append(ClipRecord(**kwargs))
        except ContractError:
            pass
    path = tmp_path / "m.txt"
    _write(path, records)
    assert _read(path) == (records, [])


_manifest_like = st.text(st.sampled_from("c0123456789.,;:-#einfa \t\r\n\x0c\x85")).map(str.encode)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(body=st.binary() | _manifest_like)
def test_read_manifest_parses_or_raises_format_error(tmp_path, body):
    path = tmp_path / "m.txt"
    path.write_bytes(MANIFEST_HEADER.encode() + b"\n" + body)
    try:
        records, problems = _read(path)
    except FormatError:
        return
    assert all(isinstance(r, ClipRecord) for r in records)
    assert all(isinstance(lineno, int) and isinstance(reason, str) for lineno, reason in problems)


# ---------------------------------------------------------------------------
# filtering


def test_drop_reason_order_is_canonical():
    policy = FilterPolicy()
    # a record failing everything reports the first rule in order
    rec = _record(av_align_score=None, semantic_score=0.0, speech_flag=True, bgm_flag=True)
    assert drop_reason(rec, policy) == "unscored"
    rec = _record(av_align_score=0.1, semantic_score=0.0, speech_flag=True, bgm_flag=True)
    assert drop_reason(rec, policy) == "alignment"
    rec = _record(semantic_score=0.0, speech_flag=True, bgm_flag=True)
    assert drop_reason(rec, policy) == "semantic"
    rec = _record(speech_flag=True, bgm_flag=True)
    assert drop_reason(rec, policy) == "speech"
    rec = _record(bgm_flag=True)
    assert drop_reason(rec, policy) == "bgm"
    assert drop_reason(_record(), policy) is None


def test_policy_thresholds_are_inclusive():
    policy = FilterPolicy(min_av_align=0.2, min_semantic=0.3)
    assert drop_reason(_record(av_align_score=0.2, semantic_score=0.3), policy) is None


def test_policy_rejects_non_finite_thresholds():
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ConfigError):
            FilterPolicy(min_av_align=bad)
        with pytest.raises(ConfigError):
            FilterPolicy(min_semantic=bad)


def test_policy_keep_flags():
    policy = FilterPolicy(drop_speech=False, drop_bgm=False)
    assert drop_reason(_record(speech_flag=True, bgm_flag=True), policy) is None


def test_process_records_partition():
    records = [_record(), _record(clip_id="s", speech_flag=True), _record(clip_id="u", av_align_score=None)]
    result = PipelineResult()
    lines = list(process_records(records, FilterPolicy(), result))
    assert result.kept == ["clipA"]
    assert result.dropped == [("s", "speech"), ("u", "unscored")]
    assert lines == cut(records[0])


# ---------------------------------------------------------------------------
# cutting


def test_cut_segments_in_time_order():
    rec = _record(events=(("thud", 1.0, 1.4), ("hit", 0.2, 0.5)))
    first, second = map(parse_record, cut(rec))
    assert [first.clip_id, second.clip_id] == ["clipA#0", "clipA#1"]
    assert first.events == (("hit", 0.0, pytest.approx(0.3)),)
    assert first.duration == pytest.approx(0.3)
    assert second.events[0][0] == "thud"
    assert second.duration == pytest.approx(0.4)
    # scores and flags are inherited
    assert first.av_align_score == rec.av_align_score
    assert first.semantic_score == rec.semantic_score


def test_cut_full_cover_passes_through_unchanged():
    rec = _record(events=(("roomtone", 0.0, 2.0),))
    assert cut(rec) == [format_record(rec)]  # no renaming


def test_cut_is_idempotent_on_own_output():
    for line in cut(_record()):
        assert cut(parse_record(line)) == [line]


# ---------------------------------------------------------------------------
# pipeline


def test_process_records_conservation():
    policy = FilterPolicy()
    records = [
        _record(),
        _record(clip_id="s", speech_flag=True),
        _record(clip_id="u", av_align_score=None),
        _record(clip_id="b", bgm_flag=True),
        _record(clip_id="low", av_align_score=0.05),
    ]
    result = PipelineResult()
    lines = list(process_records(records, policy, result))
    assert len(result.kept) + len(result.dropped) == len(records)
    assert {reason for _, reason in result.dropped} <= set(DROP_REASONS)
    # every kept record contributes one segment per event
    assert len(lines) == sum(len(r.events) for r in records if r.clip_id in result.kept)


def test_run_pipeline_end_to_end(tmp_path):
    src = str(tmp_path / "in.txt")
    dst = str(tmp_path / "out.txt")
    _write(src, [_record(), _record(clip_id="drop-me", speech_flag=True)])
    # sneak a malformed line into the file
    with open(src, "a", encoding="utf-8") as fh:
        fh.write("garbage line\n")

    result = run_pipeline(src, dst, FilterPolicy())
    assert len(result.parse_problems) == 1
    assert result.kept == ["clipA"]

    back, problems = _read(dst)
    assert problems == []
    assert [r.clip_id for r in back] == ["clipA#0", "clipA#1"]


def test_run_pipeline_idempotent_on_own_output(tmp_path):
    first = str(tmp_path / "first.txt")
    second = str(tmp_path / "second.txt")
    _write(first, [_record()])
    run_pipeline(first, second, FilterPolicy())
    third = str(tmp_path / "third.txt")
    result = run_pipeline(second, third, FilterPolicy())
    assert result.dropped == []
    assert open(second).read() == open(third).read()


def test_render_drop_report_order():
    result = PipelineResult()
    records = [_record(clip_id="u", av_align_score=None), _record(clip_id="s", speech_flag=True)]
    assert list(process_records(records, FilterPolicy(), result)) == []
    lines = render_drop_report(result).splitlines()
    assert lines[0] == "unscored,1"
    assert lines[1] == "alignment,0"
    assert lines[2] == "semantic,0"
    assert lines[3] == "speech,1"
    assert lines[4] == "bgm,0"
    assert lines[5] == "total_dropped,2"
    assert lines[6] == "total_kept,0"


# ---------------------------------------------------------------------------
# the streamed pipeline against the one it replaced


@dataclass(frozen=True, slots=True)
class _OracleRecord:
    """ClipRecord as it was when the pipeline first streamed, frozen here so
    that the oracle below does not move with the code it checks."""

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


def _oracle_parse_record(line: str) -> _OracleRecord:
    """parse_record as it was, building an _OracleRecord."""
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
    return _OracleRecord(
        clip_id,
        float(duration_s),
        events,
        None if av_s == "-" else float(av_s),
        None if sem_s == "-" else float(sem_s),
        speech_s == "1",
        bgm_s == "1",
    )


def _oracle_drop_reason(record: _OracleRecord, policy: FilterPolicy) -> str | None:
    """drop_reason as it was."""
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


def _line(fields: dict) -> str:
    """fields as format_record wrote them, whether or not ClipRecord accepts them."""
    events = ";".join(f"{label}:{start!r}:{end!r}" for label, start, end in fields["events"])
    scores = ["-" if fields[k] is None else repr(float(fields[k])) for k in ("av_align_score", "semantic_score")]
    flags = [str(int(fields["speech_flag"])), str(int(fields["bgm_flag"]))]
    return ",".join([fields["clip_id"], repr(float(fields["duration"])), events, *scores, *flags])


def _oracle_segments(record: _OracleRecord) -> list:
    """cut as it was: one checked record per segment."""
    if len(record.events) == 1 and record.events[0][1:] == (0.0, record.duration):
        return [record]
    segments = []
    for index, (label, start, end) in enumerate(sorted(record.events, key=lambda e: (e[1], e[2]))):
        fields = (record.av_align_score, record.semantic_score, record.speech_flag, record.bgm_flag)
        segments.append(_OracleRecord(f"{record.clip_id}#{index}", end - start, ((label, 0.0, end - start),), *fields))
    return segments


def _oracle_pipeline(src: Path, dst: Path, policy: FilterPolicy):
    """The pipeline as it was: decode and split the whole file, parse every
    record, filter and cut them all, then write. Returns (kept ids, dropped
    pairs, parse problems, drop report)."""
    try:
        text = src.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{src}: manifest is not valid UTF-8 ({exc.reason} at byte {exc.start})") from None
    lines = text.split("\n")
    if lines[0].strip() != MANIFEST_HEADER:
        raise FormatError(f"{src}: first line must be {MANIFEST_HEADER!r}")
    records, problems = [], []
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            records.append(_oracle_parse_record(line))
        except (FormatError, ContractError, ValueError) as exc:
            problems.append((lineno, str(exc)))
    kept, dropped, segments = [], [], []
    for record in records:
        reason = _oracle_drop_reason(record, policy)
        if reason is None:
            kept.append(record.clip_id)
            segments.extend(_oracle_segments(record))
        else:
            dropped.append((record.clip_id, reason))
    dst.write_bytes("".join(f"{line}\n" for line in [MANIFEST_HEADER, *(_line(asdict(s)) for s in segments)]).encode())
    report = [f"{reason},{sum(r == reason for _, r in dropped)}" for reason in DROP_REASONS]
    report += [f"total_dropped,{len(dropped)}", f"total_kept,{len(kept)}"]
    return kept, dropped, problems, "\n".join(report)


def _assert_streams_as_the_oracle(tmp_path, body: bytes) -> None:
    src, want, got = tmp_path / "in.m", tmp_path / "want.m", tmp_path / "got.m"
    src.write_bytes(body)
    want.unlink(missing_ok=True)
    got.unlink(missing_ok=True)
    try:
        kept, dropped, problems, report = _oracle_pipeline(src, want, FilterPolicy())
    except FormatError as exc:
        with pytest.raises(FormatError) as info:
            run_pipeline(str(src), str(got), FilterPolicy())
        assert str(info.value) == str(exc)
        assert sorted(os.listdir(tmp_path)) == ["in.m"]
        return
    result = run_pipeline(str(src), str(got), FilterPolicy())
    assert (result.kept, result.dropped, result.parse_problems) == (kept, dropped, problems)
    assert render_drop_report(result) == report
    assert got.read_bytes() == want.read_bytes()


@st.composite
def _kept_fields(draw):
    """Fields of a record that the default policy keeps, if ClipRecord accepts it."""
    duration = draw(st.floats(0.0, 1e6, exclude_min=True))
    events = [("whole", 0.0, duration)] if draw(st.integers(0, 4)) == 0 else []
    while not events or (len(events) < 3 and draw(st.booleans())):
        start, end = sorted([draw(st.floats(0.0, duration)), draw(st.floats(0.0, duration))])
        events.append((draw(st.sampled_from(["hit", "thud", "door"])), start, end))
    return dict(
        clip_id=draw(st.from_regex(r"[a-z0-9][a-z0-9#_.-]{0,5}", fullmatch=True)),
        duration=duration,
        events=tuple(events),
        av_align_score=draw(st.floats(0.2, 1.0)),
        semantic_score=draw(st.floats(0.3, 1.0)),
        speech_flag=False,
        bgm_flag=False,
    )


# places in a line, and bad texts for each
_FAULTS = {
    "id": ["", "#c", "c\x0cd", "c\u2028d"],
    "duration": ["2.0x", "", "0", "-1.0", "inf", "nan"],
    "label": ["", "a\x0cb", "a\x85b"],
    "span": ["0.x:1.0", "0.0:", "2e6:1e6", "0.0:2e6", "0.0:nan"],
    "extra-event": [";door:1.0", ";door"],
    "av": ["high", "1.5", "nan", "-0.25"],
    "semantic": ["high", "1.5", "nan", "-0.25"],
    "speech": ["2", "", "yes"],
    "bgm": ["2", ""],
    "extra-field": [",extra"],
}


@st.composite
def _faulty_line(draw):
    """A line of a kept record with two to four places made bad, such as a
    bad float and a bad flag, a bad id and a bad span, or an out-of-range
    score and a bad label, so that which fault is reported first is pinned."""
    fields = draw(_kept_fields())
    places = draw(st.lists(st.sampled_from(sorted(_FAULTS)), min_size=2, max_size=4, unique=True))
    bad = {place: draw(st.sampled_from(_FAULTS[place])) for place in places}
    (label, start, end), *rest = fields["events"]
    events = f"{bad.get('label', label)}:{bad.get('span', f'{start!r}:{end!r}')}"
    events += "".join(f";{label}:{start!r}:{end!r}" for label, start, end in rest) + bad.get("extra-event", "")
    line = [
        bad.get("id", fields["clip_id"]),
        bad.get("duration", repr(fields["duration"])),
        events,
        bad.get("av", repr(fields["av_align_score"])),
        bad.get("semantic", repr(fields["semantic_score"])),
        bad.get("speech", "0"),
        bad.get("bgm", "0"),
    ]
    return ",".join(line) + bad.get("extra-field", "")


def _outcome(parse, line: str):
    try:
        record = parse(line)
    except (FormatError, ContractError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return tuple(getattr(record, name) for name in ClipRecord._fields)


@settings(max_examples=200, deadline=None)
@given(line=_faulty_line())
def test_parse_record_reports_the_first_of_several_faults_as_before(line):
    assert _outcome(parse_record, line) == _outcome(_oracle_parse_record, line)


@st.composite
def _manifest_bytes(draw):
    """A header (now and then a wrong one), then records, lines that fail to
    parse (some with several faults), comments and blank lines, each ended by "\n", "\r\n" or a lone
    "\r", and now and then a byte that is not UTF-8 mid-line, at the end of a
    line or at the end of the file; one time in three a long comment first."""
    lines = [draw(st.sampled_from([MANIFEST_HEADER] * 4 + [" " + MANIFEST_HEADER, "#ysnd-manifest v2", ""]))]
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.integers(0, 6))
        if kind < 2:
            lines.append(_line(draw(_kept_fields() if kind else _record_fields())))
        elif kind == 6:
            lines.append(draw(_faulty_line()))
        elif kind == 2:
            lines.append(draw(st.sampled_from(["", " \t", "# a comment", "  #indented"])))
        elif kind == 3:
            lines.append(draw(_manifest_like.map(bytes.decode)))
        else:
            lines.append(format_record(_record(clip_id=draw(st.sampled_from(["a", "b#0", "c.1"])))))
    if draw(st.integers(0, 2)) == 0:  # what follows starts near or past the end of the first 8 KiB read
        lines.insert(1, "#" + "x" * draw(st.integers(8_150, 8_300)))
    ends = st.sampled_from([b"\n", b"\r\n", b"\r"])
    body = b"".join(line.encode() + draw(ends) for line in lines)
    body = body if draw(st.booleans()) else body.rstrip(b"\r\n")
    bad = draw(st.sampled_from([b"\xff", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80"]))
    where = draw(st.sampled_from(["nowhere"] * 5 + ["mid-line", "end-of-line", "end-of-file"]))
    if where == "mid-line":
        at = draw(st.integers(0, len(body)))
        body = body[:at] + bad + body[at:]
    elif where == "end-of-line":
        ends_at = [i for i, byte in enumerate(body) if byte in b"\r\n"] or [len(body)]
        at = draw(st.sampled_from(ends_at))
        body = body[:at] + bad + body[at:]
    elif where == "end-of-file":
        body += bad
    return body


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(body=_manifest_bytes())
def test_streamed_pipeline_gives_what_reading_everything_first_gave(tmp_path, body):
    _assert_streams_as_the_oracle(tmp_path, body)


@pytest.mark.parametrize("pad", range(8_168, 8_180))
@pytest.mark.parametrize("tail", [b"", b"\xff"], ids=["utf8", "bad-byte"])
@pytest.mark.parametrize("header", [MANIFEST_HEADER, "#ysnd-manifest v2"], ids=["header", "bad-header"])
def test_streamed_pipeline_gives_the_same_across_read_chunks(tmp_path, pad, tail, header):
    # a "\r\n", a lone "\r" and a two-byte character where the reader's
    # first 8 KiB read ends, and a bad byte two reads later, which a wrong
    # header does not hide
    body = (
        header.encode() + b"\n#" + b"x" * pad + b"\r\nc\xc3\xa9,2.0,hit:0.5:1.0,0.5,0.5,0,0\r"
        + b"c2,2.0,\xc3\xa9:0.0:2.0,0.5,0.5,0,0\rbroken\n#" + b"y" * 10_000 + b"\n" + tail + b"c3,1.0,,-,-,0,0\n"
    )
    _assert_streams_as_the_oracle(tmp_path, body)


@settings(max_examples=300, deadline=None)
@given(fields=_record_fields() | _kept_fields())
def test_every_segment_line_is_the_checked_record_cut_once_built(fields):
    try:
        oracle = _OracleRecord(**fields)
    except ContractError:
        with pytest.raises(ContractError):
            ClipRecord(**fields)
        return
    record = ClipRecord(**fields)
    assert record._asdict() == asdict(oracle)
    lines = cut(record)
    assert lines == [_line(asdict(segment)) for segment in _oracle_segments(oracle)]
    for line in lines:
        assert format_record(parse_record(line)) == line  # parse_record builds a ClipRecord, so its checks pass
