"""Container files: bit-exact round-trips and corruption rejection."""

import math
import os
import struct
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foleyflow import container
from foleyflow.errors import DivergenceError, FormatError
from foleyflow.model import ModelConfig, TwoTowerModel
from foleyflow.providers import ToyClip
from foleyflow.rng import SeededRng
from foleyflow.training import TAG_T2A, OptimizerConfig, run_stage, stage_preset


def _arrays():
    rng = np.random.default_rng(0)
    return {
        "weights": rng.normal(size=(3, 4)),
        "bias": rng.normal(size=(4,)),
        "scalar-ish": rng.normal(size=(1,)),
        "pi/digits": np.array([3.141592653589793, 2.718281828459045]),
    }


def _config():
    return {
        "d_model": 32,
        "n_layers": 2,
        "n_heads": 4,
        "d_audio_latent": 16,
        "d_video_feat": 16,
        "d_text": 16,
        "t_audio": 32,
    }


def test_latents_roundtrip_bit_exact(tmp_path):
    path = str(tmp_path / "x.ysnd")
    arrays = _arrays()
    container.write_latents(path, arrays)
    loaded = aout = container.read_latents(path)
    assert set(loaded) == set(arrays)
    for name in arrays:
        assert loaded[name].shape == arrays[name].shape
        # bit-exact, not just close
        assert loaded[name].tobytes() == np.ascontiguousarray(arrays[name]).tobytes()
    assert aout["pi/digits"][0] == 3.141592653589793


def test_checkpoint_roundtrip(tmp_path):
    path = str(tmp_path / "m.ckpt")
    arrays = _arrays()
    container.write_checkpoint(path, _config(), arrays)
    fields, loaded = container.read_checkpoint(path)
    assert fields == _config()
    for name in arrays:
        assert loaded[name].tobytes() == np.ascontiguousarray(arrays[name]).tobytes()


def test_write_is_deterministic(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    arrays = _arrays()
    container.write_latents(a, arrays)
    container.write_latents(b, arrays)
    assert open(a, "rb").read() == open(b, "rb").read()


def test_empty_record_set(tmp_path):
    path = str(tmp_path / "empty.ysnd")
    container.write_latents(path, {})
    assert container.read_latents(path) == {}


def test_bad_magic_rejected(tmp_path):
    path = str(tmp_path / "bad")
    with open(path, "wb") as fh:
        fh.write(b"NOPE" + struct.pack("<I", 1) + struct.pack("<I", 0))
    with pytest.raises(FormatError, match="magic"):
        container.read_latents(path)


def test_bad_version_rejected(tmp_path):
    path = str(tmp_path / "bad")
    with open(path, "wb") as fh:
        fh.write(container.MAGIC + struct.pack("<I", 99) + struct.pack("<I", 0))
    with pytest.raises(FormatError, match="version"):
        container.read_latents(path)


def test_truncation_rejected(tmp_path):
    path = str(tmp_path / "x.ysnd")
    container.write_latents(path, _arrays())
    blob = open(path, "rb").read()
    clipped = str(tmp_path / "clipped.ysnd")
    with open(clipped, "wb") as fh:
        fh.write(blob[:-5])
    with pytest.raises(FormatError, match="truncated"):
        container.read_latents(clipped)


def test_trailing_bytes_rejected(tmp_path):
    path = str(tmp_path / "x.ysnd")
    container.write_latents(path, _arrays())
    blob = open(path, "rb").read()
    padded = str(tmp_path / "padded.ysnd")
    with open(padded, "wb") as fh:
        fh.write(blob + b"\x00")
    with pytest.raises(FormatError, match="trailing"):
        container.read_latents(padded)


def test_implausible_name_length_rejected(tmp_path):
    path = str(tmp_path / "bad")
    with open(path, "wb") as fh:
        fh.write(container.MAGIC + struct.pack("<I", container.VERSION))
        fh.write(struct.pack("<I", 1))  # one record
        fh.write(struct.pack("<I", 2**31))  # absurd name length
    with pytest.raises(FormatError, match="name length"):
        container.read_latents(path)


def test_implausible_rank_rejected(tmp_path):
    path = str(tmp_path / "bad")
    with open(path, "wb") as fh:
        fh.write(container.MAGIC + struct.pack("<I", container.VERSION))
        fh.write(struct.pack("<I", 1))
        fh.write(struct.pack("<I", 1) + b"x")
        fh.write(struct.pack("<I", 200))  # rank 200
    with pytest.raises(FormatError, match="rank"):
        container.read_latents(path)


def test_checkpoint_header_not_readable_as_latents(tmp_path):
    # a checkpoint starts with the config block where a latent file has its
    # record count, so reading it as latents must fail loudly, not quietly
    path = str(tmp_path / "m.ckpt")
    container.write_checkpoint(path, _config(), {})
    with pytest.raises(FormatError):
        container.read_latents(path)


def _one_record_file(path, name_bytes, shape, payload=b"", extra_records=0):
    with open(path, "wb") as fh:
        fh.write(container.MAGIC + struct.pack("<I", container.VERSION))
        fh.write(struct.pack("<I", 1 + extra_records))
        for _ in range(1 + extra_records):
            fh.write(struct.pack("<I", len(name_bytes)) + name_bytes)
            fh.write(struct.pack("<I", len(shape)) + struct.pack(f"<{len(shape)}I", *shape))
            fh.write(payload)


def test_overflowing_shape_rejected(tmp_path):
    # 2**64 elements: an int64 element count wraps to zero
    path = str(tmp_path / "bad")
    _one_record_file(path, b"w", (2**16,) * 4)
    with pytest.raises(FormatError, match="truncated"):
        container.read_latents(path)


def test_empty_record_with_unaddressable_shape_rejected(tmp_path):
    path = str(tmp_path / "bad")
    _one_record_file(path, b"w", (0,) + (2**32 - 1,) * 3)
    with pytest.raises(FormatError, match="shape"):
        container.read_latents(path)


def test_non_utf8_record_name_rejected(tmp_path):
    path = str(tmp_path / "bad")
    _one_record_file(path, b"\xff\xfe", (1,), payload=b"\x00" * 8)
    with pytest.raises(FormatError, match="utf-8"):
        container.read_latents(path)


def test_duplicate_record_name_rejected(tmp_path):
    path = str(tmp_path / "bad")
    _one_record_file(path, b"w", (1,), payload=b"\x00" * 8, extra_records=1)
    with pytest.raises(FormatError, match="duplicate"):
        container.read_latents(path)


@pytest.mark.parametrize("kind", ["latents", "checkpoint"])
@pytest.mark.parametrize("version", [0, 1, 3])
def test_other_versions_are_format_errors(tmp_path, version, kind):
    path = str(tmp_path / "x.ysnd")
    if kind == "latents":
        container.write_latents(path, _arrays())
        read = container.read_latents
    else:
        container.write_checkpoint(path, _config(), _arrays())
        read = container.read_checkpoint
    blob = open(path, "rb").read()
    with open(path, "wb") as fh:
        fh.write(blob[:4] + struct.pack("<I", version) + blob[8:])
    with pytest.raises(FormatError, match=f"version {version}"):
        read(path)


TINY = ModelConfig(d_model=4, n_layers=1, n_heads=1, d_audio_latent=2, d_video_feat=2, d_text=2, t_audio=2)


def _diverging_stage(path):
    """run_stage on a clip of inf, so step 1 diverges and saves to path."""
    bad = ToyClip(
        clip_id="bad",
        x1=np.full((TINY.t_audio, TINY.d_audio_latent), np.inf),
        text_emb=np.zeros((2, TINY.d_text)),
        video_feat=np.zeros((TINY.t_audio, TINY.d_video_feat)),
    )
    model, stage, opt = TwoTowerModel(TINY, seed=0), stage_preset(1, steps=1), OptimizerConfig(lr=1e-3, batch_size=1)
    run_stage(model, stage, opt, {TAG_T2A: [bad]}, SeededRng(0), sink=None, start_step=0, checkpoint_path=path)


WRITERS = {
    "latents": lambda path: container.write_latents(path, _arrays()),
    "checkpoint": lambda path: container.write_checkpoint(path, _config(), _arrays()),
    "divergence save": _diverging_stage,
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the inf clip floods the forward pass
@pytest.mark.parametrize("fail", ["_pack_records", "fsync"])
@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_a_write_that_fails_part_way_leaves_the_earlier_file(tmp_path, monkeypatch, writer, fail):
    # the header is already in the temporary file when _pack_records
    # raises, and all of the bytes are when fsync does
    path = tmp_path / "stage1.ckpt"
    path.write_bytes(b"an earlier run's checkpoint")

    def boom(*args):
        raise OSError("disk full")

    monkeypatch.setattr(container if fail == "_pack_records" else os, fail, boom)
    with pytest.raises(OSError, match="disk full") as err:
        WRITERS[writer](str(path))
    assert isinstance(err.value.__context__, DivergenceError) == (writer == "divergence save")
    assert path.read_bytes() == b"an earlier run's checkpoint"
    assert os.listdir(tmp_path) == ["stage1.ckpt"]


def _tree(root) -> dict:
    """Name -> bytes of every entry under root, None for a directory."""
    return {str(p.relative_to(root)): None if p.is_dir() else p.read_bytes() for p in sorted(root.rglob("*"))}


@settings(max_examples=60, deadline=None)
@given(earlier=st.lists(st.none() | st.binary(max_size=8), min_size=1, max_size=6), data=st.data())
def test_an_output_set_renames_every_file_or_none(tmp_path_factory, earlier, data):
    # each of N paths holds earlier bytes or is absent; a failure at file k,
    # an exception in its block or a directory at its path, leaves every
    # path as it was, and only one temporary file is ever open
    fail = data.draw(st.none() | st.tuples(st.integers(0, len(earlier) - 1), st.sampled_from(["raise", "directory"])))
    root = tmp_path_factory.mktemp("set")
    for i, blob in enumerate(earlier):
        if fail == (i, "directory"):
            (root / f"f{i}").mkdir()
        elif blob is not None:
            (root / f"f{i}").write_bytes(blob)
    before = _tree(root)
    handles = []

    def one_at_a_time(*args, **kwargs):
        assert all(h.closed for h in handles)
        handles.append(open(*args, **kwargs))
        return handles[-1]

    with mock.patch.object(container, "open", one_at_a_time, create=True):
        try:
            with container.output_set():
                for i in range(len(earlier)):
                    with container.replacing(str(root / f"f{i}"), binary=True) as out:
                        out.write(b"new %d" % i)
                        if fail == (i, "raise"):
                            raise OSError("disk full")
        except OSError:  # IsADirectoryError included
            assert fail is not None
            assert _tree(root) == before
        else:
            assert fail is None
            assert _tree(root) == {f"f{i}": b"new %d" % i for i in range(len(earlier))}


def test_a_rename_that_fails_part_way_keeps_what_it_renamed(tmp_path, monkeypatch):
    # the second of three renames fails: the first file has its new bytes,
    # the other two their old ones, and no temporary file is left
    paths = [tmp_path / name for name in "abc"]
    for path in paths:
        path.write_text("old")
    renames = []

    def second_fails(src, dst):
        renames.append(dst)
        if len(renames) == 2:
            raise OSError("disk full")
        os.rename(src, dst)

    monkeypatch.setattr(os, "replace", second_fails)
    with pytest.raises(OSError, match="disk full"):
        with container.output_set():
            for path in paths:
                with container.replacing(str(path)) as out:
                    out.write("new")
    assert _tree(tmp_path) == {"a": b"new", "b": b"old", "c": b"old"}


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """A scratch directory and the bytes of a written latent file and checkpoint."""
    root = tmp_path_factory.mktemp("fuzz")
    container.write_latents(str(root / "x.ysnd"), _arrays())
    tiny = ModelConfig(d_model=4, n_layers=1, n_heads=1, d_audio_latent=2, d_video_feat=2, d_text=2, t_audio=2)
    TwoTowerModel(tiny, seed=0).save(str(root / "m.ckpt"))
    return root, {name: (root / name).read_bytes() for name in ("x.ysnd", "m.ckpt")}


@settings(max_examples=150, deadline=None)
@given(
    name=st.sampled_from(["x.ysnd", "m.ckpt"]),
    damage=st.sampled_from(["truncate", "flip", "version"]),
    at=st.integers(0, 39) | st.integers(0, 2**32 - 1),  # a checkpoint's header half the time
    mask=st.integers(1, 255),
)
def test_damaged_containers_read_or_raise_format_error(written, name, damage, at, mask):
    # a file cut at any length, with any one byte flipped or with any
    # version word, reads or raises FormatError, whichever reader opens it
    root, blobs = written
    blob = blobs[name]
    i = at % len(blob)
    if damage == "truncate":
        blob = blob[:i]
    elif damage == "flip":
        blob = blob[:i] + bytes([blob[i] ^ mask]) + blob[i + 1 :]
    else:
        blob = blob[:4] + struct.pack("<I", at) + blob[8:]
    path = root / "damaged"
    path.write_bytes(blob)
    for read in (container.read_latents, container.read_checkpoint, TwoTowerModel.load):
        try:
            read(str(path))
        except FormatError:
            continue
        assert blob[4:8] == struct.pack("<I", container.VERSION), (read.__qualname__, blob[4:8])


# ---------------------------------------------------------------------------
# the reader against the one it replaced


class _OracleReader:
    """The reader as it was before it unpacked each field group with one
    precompiled struct, frozen here so that the oracle below does not move
    with the code it checks."""

    def __init__(self, blob: bytes, path: str):
        self.blob = blob
        self.pos = 0
        self.path = path

    def skip(self, n: int) -> int:
        start = self.pos
        if start + n > len(self.blob):
            raise FormatError(f"{self.path}: truncated file (needed {n} bytes at offset {start})")
        self.pos = start + n
        return start

    def take(self, n: int) -> bytes:
        start = self.skip(n)
        return self.blob[start : self.pos]

    def u32s(self, count: int) -> tuple:
        return struct.unpack_from(f"<{count}I", self.blob, self.skip(4 * count))

    def u32(self) -> int:
        return self.u32s(1)[0]


def _oracle_read(path: str) -> _OracleReader:
    with open(path, "rb") as fh:
        r = _OracleReader(fh.read(), path)
    if r.take(4) != container.MAGIC:
        raise FormatError(f"{r.path}: bad magic, not a container file")
    version = r.u32()
    if version != container.VERSION:
        raise FormatError(f"{r.path}: unsupported container version {version}")
    return r


def _oracle_unpack_records(r: _OracleReader) -> dict:
    count = r.u32()
    arrays: dict = {}
    for _ in range(count):
        name_len = r.u32()
        if name_len > 4096:
            raise FormatError(f"{r.path}: implausible record name length {name_len}")
        try:
            name = r.take(name_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{r.path}: record name is not valid utf-8 ({exc.reason})") from None
        if name in arrays:
            raise FormatError(f"{r.path}: duplicate record name {name!r}")
        ndim = r.u32()
        if ndim > 8:
            raise FormatError(f"{r.path}: implausible record rank {ndim}")
        shape = r.u32s(ndim)
        count = math.prod(shape)
        start = r.skip(8 * count)
        try:
            arrays[name] = np.frombuffer(r.blob, "<f8", count, start).reshape(shape).astype(np.float64)
        except ValueError as exc:
            raise FormatError(f"{r.path}: record {name!r} has unusable shape {shape}: {exc}") from None
    if r.pos != len(r.blob):
        raise FormatError(f"{r.path}: {len(r.blob) - r.pos} trailing bytes after last record")
    return arrays


def _oracle_read_latents(path: str) -> dict:
    return _oracle_unpack_records(_oracle_read(path))


def _oracle_read_checkpoint(path: str) -> tuple:
    r = _oracle_read(path)
    fields = {name: struct.unpack("<i", r.take(4))[0] for name in container.CONFIG_INT_FIELDS}
    return fields, _oracle_unpack_records(r)


def _records(arrays: dict) -> list:
    """Name, shape, dtype and bits of each record, in file order."""
    return [(name, a.shape, a.dtype, a.tobytes()) for name, a in arrays.items()]


def _outcome(read, path: str):
    """What read makes of path: its records (and config fields), or the type and text of its error."""
    try:
        got = read(path)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return (got[0], _records(got[1])) if isinstance(got, tuple) else _records(got)


# record names with non-ASCII letters; shapes of rank 0-8, empty ones included
_NAMES = st.text(st.characters(codec="utf-8", exclude_categories=["Cs"]), max_size=6)
_SHAPES = st.lists(st.integers(0, 2), max_size=8).map(tuple)
_RECORDS = st.dictionaries(_NAMES, _SHAPES, max_size=4)
_I32 = st.integers(-(2**31), 2**31 - 1)


def _filled(shapes: dict, seed: int) -> dict:
    """Arrays of the given shapes holding any float64 bits, NaN payloads and infinities included."""
    rng = np.random.default_rng(seed)
    return {
        name: np.frombuffer(rng.bytes(8 * math.prod(shape)), np.float64).reshape(shape)
        for name, shape in shapes.items()
    }


@settings(max_examples=60, deadline=None)
@given(shapes=_RECORDS, seed=st.integers(0, 2**32 - 1), config=st.lists(_I32, min_size=7, max_size=7))
def test_what_is_written_reads_back_bit_exact(tmp_path_factory, shapes, seed, config):
    root = tmp_path_factory.mktemp("roundtrip")
    arrays = _filled(shapes, seed)
    container.write_latents(str(root / "x.ysnd"), arrays)
    assert _records(container.read_latents(str(root / "x.ysnd"))) == _records(arrays)
    fields = dict(zip(container.CONFIG_INT_FIELDS, config))
    container.write_checkpoint(str(root / "m.ckpt"), fields, arrays)
    assert _outcome(container.read_checkpoint, str(root / "m.ckpt")) == (fields, _records(arrays))


@settings(max_examples=150, deadline=None)
@given(
    shapes=_RECORDS,
    seed=st.integers(0, 2**32 - 1),
    config=st.lists(_I32, min_size=7, max_size=7),
    checkpoint=st.booleans(),
    damage=st.sampled_from([None, "truncate", "flip", "extend"]),
    at=st.integers(0, 2**32 - 1),
    mask=st.integers(1, 255),
    tail=st.binary(min_size=1, max_size=12),
)
def test_the_reader_agrees_with_the_one_it_replaced(tmp_path_factory, shapes, seed, config, checkpoint, damage, at, mask, tail):
    # a written latent file or checkpoint, whole, cut at any length, with any
    # one byte flipped or with bytes appended, gives the same records, names
    # and bits, or the same error text, to either reader, whichever it opens
    path = tmp_path_factory.mktemp("oracle") / "f"
    if checkpoint:
        container.write_checkpoint(str(path), dict(zip(container.CONFIG_INT_FIELDS, config)), _filled(shapes, seed))
    else:
        container.write_latents(str(path), _filled(shapes, seed))
    blob = path.read_bytes()
    i = at % len(blob)
    if damage == "truncate":
        blob = blob[:i]
    elif damage == "flip":
        blob = blob[:i] + bytes([blob[i] ^ mask]) + blob[i + 1 :]
    elif damage == "extend":
        blob += tail
    path.write_bytes(blob)
    path = str(path)
    assert _outcome(container.read_latents, path) == _outcome(_oracle_read_latents, path)
    assert _outcome(container.read_checkpoint, path) == _outcome(_oracle_read_checkpoint, path)


def _crafted(tmp_path) -> list:
    """Paths of files that reach each of the reader's errors, which damage
    to a written file reaches rarely or never."""
    paths = []
    for i, (name_bytes, shape, payload, extra) in enumerate(
        [
            (b"\xff\xfe", (1,), b"\x00" * 8, 0),  # not utf-8
            (b"w", (1,), b"\x00" * 8, 1),  # duplicate name
            (b"w", (0,) + (2**32 - 1,) * 3, b"", 0),  # unusable empty shape
            (b"w", (2**16,) * 4, b"", 0),  # 2**64 elements
            ("\u00e9\u4e2d".encode(), (), b"\x01" * 8, 0),  # a rank-0 record
        ]
    ):
        paths.append(tmp_path / f"record{i}")
        _one_record_file(paths[-1], name_bytes, shape, payload, extra)
    header = container.MAGIC + struct.pack("<I", container.VERSION) + struct.pack("<7i", *range(7))
    for n in range(len(header) + 5):  # every cut of a checkpoint's header, and of its record count
        paths.append(tmp_path / f"cut{n}")
        paths[-1].write_bytes((header + struct.pack("<I", 0))[:n])
    return [str(path) for path in paths]


def test_the_reader_agrees_with_the_one_it_replaced_on_crafted_files(tmp_path):
    for path in _crafted(tmp_path):
        assert _outcome(container.read_latents, path) == _outcome(_oracle_read_latents, path)
        assert _outcome(container.read_checkpoint, path) == _outcome(_oracle_read_checkpoint, path)


def test_a_latent_file_takes_one_read_and_one_that_sees_its_end(tmp_path, monkeypatch):
    path = str(tmp_path / "x.ysnd")
    container.write_latents(path, _arrays())
    sizes = []
    real_read = os.read

    def counted(fd, n):
        got = real_read(fd, n)
        sizes.append(len(got))
        return got

    monkeypatch.setattr(os, "read", counted)
    container.read_latents(path)
    assert sizes == [os.path.getsize(path), 0]


def _big_checkpoint(path) -> dict:
    """Write a checkpoint three reads long; return its arrays."""
    arrays = {"big": np.arange(3 * container._SMALL // 8, dtype=np.float64), **_arrays()}
    container.write_checkpoint(str(path), _config(), arrays)
    return arrays


def test_a_file_larger_than_one_read_reads_whole(tmp_path):
    arrays = _big_checkpoint(tmp_path / "m.ckpt")
    assert _outcome(container.read_checkpoint, str(tmp_path / "m.ckpt")) == (_config(), _records(arrays))


def test_a_pipe_that_cannot_rewind_keeps_what_was_read(tmp_path):
    arrays = _big_checkpoint(tmp_path / "m.ckpt")
    blob = (tmp_path / "m.ckpt").read_bytes()
    path = str(tmp_path / "fifo")
    os.mkfifo(path)

    def feed():
        with open(path, "wb") as fh:
            fh.write(blob)

    feeder = threading.Thread(target=feed, daemon=True)
    feeder.start()
    assert _outcome(container.read_checkpoint, path) == (_config(), _records(arrays))
    feeder.join(timeout=10)
    assert not feeder.is_alive()


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_an_unreadable_path_raises_what_open_raises(tmp_path, kind):
    path = tmp_path / "x.ysnd"
    if kind == "directory":
        path.mkdir()
    with pytest.raises(OSError) as expected:
        open(path, "rb")
    for read in (container.read_latents, container.read_checkpoint):
        with pytest.raises(OSError) as got:
            read(path)
        assert (type(got.value), str(got.value)) == (type(expected.value), str(expected.value))
