"""Container files: bit-exact round-trips and corruption rejection."""

import math
import os
import struct
import threading
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from foleyflow import container
from foleyflow.errors import ContractError, DivergenceError, FormatError
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
    return (32, 2, 4, 16, 16, 16, 32)


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


def _sealed(path, body: bytes) -> None:
    """Write body and its CRC-32 to path, so that a reader reaches the
    structure of a crafted file."""
    with open(path, "wb") as fh:
        fh.write(body + struct.pack("<I", zlib.crc32(body)))


_HEAD = container.MAGIC + struct.pack("<I", container.VERSION)


def test_trailing_bytes_rejected(tmp_path):
    path = str(tmp_path / "x.ysnd")
    container.write_latents(path, _arrays())
    blob = open(path, "rb").read()
    padded = str(tmp_path / "padded.ysnd")
    _sealed(padded, blob[:-4] + b"\x00")
    with pytest.raises(FormatError, match="1 trailing bytes"):
        container.read_latents(padded)


@pytest.mark.parametrize(
    "body, needed, at",
    [
        (container.MAGIC + b"\x03\x00", 4, 4),  # inside the version, unsealed
        (_HEAD + struct.pack("<I", 1) + b"\x05\x00", 4, 12),  # inside a record's name length
        (_HEAD + struct.pack("<II", 1, 3) + b"ab", 11, 16),  # inside its name, dtype code and rank
        (_HEAD + struct.pack("<II", 1, 1) + b"x" + struct.pack("<III", 0, 2, 5), 8, 25),  # inside its shape
    ],
)
def test_a_file_that_ends_inside_a_field_names_the_bytes_it_lacks(tmp_path, body, needed, at):
    path = str(tmp_path / "bad")
    if len(body) < 8:
        (tmp_path / "bad").write_bytes(body)
    else:
        _sealed(path, body)
    with pytest.raises(FormatError) as info:
        container.read_latents(path)
    assert str(info.value) == f"{path}: truncated file (needed {needed} bytes at offset {at})"


def test_implausible_name_length_rejected(tmp_path):
    path = str(tmp_path / "bad")
    _sealed(path, _HEAD + struct.pack("<I", 1) + struct.pack("<I", 2**31))  # one record, absurd name length
    with pytest.raises(FormatError, match="name length"):
        container.read_latents(path)


def test_implausible_rank_rejected(tmp_path):
    path = str(tmp_path / "bad")
    _sealed(path, _HEAD + struct.pack("<I", 1) + struct.pack("<I", 1) + b"x" + struct.pack("<II", 0, 200))  # rank 200
    with pytest.raises(FormatError, match="rank"):
        container.read_latents(path)


def test_unknown_dtype_code_rejected(tmp_path):
    path = str(tmp_path / "bad")
    _sealed(path, _HEAD + struct.pack("<I", 1) + struct.pack("<I", 1) + b"x" + struct.pack("<III", 2, 1, 1) + b"\x00" * 8)
    with pytest.raises(FormatError, match="record 'x' has unknown dtype code 2"):
        container.read_latents(path)


def test_a_checkpoint_reads_as_latents_with_its_config_record(tmp_path):
    # one layout: a checkpoint is a latent file whose first record is the config
    path = str(tmp_path / "m.ckpt")
    container.write_checkpoint(path, _config(), _arrays())
    records = container.read_latents(path)
    assert list(records) == ["config", *_arrays()]
    assert records["config"].dtype == np.int64
    assert records["config"].tolist() == list(_config())


@pytest.mark.parametrize(
    "config",
    [None, np.arange(7.0), np.arange(7).reshape(7, 1), np.array(7)],
    ids=["absent", "float64", "rank 2", "rank 0"],
)
def test_a_file_without_a_well_formed_config_record_is_not_a_checkpoint(tmp_path, config):
    # a latent file has no config record; a crafted one may have a bad one.
    # How many ints a config holds is the model's to check (test_model)
    path = str(tmp_path / "x.ysnd")
    if config is None:
        container.write_latents(path, _arrays())
    else:
        container._write(path, {"config": config, **_arrays()})
    with pytest.raises(FormatError, match="no config record of int64 values"):
        container.read_checkpoint(path)


def test_a_checkpoint_parameter_record_of_another_dtype_is_refused_by_name(tmp_path):
    # only the config record holds ints; an <i8 parameter would load as floats
    path = str(tmp_path / "m.ckpt")
    container._write(path, {"config": np.array(_config()), **_arrays(), "out_proj.b": np.arange(4, dtype=np.int64)})
    with pytest.raises(FormatError, match=r"m\.ckpt: parameter record 'out_proj\.b' is not float64"):
        container.read_checkpoint(path)


def test_a_checkpoint_cannot_name_a_parameter_config(tmp_path):
    path = tmp_path / "m.ckpt"
    with pytest.raises(ContractError, match="'config'"):
        container.write_checkpoint(str(path), _config(), {"config": np.zeros(7)})
    assert not path.exists()


def _one_record_file(path, name_bytes, shape, payload=b"", extra_records=0):
    """A latent file of float64 records, sealed with its CRC."""
    record = struct.pack("<I", len(name_bytes)) + name_bytes
    record += struct.pack(f"<II{len(shape)}I", 0, len(shape), *shape) + payload
    _sealed(path, _HEAD + struct.pack("<I", 1 + extra_records) + record * (1 + extra_records))


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
@pytest.mark.parametrize("version", [0, 1, 2])
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
@pytest.mark.parametrize("fail", ["crc32", "fsync"])
@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_a_write_that_fails_part_way_leaves_the_earlier_file(tmp_path, monkeypatch, writer, fail):
    # the records are already in the temporary file when crc32 raises, and
    # all of the bytes are when fsync does
    path = tmp_path / "stage1.ckpt"
    path.write_bytes(b"an earlier run's checkpoint")

    def boom(*args):
        raise OSError("disk full")

    monkeypatch.setattr(zlib if fail == "crc32" else os, fail, boom)
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
    damage=st.sampled_from(["truncate", "flip", "version", "extend"]),
    at=st.integers(0, 39) | st.integers(0, 2**32 - 1),  # the header half the time
    mask=st.integers(1, 255),
    tail=st.binary(min_size=1, max_size=12),
)
def test_damaged_containers_read_or_raise_format_error(written, name, damage, at, mask, tail):
    # a file cut at any length, with any one byte flipped, with any other
    # version word or with bytes appended raises FormatError, whichever
    # reader opens it
    assume(damage != "version" or at != container.VERSION)
    root, blobs = written
    blob = blobs[name]
    i = at % len(blob)
    if damage == "truncate":
        blob = blob[:i]
    elif damage == "flip":
        blob = blob[:i] + bytes([blob[i] ^ mask]) + blob[i + 1 :]
    elif damage == "version":
        blob = blob[:4] + struct.pack("<I", at) + blob[8:]
    else:
        blob += tail
    path = root / "damaged"
    path.write_bytes(blob)
    for read in (container.read_latents, container.read_checkpoint, TwoTowerModel.load):
        with pytest.raises(FormatError):
            read(str(path))


def _records(arrays: dict) -> list:
    """Name, shape, dtype and bits of each record, in file order."""
    return [(name, a.shape, a.dtype, a.tobytes()) for name, a in arrays.items()]


def _outcome(read, path: str):
    """What read makes of path: its records (and config ints), or the type and text of its error."""
    try:
        got = read(path)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return (got[0], _records(got[1])) if isinstance(got, tuple) else _records(got)


# record names with non-ASCII letters, but not a checkpoint's own "config";
# shapes of rank 0-8, empty ones included; either record dtype
_NAMES = st.text(st.characters(codec="utf-8", exclude_categories=["Cs"]), max_size=6).filter(lambda n: n != "config")
_SHAPES = st.lists(st.integers(0, 2), max_size=8).map(tuple)
_RECORDS = st.dictionaries(_NAMES, st.tuples(_SHAPES, st.sampled_from(["<f8", "<i8"])), max_size=4)
_I64 = st.integers(-(2**63), 2**63 - 1)


def _filled(records: dict, seed: int) -> dict:
    """Arrays of the given shapes and dtypes holding any bits, NaN payloads and infinities included."""
    rng = np.random.default_rng(seed)
    return {
        name: np.frombuffer(rng.bytes(8 * math.prod(shape)), dtype).reshape(shape)
        for name, (shape, dtype) in records.items()
    }


@settings(max_examples=60, deadline=None)
@given(records=_RECORDS, seed=st.integers(0, 2**32 - 1), config=st.lists(_I64, max_size=9).map(tuple))
def test_what_is_written_reads_back_bit_exact(tmp_path_factory, records, seed, config):
    root = tmp_path_factory.mktemp("roundtrip")
    arrays = _filled(records, seed)
    container.write_latents(str(root / "x.ysnd"), arrays)
    # both writers store float64 records, so they convert int64 values;
    # a checkpoint's config record holds its int64 values as they are
    floats = {name: arr.astype(np.float64) for name, arr in arrays.items()}
    assert _records(container.read_latents(str(root / "x.ysnd"))) == _records(floats)
    container.write_checkpoint(str(root / "m.ckpt"), config, arrays)
    assert _outcome(container.read_checkpoint, str(root / "m.ckpt")) == (config, _records(floats))


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
