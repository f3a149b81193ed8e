"""Container files: bit-exact round-trips and corruption rejection."""

import os
import struct

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
        event_frames=(0,),
    )
    model, stage, opt = TwoTowerModel(TINY, seed=0), stage_preset(1, steps=1), OptimizerConfig(lr=1e-3, batch_size=1)
    run_stage(model, stage, opt, {TAG_T2A: [bad]}, SeededRng(0), checkpoint_path=path)


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
