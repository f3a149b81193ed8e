"""Binary container for checkpoints and latent files.

Layout (all integers little-endian):

  checkpoint:  magic "YSND" | u32 version | config block | u32 count | records
  latent file: magic "YSND" | u32 version | u32 count | records

  config block: seven i32 fields in CONFIG_INT_FIELDS order.
  record:       u32 name length | name bytes (utf-8) | u32 ndim |
                u32 per dim | float64 payload, row-major.

Writers and readers use version 2 only. Float payloads round-trip
bit-exactly. Both readers raise FormatError on unknown magic, any
version but 2, truncation, trailing bytes, and undecodable or duplicate
record names.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .errors import FormatError

MAGIC = b"YSND"
VERSION = 2

CONFIG_INT_FIELDS = (
    "d_model",
    "n_layers",
    "n_heads",
    "d_audio_latent",
    "d_video_feat",
    "d_text",
    "t_audio",
)

_MAX_NAME = 4096
_MAX_NDIM = 8


def _pack_records(arrays: dict) -> bytes:
    chunks = [struct.pack("<I", len(arrays))]
    for name, arr in arrays.items():
        data = np.ascontiguousarray(arr, dtype="<f8")
        name_bytes = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(name_bytes)))
        chunks.append(name_bytes)
        chunks.append(struct.pack("<I", data.ndim))
        chunks.append(struct.pack(f"<{data.ndim}I", *data.shape) if data.ndim else b"")
        chunks.append(data.tobytes())
    return b"".join(chunks)


class _Reader:
    def __init__(self, blob: bytes, path: str):
        self.blob = blob
        self.pos = 0
        self.path = path

    def skip(self, n: int) -> int:
        """Step over n bytes and return the offset they start at."""
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


def _check_header(r: _Reader) -> None:
    if r.take(4) != MAGIC:
        raise FormatError(f"{r.path}: bad magic, not a container file")
    version = r.u32()
    if version != VERSION:
        raise FormatError(f"{r.path}: unsupported container version {version}")


def _unpack_records(r: _Reader) -> dict:
    count = r.u32()
    arrays: dict = {}
    for _ in range(count):
        name_len = r.u32()
        if name_len > _MAX_NAME:
            raise FormatError(f"{r.path}: implausible record name length {name_len}")
        try:
            name = r.take(name_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{r.path}: record name is not valid utf-8 ({exc.reason})") from None
        if name in arrays:
            raise FormatError(f"{r.path}: duplicate record name {name!r}")
        ndim = r.u32()
        if ndim > _MAX_NDIM:
            raise FormatError(f"{r.path}: implausible record rank {ndim}")
        shape = r.u32s(ndim)
        # a Python-int product cannot overflow; skip() checks it against the bytes left
        count = math.prod(shape)
        start = r.skip(8 * count)
        try:
            arrays[name] = np.frombuffer(r.blob, "<f8", count, start).reshape(shape).astype(np.float64)
        except ValueError as exc:  # an empty record whose other dims numpy cannot address
            raise FormatError(f"{r.path}: record {name!r} has unusable shape {shape}: {exc}") from None
    if r.pos != len(r.blob):
        raise FormatError(f"{r.path}: {len(r.blob) - r.pos} trailing bytes after last record")
    return arrays


def write_checkpoint(path: str, config_values: dict, arrays: dict) -> None:
    """Write model parameters plus the config fields that rebuild them."""
    header = [MAGIC, struct.pack("<I", VERSION)]
    header.append(struct.pack("<7i", *(int(config_values[f]) for f in CONFIG_INT_FIELDS)))
    with open(path, "wb") as fh:
        fh.write(b"".join(header))
        fh.write(_pack_records(arrays))


def read_checkpoint(path: str) -> tuple[dict, dict]:
    """Return (config field dict, name -> float64 array)."""
    with open(path, "rb") as fh:
        r = _Reader(fh.read(), path)
    _check_header(r)
    fields = {name: struct.unpack("<i", r.take(4))[0] for name in CONFIG_INT_FIELDS}
    return fields, _unpack_records(r)


def write_latents(path: str, arrays: dict) -> None:
    """Write named float64 arrays (latents, feature buffers) to one file."""
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(_pack_records(arrays))


def read_latents(path: str) -> dict:
    with open(path, "rb") as fh:
        r = _Reader(fh.read(), path)
    _check_header(r)
    return _unpack_records(r)
