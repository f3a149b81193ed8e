"""Binary container for checkpoints and latent files, version 3.

  file:   magic "YSND" | u32 version | u32 count | records | u32 CRC-32
  record: u32 name length | utf-8 name | u32 dtype code | u32 rank |
          u32 per dim | payload, row-major

All integers are little-endian, and the CRC is zlib.crc32 of every byte
before it. Dtype code 0 is <f8, 1 is <i8. A checkpoint is a file like
any other, whose "config" record is a 1-D run of <i8 values; what they
mean is the model's to say. Payloads round-trip bit-exactly. Both
readers raise FormatError on bad magic, any version but 3, a CRC
mismatch, records that overrun the CRC or stop short of it, unknown
dtype codes and undecodable or duplicate names; read_checkpoint also on
a config record that is missing, not <i8 or not 1-D, and on any other
record that is not <f8.

A reader takes a latent file in one os.read, checks its CRC, and walks
it with one precompiled struct unpack per field group, each checked
against the bytes left. No public reader calls another, so a profile
that sums container.read* calls counts each file once.
"""

from __future__ import annotations

import errno
import math
import os
import struct
import zlib
from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np

from .errors import ContractError, FormatError

MAGIC = b"YSND"
VERSION = 3
# a record's dtype is its index here; a new dtype takes the next code
_DTYPES = (np.dtype("<f8"), np.dtype("<i8"))
_CONFIG_RECORD = "config"

_MAX_NAME = 4096
_MAX_NDIM = 8


# the output set open in this thread or task: absolute path -> (temporary
# file, path), in staging order
_staged: ContextVar = ContextVar("output_set", default=None)


@contextmanager
def output_set():
    """A command's output set: the files that replacing() writes inside it
    take their paths' places together, when the with-block completes.

    Each file is written to its temporary file and closed, and every one
    is renamed onto its path in one loop at the end. On any exception
    before that loop every temporary file is removed, so each path keeps
    its old bytes or stays absent. A rename that fails inside the loop
    (say, on a full disk) leaves the files renamed before it with their
    new bytes and the rest with their old ones. A path named twice in one
    set is a ContractError. A set opened inside a set joins it.
    """
    if _staged.get() is not None:
        yield _staged.get()
        return
    staged: dict = {}
    token = _staged.set(staged)
    try:
        yield staged
        for key, (tmp, path) in list(staged.items()):
            os.replace(tmp, path)
            del staged[key]
    except BaseException:
        for tmp, _ in staged.values():
            os.unlink(tmp)
        raise
    finally:
        _staged.reset(token)


@contextmanager
def replacing(path: str, binary: bool = False):
    """The package's one writer: a utf-8 text (or binary) file that takes
    path's place only if the with-block completes, and inside an
    output_set only once the whole set does.

    It is a new file in path's directory, flushed, fsynced and closed,
    then os.replace'd onto path; outside an output_set it is a set of
    one. On any exception it is removed and the exception re-raised, so
    path keeps its old bytes or stays absent. A path that is a directory
    fails on entry, as a plain open would. Only train's events.log is
    written in place: a stream that a diverged run keeps up to its
    failing step, next to its divergence checkpoint.
    """
    with output_set() as staged:
        key = os.path.abspath(path)
        if key in staged:
            raise ContractError(f"{path}: named twice among one command's output files")
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        folder, name = os.path.split(path)
        tmp = os.path.join(folder, f".{name}.{os.urandom(4).hex()}.tmp")
        # mode "x" never takes over an existing file, and gives the new one the
        # permissions a plain open would (tempfile's files are private, 0600)
        out = open(tmp, "xb") if binary else open(tmp, "x", encoding="utf-8")
        try:
            with out:
                yield out
                out.flush()
                os.fsync(out.fileno())
        except BaseException:
            os.unlink(tmp)
            raise
        staged[key] = (tmp, path)


_U32 = struct.Struct("<I")
_CODE_RANK = struct.Struct("<II")
_SHAPES = tuple(struct.Struct(f"<{ndim}I") for ndim in range(_MAX_NDIM + 1))
# a latent file fits in one read of this size; eval reads thousands of them
_SMALL = 64 * 1024


def _read_bytes(path: str) -> bytes:
    """The bytes of the file at path. A file of up to _SMALL bytes takes
    one os.read, and one more that sees its end. A larger one, such as a
    checkpoint, is read again whole into one buffer; joining chunks costs
    more than the read itself."""
    fd = os.open(path, os.O_RDONLY)
    try:
        blob = os.read(fd, _SMALL)
        more = os.read(fd, _SMALL)
        if not more:
            return blob
        with open(fd, "rb", closefd=False) as fh:
            if fh.seekable():
                fh.seek(0)
                return fh.read()
            return blob + more + fh.read()  # a pipe cannot rewind
    except IsADirectoryError:  # os.open opens a directory; open() refuses it by name
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), os.fspath(path)) from None
    finally:
        os.close(fd)


def _truncated(path: str, n: int, at: int) -> FormatError:
    return FormatError(f"{path}: truncated file (needed {n} bytes at offset {at})")


def _write(path: str, records: dict) -> None:
    """Write records, name -> array of a _DTYPES dtype, as one file."""
    chunks = [MAGIC, struct.pack("<II", VERSION, len(records))]
    for name, data in records.items():
        name_bytes = name.encode("utf-8")
        chunks.append(_U32.pack(len(name_bytes)) + name_bytes)
        chunks.append(struct.pack(f"<II{data.ndim}I", _DTYPES.index(data.dtype), data.ndim, *data.shape))
        chunks.append(data.tobytes())
    body = b"".join(chunks)
    with replacing(path, binary=True) as fh:
        fh.write(body)
        fh.write(_U32.pack(zlib.crc32(body)))


def _read(path: str) -> dict:
    """The records of the file at path, name -> array, after a checked
    magic, version and CRC."""
    blob = _read_bytes(path)
    if len(blob) < 4:
        raise _truncated(path, 4, 0)
    if blob[:4] != MAGIC:
        raise FormatError(f"{path}: bad magic, not a container file")
    if len(blob) < 8:
        raise _truncated(path, 4, 4)
    u32 = _U32.unpack_from
    (version,) = u32(blob, 4)
    if version != VERSION:
        raise FormatError(f"{path}: unsupported container version {version}")
    end = len(blob) - 4  # the CRC's offset
    if end < 12:
        raise _truncated(path, 8, 8)
    if zlib.crc32(memoryview(blob)[:end]) != u32(blob, end)[0]:
        raise FormatError(f"{path}: CRC-32 mismatch, the file is truncated or damaged")
    (count,) = u32(blob, 8)
    pos = 12
    arrays: dict = {}
    for _ in range(count):
        if pos + 4 > end:
            raise _truncated(path, 4, pos)
        (name_len,) = u32(blob, pos)
        pos += 4
        if name_len > _MAX_NAME:
            raise FormatError(f"{path}: implausible record name length {name_len}")
        if pos + name_len + 8 > end:  # the name, its dtype code and its rank
            raise _truncated(path, name_len + 8, pos)
        try:
            name = blob[pos : pos + name_len].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: record name is not valid utf-8 ({exc.reason})") from None
        pos += name_len
        if name in arrays:
            raise FormatError(f"{path}: duplicate record name {name!r}")
        code, ndim = _CODE_RANK.unpack_from(blob, pos)
        pos += 8
        if code >= len(_DTYPES):
            raise FormatError(f"{path}: record {name!r} has unknown dtype code {code}")
        if ndim > _MAX_NDIM:
            raise FormatError(f"{path}: implausible record rank {ndim}")
        if pos + 4 * ndim > end:
            raise _truncated(path, 4 * ndim, pos)
        shape = _SHAPES[ndim].unpack_from(blob, pos)
        pos += 4 * ndim
        # a Python-int product cannot overflow; it is checked against the bytes left
        dtype, size = _DTYPES[code], math.prod(shape)
        if pos + dtype.itemsize * size > end:
            raise _truncated(path, dtype.itemsize * size, pos)
        try:
            arrays[name] = np.frombuffer(blob, dtype, size, pos).reshape(shape).astype(dtype.type)
        except ValueError as exc:  # an empty record whose other dims numpy cannot address
            raise FormatError(f"{path}: record {name!r} has unusable shape {shape}: {exc}") from None
        pos += dtype.itemsize * size
    if pos != end:
        raise FormatError(f"{path}: {end - pos} trailing bytes after last record")
    return arrays


def write_checkpoint(path: str, config, arrays: dict) -> None:
    """Write model parameters as float64 records, after a config record of
    the ints that rebuild them, in the order given."""
    if _CONFIG_RECORD in arrays:
        raise ContractError(f"{path}: {_CONFIG_RECORD!r} names a checkpoint's own record")
    values = np.array([int(v) for v in config], dtype="<i8")
    _write(path, {_CONFIG_RECORD: values, **{name: np.asarray(arr, dtype="<f8") for name, arr in arrays.items()}})


def read_checkpoint(path: str) -> tuple[tuple, dict]:
    """Return (the config record's ints, name -> float64 array)."""
    arrays = _read(path)
    config = arrays.pop(_CONFIG_RECORD, None)
    if config is None or config.dtype != np.int64 or config.ndim != 1:
        raise FormatError(f"{path}: no config record of int64 values")
    for name, arr in arrays.items():
        if arr.dtype != np.float64:
            raise FormatError(f"{path}: parameter record {name!r} is not float64")
    return tuple(config.tolist()), arrays


def write_latents(path: str, arrays: dict) -> None:
    """Write named float64 arrays (latents, feature buffers) to one file."""
    # asarray, as ascontiguousarray would make a rank-0 array rank 1
    _write(path, {name: np.asarray(arr, dtype="<f8") for name, arr in arrays.items()})


def read_latents(path: str) -> dict:
    return _read(path)
