"""Binary file formats: LTTF tensors, LTTW checkpoints, LTTC text tables;
and the JSON loader for config dataclasses.

All integers little-endian. LTTF: magic, version 0x01, dtype byte
(0=f32, 1=f64), rank byte, rank u32 extents, row-major payload.
"""

from __future__ import annotations

import math
import os
import struct
import sys
from dataclasses import fields, is_dataclass

import numpy as np

TENSOR_MAGIC = b"LTTF"
CKPT_MAGIC = b"LTTW"
TABLE_MAGIC = b"LTTC"
TENSOR_VERSION = 1

_DTYPE_CODE = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPE = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


class FormatError(ValueError):
    pass


def _read_exact(f, n: int) -> bytes:
    buf = f.read(n)
    if len(buf) != n:
        raise FormatError(f"truncated file: wanted {n} bytes, got {len(buf)}")
    return buf


def _read_array(f, shape: tuple, dt: np.dtype) -> np.ndarray:
    """A row-major payload of `shape`, its size checked against the bytes
    left in `f` before anything is read."""
    nbytes = math.prod(shape) * dt.itemsize  # Python ints, so no overflow
    pos = f.tell()
    left = f.seek(0, os.SEEK_END) - pos
    f.seek(pos)
    if nbytes > left:
        raise FormatError(f"truncated file: payload of shape {shape} needs {nbytes} bytes, "
                          f"{left} left")
    return np.frombuffer(_read_exact(f, nbytes), dtype=dt).reshape(shape).astype(
        dt.newbyteorder("="))


def _no_trailing_bytes(f, path):
    if f.read(1):
        raise FormatError(f"trailing bytes after the last record in {path}")


def dump_tensor(f, arr: np.ndarray):
    arr = np.asarray(arr, order="C")  # ascontiguousarray would promote 0-d to 1-d
    if arr.dtype not in _DTYPE_CODE:
        raise FormatError(f"unsupported dtype {arr.dtype}")
    if arr.ndim > 255:
        raise FormatError(f"rank {arr.ndim} exceeds format limit")
    f.write(TENSOR_MAGIC)
    f.write(struct.pack("<BBB", TENSOR_VERSION, _DTYPE_CODE[arr.dtype], arr.ndim))
    for ext in arr.shape:
        f.write(struct.pack("<I", ext))
    f.write(arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes())


def load_tensor(f) -> np.ndarray:
    if _read_exact(f, 4) != TENSOR_MAGIC:
        raise FormatError("bad tensor magic (expected LTTF)")
    version, dcode, rank = struct.unpack("<BBB", _read_exact(f, 3))
    if version != TENSOR_VERSION:
        raise FormatError(f"unsupported tensor version {version}")
    if dcode not in _CODE_DTYPE:
        raise FormatError(f"unknown dtype code {dcode}")
    shape = struct.unpack(f"<{rank}I", _read_exact(f, 4 * rank))
    return _read_array(f, shape, _CODE_DTYPE[dcode])


def write_tensor(path, arr: np.ndarray):
    with open(path, "wb") as f:
        dump_tensor(f, arr)


def read_tensor(path) -> np.ndarray:
    with open(path, "rb") as f:
        arr = load_tensor(f)
        _no_trailing_bytes(f, path)
    return arr


def _write_name(f, name: str):
    raw = name.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise FormatError(f"name too long: {name[:32]}...")
    f.write(struct.pack("<H", len(raw)))
    f.write(raw)


def _read_name(f) -> str:
    (n,) = struct.unpack("<H", _read_exact(f, 2))
    try:
        return _read_exact(f, n).decode("utf-8")
    except UnicodeDecodeError as e:
        raise FormatError(f"name is not valid UTF-8: {e}") from e


def write_checkpoint(path, params: dict[str, np.ndarray]):
    """LTTW: magic, u32 count, then (u16 name len, name, LTTF tensor) records."""
    with open(path, "wb") as f:
        f.write(CKPT_MAGIC)
        f.write(struct.pack("<I", len(params)))
        for name, arr in params.items():
            _write_name(f, name)
            dump_tensor(f, arr)


def read_checkpoint(path) -> dict[str, np.ndarray]:
    out: dict[str, np.ndarray] = {}
    with open(path, "rb") as f:
        if _read_exact(f, 4) != CKPT_MAGIC:
            raise FormatError("bad checkpoint magic (expected LTTW)")
        (count,) = struct.unpack("<I", _read_exact(f, 4))
        for _ in range(count):
            name = _read_name(f)
            if name in out:
                raise FormatError(f"duplicate parameter name {name!r}")
            out[name] = load_tensor(f)
        _no_trailing_bytes(f, path)
    return out


def write_text_table(path, class_names: list[str], rows: np.ndarray):
    """LTTC: magic, u32 K, u32 D_e, K name records, then K x D_e f32 rows."""
    rows = np.ascontiguousarray(rows, dtype=np.float32)
    if rows.ndim != 2 or rows.shape[0] != len(class_names):
        raise FormatError(
            f"table rows {rows.shape} do not match {len(class_names)} class names"
        )
    with open(path, "wb") as f:
        f.write(TABLE_MAGIC)
        f.write(struct.pack("<II", rows.shape[0], rows.shape[1]))
        for name in class_names:
            _write_name(f, name)
        f.write(rows.astype("<f4", copy=False).tobytes())


def read_text_table(path) -> tuple[list[str], np.ndarray]:
    with open(path, "rb") as f:
        if _read_exact(f, 4) != TABLE_MAGIC:
            raise FormatError("bad table magic (expected LTTC)")
        k, de = struct.unpack("<II", _read_exact(f, 8))
        names = [_read_name(f) for _ in range(k)]
        rows = _read_array(f, (k, de), np.dtype("<f4"))
        _no_trailing_bytes(f, path)
    return names, rows


def config_from_json(cls, obj):
    """Build the config dataclass `cls` from a parsed JSON object.

    A missing key takes the dataclass default. An unknown key, a value
    whose JSON type differs from its field's default, or a NaN or infinite
    float (Python's json reads NaN and Infinity) raises ValueError; an int
    is accepted for a float and a list for a tuple. A field whose default
    is itself a config dataclass is built from a nested object.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"{cls.__name__} must be a JSON object, got {type(obj).__name__}")
    unknown = sorted(set(obj) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {cls.__name__} key(s): {', '.join(unknown)}")
    defaults = cls()
    kwargs = {}
    for name, value in obj.items():
        default = getattr(defaults, name)
        if is_dataclass(default):
            value = config_from_json(type(default), value)
        elif isinstance(default, float) and type(value) is int:  # huge: inf, rejected below
            value = float(value) if abs(value) <= sys.float_info.max else math.inf
        elif isinstance(default, tuple) and isinstance(value, list):
            value = tuple(value)
        elif type(value) is not type(default):  # bool is not taken for int
            raise ValueError(f"{cls.__name__}.{name} must be {type(default).__name__}, "
                             f"got {type(value).__name__}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{cls.__name__}.{name} must be finite, got {value}")
        kwargs[name] = value
    return cls(**kwargs)
