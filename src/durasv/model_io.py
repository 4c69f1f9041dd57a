"""Versioned binary container for model parameters.

Layout: 8 magic bytes, u16 format version, u32-length-prefixed JSON
config, u32 tensor count, then per tensor a u16-length-prefixed name, a
u8 rank, u64 dimensions, and raw little-endian float64 data, all in
declaration order. Loading is bitwise lossless, and checks the config
keys against ``ModelConfig``, every tensor's name, order and shape
against ``parameter_shapes(config)``, and that every value is finite.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .errors import CorruptPayloadError, FormatVersionError
from .model import ModelConfig, ModelParams, parameter_shapes

MAGIC = b"DURASVM\x00"
FORMAT_VERSION = 1


def save_model(params: ModelParams, path: str | Path) -> None:
    config_json = json.dumps(asdict(params.config), sort_keys=True).encode("utf-8")

    with open(path, "wb") as sink:
        sink.write(MAGIC)
        sink.write(struct.pack("<H", FORMAT_VERSION))
        sink.write(struct.pack("<I", len(config_json)))
        sink.write(config_json)
        sink.write(struct.pack("<I", len(params.tensors)))
        for name, tensor in params.tensors.items():
            encoded = name.encode("utf-8")
            sink.write(struct.pack("<H", len(encoded)))
            sink.write(encoded)
            sink.write(struct.pack("<B", tensor.ndim))
            for dim in tensor.shape:
                sink.write(struct.pack("<Q", dim))
            sink.write(np.ascontiguousarray(tensor, dtype="<f8").tobytes())


def load_model(path: str | Path) -> ModelParams:
    data = Path(path).read_bytes()
    view = memoryview(data)
    pos = 0

    def take(n: int) -> memoryview:
        nonlocal pos
        if pos + n > len(view):
            raise CorruptPayloadError(f"model file truncated at byte {pos}")
        out = view[pos : pos + n]
        pos += n
        return out

    if bytes(take(len(MAGIC))) != MAGIC:
        raise CorruptPayloadError("bad magic bytes, not a model file")
    (version,) = struct.unpack("<H", take(2))
    if version != FORMAT_VERSION:
        raise FormatVersionError(version, FORMAT_VERSION)
    (config_len,) = struct.unpack("<I", take(4))
    try:
        config_data = json.loads(bytes(take(config_len)).decode("utf-8"))
        # ModelConfig(**config_data) would fill a missing key with its default
        if set(config_data) != {f.name for f in fields(ModelConfig)}:
            raise ValueError(f"keys {sorted(config_data)} are not the ModelConfig fields")
        config = ModelConfig(**config_data)
    except (TypeError, ValueError) as exc:
        raise CorruptPayloadError(f"unreadable model config: {exc}") from exc

    expected = parameter_shapes(config)
    (n_tensors,) = struct.unpack("<I", take(4))
    if n_tensors != len(expected):
        raise CorruptPayloadError(f"{n_tensors} tensors, config needs {len(expected)}")
    tensors: dict[str, np.ndarray] = {}
    for want_name, want_shape in expected.items():
        (name_len,) = struct.unpack("<H", take(2))
        name = bytes(take(name_len)).decode("utf-8", errors="replace")
        (ndim,) = struct.unpack("<B", take(1))
        shape = tuple(struct.unpack("<Q", take(8))[0] for _ in range(ndim))
        if (name, shape) != (want_name, want_shape):
            raise CorruptPayloadError(
                f"tensor {name!r} {shape}, config needs {want_name!r} {want_shape}"
            )
        raw = take(math.prod(shape) * 8)
        tensors[name] = np.frombuffer(raw, dtype="<f8").astype(
            np.float64, copy=True
        ).reshape(shape)
    if pos != len(view):
        raise CorruptPayloadError(f"{len(view) - pos} trailing bytes after payload")
    params = ModelParams(config, tensors)
    if not params.all_finite():
        raise CorruptPayloadError("model tensors hold non-finite values")
    return params
