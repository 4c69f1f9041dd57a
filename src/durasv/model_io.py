"""Versioned binary container for model parameters.

Layout, format version 2: 8 magic bytes; a u16 format version; a
u32-length-prefixed JSON config; every tensor's raw little-endian float64
data in ``parameter_shapes(config)`` order, with no per-tensor header, as
the config alone fixes every name and shape; then a u32 ``zlib.crc32``
over everything after the magic bytes. Loading is bitwise lossless. It
checks, in order: the magic, the version, the checksum, the config keys
against the ``ModelConfig`` fields, the exact data length the config
needs, and that every value is finite.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from dataclasses import asdict, fields
from itertools import accumulate
from pathlib import Path

import numpy as np

from .errors import CorruptPayloadError, FormatVersionError, ShapeMismatchError
from .model import ModelConfig, ModelParams, parameter_shapes

MAGIC = b"DURASVM\x00"
FORMAT_VERSION = 2
_HEAD = struct.Struct("<HI")  # format version, config length
_CRC = struct.Struct("<I")


def save_model(params: ModelParams, path: str | Path) -> None:
    # the file holds no shapes, so a tensor that disagrees with the config
    # must be caught here, not reshaped into the config's shape at load
    shapes = parameter_shapes(params.config)
    if {name: tensor.shape for name, tensor in params.tensors.items()} != shapes:
        raise ShapeMismatchError("model tensors differ from the shapes their config needs")
    config_json = json.dumps(asdict(params.config), sort_keys=True).encode("utf-8")
    parts = [_HEAD.pack(FORMAT_VERSION, len(config_json)), config_json]
    parts += [np.ascontiguousarray(params.tensors[name], dtype="<f8") for name in shapes]
    crc = 0
    with open(path, "wb") as sink:
        sink.write(MAGIC)
        for part in parts:
            crc = zlib.crc32(part, crc)
            sink.write(part)
        sink.write(_CRC.pack(crc))


def load_model(path: str | Path) -> ModelParams:
    view = memoryview(Path(path).read_bytes())
    if view[: len(MAGIC)] != MAGIC:
        raise CorruptPayloadError("bad magic bytes, not a model file")
    if len(view) < len(MAGIC) + _HEAD.size + _CRC.size:
        raise CorruptPayloadError(f"model file truncated at {len(view)} bytes")
    version, config_len = _HEAD.unpack_from(view, len(MAGIC))
    if version != FORMAT_VERSION:
        raise FormatVersionError(version, FORMAT_VERSION)
    body = view[len(MAGIC) : -_CRC.size]
    if zlib.crc32(body) != _CRC.unpack_from(view, len(view) - _CRC.size)[0]:
        raise CorruptPayloadError("model file checksum mismatch: truncated or corrupted")

    config_end = _HEAD.size + config_len
    try:
        config_data = json.loads(bytes(body[_HEAD.size : config_end]))
        # ModelConfig(**config_data) would fill a missing key with its default
        if set(config_data) != {f.name for f in fields(ModelConfig)}:
            raise ValueError(f"keys {sorted(config_data)} are not the ModelConfig fields")
        config = ModelConfig(**config_data)
    except (TypeError, ValueError) as exc:
        raise CorruptPayloadError(f"unreadable model config: {exc}") from exc

    shapes = parameter_shapes(config)
    sizes = [math.prod(shape) for shape in shapes.values()]
    data, needed = body[config_end:], 8 * sum(sizes)
    if len(data) != needed:
        raise CorruptPayloadError(f"{len(data)} bytes of tensor data, config needs {needed}")
    values = np.frombuffer(data, dtype="<f8").astype(np.float64)
    if not np.isfinite(values).all():
        raise CorruptPayloadError("model tensors hold non-finite values")
    offsets = list(accumulate(sizes, initial=0))
    tensors = {
        name: values[start:stop].reshape(shape)
        for (name, shape), start, stop in zip(shapes.items(), offsets, offsets[1:])
    }
    return ModelParams(config, tensors)
