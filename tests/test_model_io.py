import json
import struct
import zlib
from dataclasses import asdict

import numpy as np
import pytest

from durasv.errors import CorruptPayloadError, FormatVersionError, ShapeMismatchError
from durasv.model import ModelConfig, init_model, tiny_gradcheck_config
from durasv.model_io import MAGIC, load_model, save_model


@pytest.fixture
def params():
    return init_model(tiny_gradcheck_config(), np.random.default_rng(11))


@pytest.mark.parametrize(
    "config",
    [tiny_gradcheck_config(), ModelConfig(n_classes=96, n_speakers=20)],
    ids=["tiny", "default"],
)
def test_round_trip_is_bitwise(config, tmp_path):
    params = init_model(config, np.random.default_rng(11))
    path = tmp_path / "model.bin"
    save_model(params, path)
    loaded = load_model(path)
    assert loaded.config == params.config
    assert list(loaded.tensors.keys()) == list(params.tensors.keys())
    for name in params.tensors:
        assert loaded.tensors[name].dtype == np.float64
        assert loaded.tensors[name].shape == params.tensors[name].shape
        assert np.array_equal(loaded.tensors[name], params.tensors[name])


def test_save_rejects_tensors_the_config_does_not_describe(params, tmp_path):
    params.tensors["emb_w"] = params.tensors["emb_w"].T.copy()
    with pytest.raises(ShapeMismatchError):
        save_model(params, tmp_path / "model.bin")
    assert not (tmp_path / "model.bin").exists()


def test_version_bump_detected(params, tmp_path):
    path = tmp_path / "model.bin"
    save_model(params, path)
    data = bytearray(path.read_bytes())
    offset = len(MAGIC)
    (version,) = struct.unpack_from("<H", data, offset)
    struct.pack_into("<H", data, offset, version + 1)
    bumped = tmp_path / "bumped.bin"
    bumped.write_bytes(bytes(data))
    with pytest.raises(FormatVersionError) as err:
        load_model(bumped)
    assert err.value.found == version + 1


def test_bad_magic_detected(params, tmp_path):
    path = tmp_path / "model.bin"
    save_model(params, path)
    data = bytearray(path.read_bytes())
    data[0] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(CorruptPayloadError):
        load_model(path)


def test_trailing_garbage_detected(params, tmp_path):
    path = tmp_path / "model.bin"
    save_model(params, path)
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(CorruptPayloadError):
        load_model(path)


def encode_v1(config: dict, tensors: list) -> bytes:
    """A version-1 model file from a config dict and (name, shape, data) triples."""
    blob = json.dumps(config).encode()
    out = [MAGIC, struct.pack("<HI", 1, len(blob)), blob, struct.pack("<I", len(tensors))]
    for name, shape, data in tensors:
        out += [struct.pack("<H", len(name)), name.encode(), struct.pack("<B", len(shape))]
        out += [struct.pack("<Q", d) for d in shape] + [data]
    return b"".join(out)


def encode(config: dict, data: bytes) -> bytes:
    """A version-2 model file, valid checksum included, from a config dict and tensor data."""
    blob = json.dumps(config, sort_keys=True).encode()
    body = struct.pack("<HI", 2, len(blob)) + blob + data
    return MAGIC + body + struct.pack("<I", zlib.crc32(body))


def _saved(params, path):
    save_model(params, path)
    return path.read_bytes()


def test_version_1_file_is_rejected(params, tmp_path):
    config = asdict(params.config)
    config["n_blocks"] = params.config.n_blocks
    tensors = [(name, t.shape, t.tobytes()) for name, t in params.tensors.items()]
    path = tmp_path / "v1.bin"
    path.write_bytes(encode_v1(config, tensors))
    with pytest.raises(FormatVersionError) as err:
        load_model(path)
    assert (err.value.found, err.value.expected) == (1, 2)


def _with(**changes):
    def corrupt(config, data):
        config.update(changes)
        return data

    return corrupt


def _without(key):
    def corrupt(config, data):
        del config[key]
        return data

    return corrupt


def _holding(value):
    def corrupt(config, data):
        values = np.frombuffer(data, dtype="<f8").copy()
        values[len(values) // 2] = value
        return values.tobytes()

    return corrupt


@pytest.mark.parametrize(
    "corrupt",
    [
        # equal to its default, so only the key check can notice it missing
        _without("kernel_width"),
        _with(bogus=1),
        _with(n_blocks=3),
        _with(dilations=[]),
        _with(n_classes="5"),
        _with(n_classes=5.0),
        _with(dilations=[1.9, 2, 3]),
        _with(dilations="123"),
        lambda config, data: data[:-8],
        lambda config, data: data + bytes(8),
        _with(dilations=[1, 2]),
        _with(n_classes=2**62, proj_dim=2**62),
        _holding(np.nan),
        _holding(-np.inf),
    ],
    ids=[
        "missing-key",
        "extra-key",
        "v1-n-blocks-key",
        "no-dilations",
        "string-dim",
        "float-dim",
        "float-dilation",
        "string-dilations",
        "data-8-bytes-short",
        "data-8-bytes-long",
        "missing-block",
        "huge-dims",
        "nan-value",
        "inf-value",
    ],
)
def test_inconsistent_payload_detected(params, tmp_path, corrupt):
    config = asdict(params.config)
    data = b"".join(t.tobytes() for t in params.tensors.values())
    path = tmp_path / "model.bin"
    path.write_bytes(encode(config, data))
    assert path.read_bytes() == _saved(params, tmp_path / "saved.bin")
    data = corrupt(config, data)
    path.write_bytes(encode(config, data))
    with pytest.raises(CorruptPayloadError):
        load_model(path)


def _every_truncation_and_bit_flip(original: bytes):
    for cut in range(len(original)):
        yield original[:cut]
    for offset in range(len(original)):
        for bit in range(8):
            flipped = bytearray(original)
            flipped[offset] ^= 1 << bit
            yield bytes(flipped)


def test_every_truncation_and_bit_flip_raises(params, tmp_path):
    original = _saved(params, tmp_path / "model.bin")
    path = tmp_path / "damaged.bin"
    cases = 0
    for damaged in _every_truncation_and_bit_flip(original):
        path.write_bytes(damaged)
        with pytest.raises((CorruptPayloadError, FormatVersionError)):
            load_model(path)
        cases += 1
    assert cases == 9 * len(original)
