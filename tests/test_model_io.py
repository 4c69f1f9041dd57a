import json
import struct
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from durasv.errors import CorruptPayloadError, FormatVersionError
from durasv.model import init_model, tiny_gradcheck_config
from durasv.model_io import MAGIC, load_model, save_model


@pytest.fixture
def params():
    return init_model(tiny_gradcheck_config(), np.random.default_rng(11))


def test_round_trip_is_bitwise(params, tmp_path):
    path = tmp_path / "model.bin"
    save_model(params, path)
    loaded = load_model(path)
    assert loaded.config == params.config
    assert list(loaded.tensors.keys()) == list(params.tensors.keys())
    for name in params.tensors:
        assert loaded.tensors[name].dtype == np.float64
        assert np.array_equal(loaded.tensors[name], params.tensors[name])


def test_truncated_file_detected(params, tmp_path):
    path = tmp_path / "model.bin"
    save_model(params, path)
    data = path.read_bytes()
    for cut in (5, len(MAGIC) + 1, len(data) // 2, len(data) - 3):
        clipped = tmp_path / f"cut{cut}.bin"
        clipped.write_bytes(data[:cut])
        with pytest.raises(CorruptPayloadError):
            load_model(clipped)


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


def encode(config: dict, tensors: list) -> bytes:
    """A version-1 model file from a config dict and (name, shape, data) triples."""
    blob = json.dumps(config).encode()
    out = [MAGIC, struct.pack("<HI", 1, len(blob)), blob, struct.pack("<I", len(tensors))]
    for name, shape, data in tensors:
        out += [struct.pack("<H", len(name)), name.encode(), struct.pack("<B", len(shape))]
        out += [struct.pack("<Q", d) for d in shape] + [data]
    return b"".join(out)


def _set_emb_w(tensors, shape, data):
    i = [t[0] for t in tensors].index("emb_w")
    tensors[i] = ("emb_w", shape, data)


def _emb_w_holding(value):
    def corrupt(config, tensors):
        shape = tensors[[t[0] for t in tensors].index("emb_w")][1]
        data = np.zeros(shape)
        data[1, 2] = value
        _set_emb_w(tensors, shape, data.tobytes())

    return corrupt


def _huge_proj(config, tensors):
    config.update(n_classes=2**62, proj_dim=2**62)
    tensors[0] = ("proj", (2**62, 2**62), tensors[0][2])


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda config, tensors: config.pop("attention_hidden"),
        lambda config, tensors: config.update(bogus=1),
        lambda config, tensors: config.update(dilations=[1, 2]),
        lambda config, tensors: config.update(n_classes="5"),
        lambda config, tensors: _set_emb_w(tensors, (8, 2), bytes(8 * 16)),
        lambda config, tensors: _set_emb_w(tensors, (2**62, 2**62), b""),
        _huge_proj,
        lambda config, tensors: tensors.insert(0, tensors.pop(1)),
        lambda config, tensors: tensors.pop(),
        lambda config, tensors: tensors.append(("extra", (1,), bytes(8))),
        lambda config, tensors: tensors.__setitem__(0, ("PROJ", *tensors[0][1:])),
        _emb_w_holding(np.nan),
        _emb_w_holding(-np.inf),
    ],
    ids=[
        "missing-key",
        "extra-key",
        "dilations-vs-blocks",
        "string-dim",
        "wrong-shape",
        "huge-dims",
        "huge-config-and-dims",
        "tensor-order",
        "missing-tensor",
        "extra-tensor",
        "renamed-tensor",
        "nan-value",
        "inf-value",
    ],
)
def test_inconsistent_payload_detected(params, tmp_path, corrupt):
    config = asdict(params.config)
    tensors = [(name, t.shape, t.tobytes()) for name, t in params.tensors.items()]
    path = tmp_path / "model.bin"
    path.write_bytes(encode(config, tensors))
    assert load_model(path).config == params.config
    corrupt(config, tensors)
    path.write_bytes(encode(config, tensors))
    with pytest.raises(CorruptPayloadError):
        load_model(path)


@pytest.fixture(scope="module")
def saved_model(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "model.bin"
    save_model(init_model(tiny_gradcheck_config(), np.random.default_rng(11)), path)
    return path, path.read_bytes()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_truncated_or_bit_flipped_file_loads_or_raises(saved_model, data):
    path, original = saved_model
    offset = data.draw(st.integers(0, len(original) - 1), label="offset")
    if data.draw(st.booleans(), label="truncate"):
        damaged = original[:offset]
    else:
        flipped = bytearray(original)
        flipped[offset] ^= 1 << data.draw(st.integers(0, 7), label="bit")
        damaged = bytes(flipped)
    path.with_name("damaged.bin").write_bytes(damaged)
    try:
        loaded = load_model(path.with_name("damaged.bin"))
    except (CorruptPayloadError, FormatVersionError):
        return
    assert loaded.all_finite()
