"""Range kinds: every number a config holds is annotated with one, and each
kind refuses the first value outside its range with one message form."""

import dataclasses
from typing import Annotated, get_args, get_origin, get_type_hints

import numpy as np
import pytest

from durasv.errors import (
    ConfigError,
    Count,
    Natural,
    NonNegative,
    Positive,
    field_kinds,
    integer,
)
from durasv.model import ModelConfig
from durasv.synth import SynthConfig
from durasv.training import TrainConfig

CONFIGS = (ModelConfig, TrainConfig, SynthConfig)
VALID = {
    ModelConfig: {"n_classes": 4, "n_speakers": 2},
    TrainConfig: {"epochs": 1},
    SynthConfig: {
        "n_speakers": 2,
        "utts_per_speaker": 1,
        "phones_per_utt": (1, 2),
        "population_log_mean": np.ones(3),
        "sigma_speaker": 0.0,
        "sigma_token": 0.1,
        "seed": 0,
    },
}
# each kind's first value outside its range, and the range its message states
FIRST_BAD = {Count: (0, ">= 1"), Natural: (-1, ">= 0"), Positive: (0.0, "> 0"),
             NonNegative: (-1e-300, ">= 0")}


def numbers_in(hint) -> list:
    """The parts of an annotation that hold a number: itself, or a tuple's elements."""
    parts = get_args(hint) if get_origin(hint) is tuple else (hint,)
    bases = [get_args(p)[0] if get_origin(p) is Annotated else p for p in parts]
    return [p for p, base in zip(parts, bases) if base in (int, float)]


@pytest.mark.parametrize("cls", CONFIGS, ids=lambda cls: cls.__name__)
def test_every_number_field_carries_a_known_kind(cls):
    hints = get_type_hints(cls, include_extras=True)
    kinds = field_kinds(cls)
    numeric = [f.name for f in dataclasses.fields(cls) if numbers_in(hints[f.name])]
    assert numeric  # the check below looks at something
    for name in numeric:
        assert name in kinds and kinds[name][0] in FIRST_BAD, name
        assert all(part is kinds[name][0] for part in numbers_in(hints[name])), name


@pytest.mark.parametrize(
    "cls, name",
    [(cls, name) for cls in CONFIGS for name in field_kinds(cls)],
    ids=lambda v: v if isinstance(v, str) else v.__name__,
)
def test_each_field_refuses_its_kinds_first_bad_value(cls, name):
    kind, is_tuple = field_kinds(cls)[name]
    bad, bound = FIRST_BAD[kind]
    value = (bad, bad) if is_tuple else bad
    with pytest.raises(ConfigError, match=f"^{name} must be {bound}$"):
        cls(**{**VALID[cls], name: value})


def test_every_kind_is_checked_on_some_config_field():
    used = {field_kinds(cls)[name][0] for cls in CONFIGS for name in field_kinds(cls)}
    assert used == set(FIRST_BAD)


def test_a_tuple_field_takes_a_sequence():
    with pytest.raises(ConfigError, match="^dilations must be a sequence, got 2$"):
        ModelConfig(**{**VALID[ModelConfig], "dilations": 2})
    with pytest.raises(ConfigError, match=r"^phones_per_utt must be \[lo, hi\]"):
        SynthConfig(**{**VALID[SynthConfig], "phones_per_utt": (1, 2, 3)})


@pytest.mark.parametrize("value, least", [(0, 1), (-1, 0), (np.int64(49), 50)])
def test_integer_refuses_a_value_below_its_floor(value, least):
    with pytest.raises(ConfigError, match=f"^x must be >= {least}$"):
        integer("x", value, least)
    assert integer("x", least, least) == least
