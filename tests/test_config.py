"""Config parsing: unknown keys and mistyped values fail up front."""

import pytest

from graphfusion.config import FusionConfig


@pytest.mark.parametrize(
    "key,value",
    [
        ("use_graph", "false"),
        ("use_graph", 0),
        ("channels", "16"),
        ("channels", True),
        ("channels", 16.0),
        ("lr", "1e-3"),
        ("lr", True),
        ("decay_mode", 1),
    ],
)
def test_mistyped_value_names_its_key(key, value):
    with pytest.raises(ValueError, match=repr(key)):
        FusionConfig.from_dict({key: value})


def test_int_is_accepted_for_a_float_field():
    config = FusionConfig.from_dict({"lr": 1, "alpha": 0})
    assert config.lr == 1.0 and type(config.lr) is float
    assert config.alpha == 0.0 and type(config.alpha) is float


def test_unknown_key_rejected():
    with pytest.raises(ValueError, match="unknown config key 'chanels'"):
        FusionConfig.from_dict({"chanels": 8})
