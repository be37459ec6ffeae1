"""Config parsing: unknown keys and mistyped values fail up front."""

import json

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


@pytest.mark.parametrize(
    "key,text",
    [
        ("lr", "NaN"),
        ("lr", "Infinity"),
        ("alpha", "Infinity"),
        ("beta", "NaN"),
        ("weight_decay", "NaN"),
        ("weight_decay", "Infinity"),
    ],
)
def test_non_finite_float_rejected(key, text):
    with pytest.raises(ValueError, match=f"{key} must be finite"):
        FusionConfig.from_json(f'{{"{key}": {text}}}')


@pytest.mark.parametrize("opener", ["[", '{"a": '])
def test_deeply_nested_json_rejected_as_value_error(opener):
    # json.loads recurses per level and raises RecursionError, not ValueError.
    with pytest.raises(ValueError, match="config JSON nests too deeply"):
        FusionConfig.from_json(opener * 100_000)


def test_retired_keys_accepted_at_surviving_values():
    # Every file init-config wrote before their retirement holds both keys.
    data = json.loads(FusionConfig().to_json())
    data.update(_doc={}, decay_mode="weight_decay", edge_loss_squared=False)
    assert FusionConfig.from_dict(data) == FusionConfig()
    assert not {"decay_mode", "edge_loss_squared"} & set(FusionConfig().to_dict())


@pytest.mark.parametrize(
    "key,value",
    [("decay_mode", "lr_linear"), ("edge_loss_squared", True), ("edge_loss_squared", 0)],
)
def test_retired_key_at_another_value_rejected(key, value):
    with pytest.raises(ValueError, match=f"config key '{key}' is retired"):
        FusionConfig.from_dict({key: value})


def test_unknown_key_rejected():
    with pytest.raises(ValueError, match="unknown config key 'chanels'"):
        FusionConfig.from_dict({"chanels": 8})


def test_negative_seed_rejected():
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        FusionConfig(seed=-1).validate()
