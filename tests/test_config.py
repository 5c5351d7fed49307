"""Configuration parsing: bad values name their key, and the CLI exits with 1."""

import dataclasses
import re

import pytest

from sdprel.cli import main
from sdprel.model import Regime
from sdprel.training import ConfigError, TrainConfig, config_from_mapping, parse_config_file

BAD_VALUES = [
    ("d", "abc", ["'d'", "'abc'", "int"]),
    ("learning_rate", "fast", ["'learning_rate'", "'fast'", "float"]),
    ("epsilon", "1e", ["'epsilon'", "'1e'", "float"]),
    ("regime", "nope", ["'regime'", "'nope'", "blind, sighted, sighted-ns"]),
    ("negatives", "some", ["'negatives'", "'some'", "none, reversed, pool"]),
    ("mode", "arcs", ["'mode'", "'arcs'", "labeled, directions-only"]),
]


@pytest.mark.parametrize("key, value, expected", BAD_VALUES)
def test_bad_value_names_key_value_and_allowed(key, value, expected):
    with pytest.raises(ConfigError) as info:
        config_from_mapping({key: value})
    for fragment in expected:
        assert fragment in str(info.value)


def train_on_absent_corpora(tmp_path, config_text):
    """``sdprel train`` with this config file and corpus paths that do not exist."""
    config = tmp_path / "train.cfg"
    config.write_text(config_text, encoding="utf-8")
    missing = str(tmp_path / "absent")
    return main([
        "train", "--config", str(config), "--train-sem", missing, "--train-conll", missing,
        "--dev-sem", missing, "--dev-conll", missing, "--out", str(tmp_path / "m.json"),
    ])


@pytest.mark.parametrize("key, value, expected", BAD_VALUES)
def test_cli_exits_1_with_the_key_in_the_message(tmp_path, capsys, key, value, expected):
    code = train_on_absent_corpora(tmp_path, f"{key} = {value}\n")
    assert code == 1
    err = capsys.readouterr().err
    for fragment in expected:
        assert fragment in err


@pytest.mark.parametrize("key, value, expected", [
    ("d", "0", "sdprel: d must be positive, got 0"),
    ("n1", "-3", "sdprel: n1 must be positive, got -3"),
    ("w", "4", "sdprel: w (window size) must be odd, got 4"),
    ("lambda_w1", "-0.5", "sdprel: lambda_w1 must be >= 0, got -0.5"),
    ("lambda_we", "nan", "sdprel: lambda_we must be finite, got nan"),
    ("lambda_w3", "inf", "sdprel: lambda_w3 must be finite, got inf"),
    ("learning_rate", "inf", "sdprel: learning_rate must be finite and > 0, got inf"),
    ("learning_rate", "nan", "sdprel: learning_rate must be finite and > 0, got nan"),
    ("epsilon", "0", "sdprel: epsilon must be finite and > 0, got 0.0"),
    ("epsilon", "-1", "sdprel: epsilon must be finite and > 0, got -1.0"),
    ("seed", "-1", "sdprel: seed must be >= 0, got -1"),
    ("min_count", "0", "sdprel: min_count must be >= 1, got 0"),
    ("min_count", "-3", "sdprel: min_count must be >= 1, got -3"),
    ("max_epochs", "0", "sdprel: max_epochs and patience must be >= 1"),
    ("patience", "0", "sdprel: max_epochs and patience must be >= 1"),
    ("regime", "blind", "sdprel: negatives=reversed requires regime=sighted-ns "
                        "(and vice versa); got regime=blind"),
    ("negatives", "none", "sdprel: negatives=none requires regime=sighted-ns "
                          "(and vice versa); got regime=sighted-ns"),
    ("negatives", "pool", "sdprel: pool_path must be set exactly when negatives=pool"),
    ("pool_path", "pool.paths", "sdprel: pool_path must be set exactly when negatives=pool"),
])
def test_bad_or_inconsistent_value_names_the_key_before_any_corpus_is_read(
    tmp_path, capsys, key, value, expected
):
    with pytest.raises(ConfigError, match=re.escape(expected.removeprefix("sdprel: "))):
        config_from_mapping({key: value})
    # The corpora do not exist: the message shows the config was checked first.
    assert train_on_absent_corpora(tmp_path, f"{key} = {value}\n") == 1
    assert expected in capsys.readouterr().err


def test_good_values_parse():
    config = config_from_mapping(
        {"regime": "blind", "negatives": "none", "d": "7", "epsilon": "1e-5", "pool_path": ""}
    )
    assert config.regime is Regime.BLIND
    assert config.d == 7
    assert config.epsilon == 1e-5
    assert config.pool_path is None


KEYS = {
    "regime": "sighted-ns", "negatives": "reversed", "pool_path": "", "mode": "labeled",
    "d": "50", "w": "3", "n1": "200", "n2": "100",
    "lambda_we": "1e-4", "lambda_w1": "1e-3", "lambda_w2": "1e-4", "lambda_w3": "2e-3",
    "learning_rate": "0.01", "epsilon": "1e-6", "max_epochs": "100", "patience": "5",
    "seed": "0", "min_count": "1",
    "embeddings_path": "", "lex_features_path": "", "labels_path": "",
}


def test_every_field_is_a_key_and_parses_to_its_default():
    assert [f.name for f in dataclasses.fields(TrainConfig)] == list(KEYS)
    assert config_from_mapping(KEYS) == TrainConfig()


@pytest.mark.parametrize("key", ["adagrad_epsilon", "train_pad", "K", "hyperparams"])
def test_names_that_are_not_fields_are_unknown_keys(key):
    with pytest.raises(ConfigError, match=f"unknown configuration key '{key}'"):
        config_from_mapping({key: "1"})


def test_a_form_feed_inside_a_line_does_not_move_later_line_numbers(tmp_path):
    path = tmp_path / "train.cfg"
    path.write_text("d = 8\f\nno equals sign\n", encoding="utf-8")
    message = f"{path}: line 2: expected 'key = value'"
    with pytest.raises(ConfigError, match="^" + re.escape(message) + "$"):
        parse_config_file(path)
