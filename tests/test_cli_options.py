"""The CLI option surface: accepted config keys, defaults and precedence.

The literals below are the option set of every subcommand as released.
A flag, a config key or a default that changes must change here too.
"""

import json

import pytest

from aisoc.cli import _build_parser, _merge_options
from aisoc.errors import ConfigError

OPS_DEFAULT = "KEYWORD_OBFUSCATION,CHAR_NOISE,SYNONYM_REPLACEMENT"

DEFAULTS = {
    "generate": {
        "out_logs": None, "out_malware": None, "benign_hosts": 3, "attack_sessions": 12,
        "duration_s": 1800.0, "benign_rate": 0.25, "malware_benign": 300,
        "malware_malicious": 300, "malware_features": 8, "malware_separation": 3.0,
        "malware_hard_fraction": 0.0, "seed": 7,
    },
    "augment": {
        "in_path": None, "out": None, "ops": OPS_DEFAULT, "rate": 0.5, "replace": False,
        "seed": 7,
    },
    "split": {
        "logs": None, "malware": None, "out_dir": None, "kind": "TIME_ORDERED",
        "fractions": "0.6,0.2,0.2", "folds": None, "val_supports": None,
        "test_supports": None, "label_column": "label", "id_column": "sample_id", "seed": 7,
    },
    "train-log": {
        "train": None, "artifact": None, "min_df": 2, "max_features": 20000, "l2": 1e-3,
        "epochs": 300, "class_weight": "none", "seed": 7,
    },
    "train-malware": {
        "train": None, "artifact": None, "label_column": "label", "id_column": "sample_id",
        "trees": 100, "max_depth": 12, "min_leaf": 2, "seed": 7,
    },
    "calibrate": {
        "artifact": None, "val_logs": None, "val_malware": None, "method": "auto",
        "label_column": "label", "id_column": "sample_id", "seed": 7,
    },
    "tune": {
        "artifact": None, "manifest": None, "grid_step": 0.01, "version": "1",
        "export_thresholds": None, "seed": 7,
    },
    "evaluate": {"artifact": None, "manifest": None, "setting": "all", "json_out": None,
                 "seed": 7},
    "probe": {"artifact": None, "manifest": None, "ops": "KEYWORD_OBFUSCATION,CHAR_NOISE",
              "rate": 0.5, "json_out": None, "seed": 7},
    "save": {"artifact": None, "out": None, "created_at": None, "seed": 7},
    "serve": {"artifact": None, "bind": "127.0.0.1:8080", "seed": 7},
    "score-batch": {"artifact": None, "in_path": None, "out": None, "seed": 7},
}


def merged(argv: list[str]) -> dict:
    return _merge_options(_build_parser().parse_args(argv))


def with_config(tmp_path, command: str, config: dict, *flags: str) -> dict:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return merged([command, "--config", str(path), *flags])


@pytest.mark.parametrize("command", sorted(DEFAULTS))
def test_defaults_without_flags_or_config(command):
    opts = merged([command])
    assert opts == DEFAULTS[command]
    assert {k: type(v) for k, v in opts.items()} \
        == {k: type(v) for k, v in DEFAULTS[command].items()}


# A value of its option's type for each option whose default is None (paths take "x").
VALUES = {"created_at": 5, "folds": 3, "val_supports": "1,1,1", "test_supports": [1, 1, 1]}


@pytest.mark.parametrize("command", sorted(DEFAULTS))
def test_every_option_is_a_config_key(tmp_path, command):
    # Keys in flag spelling; "in" is the config name of --in (in_path).
    config = {("in" if key == "in_path" else key.replace("_", "-")):
              VALUES.get(key, "x") if default is None else default
              for key, default in DEFAULTS[command].items()}
    assert set(with_config(tmp_path, command, config)) == set(DEFAULTS[command])


@pytest.mark.parametrize("command", sorted(DEFAULTS))
def test_unknown_config_key_is_refused(tmp_path, command):
    with pytest.raises(ConfigError, match="unknown option"):
        with_config(tmp_path, command, {"no-such-option": 1})


def test_in_config_key_aliases_in_path(tmp_path):
    assert with_config(tmp_path, "augment", {"in": "a.ndjson"})["in_path"] == "a.ndjson"
    assert with_config(tmp_path, "score-batch", {"in": "r.ndjson"},
                       "--in", "s.ndjson")["in_path"] == "s.ndjson"


# (command, key, config value, flag argv, flag value): one case per value type.
PRECEDENCE = [
    ("split", "folds", 3, ["--folds", "4"], 4),                        # int
    ("augment", "rate", 0.25, ["--rate", "0.75"], 0.75),               # float
    ("tune", "version", "from-file", ["--version", "from-flag"], "from-flag"),  # str
    ("evaluate", "setting", "logs", ["--setting", "fused"], "fused"),  # choice
    ("augment", "replace", True, ["--no-replace"], False),             # --replace/--no-replace
    ("augment", "replace", False, ["--replace"], True),
]


@pytest.mark.parametrize("command,key,file_value,flag,flag_value", PRECEDENCE)
def test_flag_over_config_over_default(tmp_path, command, key, file_value, flag, flag_value):
    config_key = key.replace("_", "-")
    assert merged([command])[key] == DEFAULTS[command][key]
    assert with_config(tmp_path, command, {config_key: file_value})[key] == file_value
    assert with_config(tmp_path, command, {config_key: file_value}, *flag)[key] == flag_value
    assert merged([command, *flag])[key] == flag_value


def test_invalid_choice_is_a_usage_error():
    with pytest.raises(SystemExit):
        merged(["evaluate", "--setting", "neither"])


# (command, key, config value, merged value): values read as their flag's text would be.
TYPED = [
    ("train-malware", "trees", "5", 5),
    ("generate", "duration_s", 120, 120.0),
    ("tune", "version", 2, "2"),
    ("split", "kind", "K_FOLD", "K_FOLD"),
    ("split", "fractions", [0.5, 0.25, 0.25], [0.5, 0.25, 0.25]),
    ("split", "val_supports", [1, 2, 3], [1, 2, 3]),
    ("augment", "ops", ["CHAR_NOISE"], ["CHAR_NOISE"]),
]


@pytest.mark.parametrize("command,key,file_value,value", TYPED)
def test_config_values_go_through_the_option_type(tmp_path, command, key, file_value, value):
    merged_value = with_config(tmp_path, command, {key.replace("_", "-"): file_value})[key]
    assert merged_value == value and type(merged_value) is type(value)


# (command, key, config value): values whose flag would be refused.
REFUSED = [
    ("train-malware", "trees", "five"),
    ("train-malware", "trees", 5.5),
    ("train-malware", "trees", True),
    ("train-malware", "trees", [5]),
    ("split", "kind", "RANDOM"),
    ("evaluate", "setting", "both"),
    ("augment", "replace", "x"),
    ("augment", "replace", 1),
    ("augment", "out", {"path": "x"}),
    ("augment", "out", None),
    ("split", "fractions", {"train": 0.6}),
]


@pytest.mark.parametrize("command,key,file_value", REFUSED)
def test_config_values_the_flag_would_refuse_are_config_errors(tmp_path, command, key,
                                                               file_value):
    config_key = key.replace("_", "-")
    with pytest.raises(ConfigError, match=f"option {config_key!r}: "):
        with_config(tmp_path, command, {config_key: file_value})


@pytest.mark.parametrize("text", [b'{"trees": "\xff"}', b"[" * 100_000 + b"]" * 100_000,
                                  b'{"trees": ' + b"1" * 5000 + b"}"],
                         ids=["not-utf8", "deep-nesting", "5000-digits"])
def test_unreadable_config_file_is_a_config_error(tmp_path, text):
    path = tmp_path / "config.json"
    path.write_bytes(text)
    with pytest.raises(ConfigError, match="cannot read config"):
        merged(["train-malware", "--config", str(path)])
