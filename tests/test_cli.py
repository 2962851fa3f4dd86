import hashlib
import json
import resource
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from aisoc.cli import main
from aisoc.corpus import (
    SplitKind,
    SplitSpec,
    k_fold,
    load_log_ndjson,
    load_malware_csv,
    split,
    write_log_ndjson,
    write_malware_csv,
)
from aisoc.corpus.generate import MAX_GENERATED_ITEMS
from aisoc.errors import ArtifactError
from aisoc.evaluate import build_manifest, write_manifest
from aisoc.pipeline import ExperimentConfig, generate_logs, generate_malware_rows, split_malware
from aisoc.service import load_artifact, save_artifact

SRC = str(Path(__file__).resolve().parents[1] / "src")


def sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def training_stages(splits: Path, artifact: Path) -> list[list[str]]:
    """The workspace's train-log -> train-malware -> calibrate -> tune commands."""
    return [[*argv, "--artifact", str(artifact), "--seed", "7"] for argv in (
        ["train-log", "--train", str(splits / "logs_train.ndjson")],
        ["train-malware", "--train", str(splits / "malware_train.csv"), "--trees", "20"],
        ["calibrate", "--val-logs", str(splits / "logs_validation.ndjson"),
         "--val-malware", str(splits / "malware_validation.csv")],
        ["tune", "--manifest", str(splits / "manifest_validation.ndjson")],
    )]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One full CLI pipeline: generate -> split -> train -> calibrate -> tune."""
    root = tmp_path_factory.mktemp("cli")
    logs = root / "logs.ndjson"
    malware = root / "malware.csv"
    splits = root / "splits"
    assert main(["generate", "--out-logs", str(logs), "--out-malware", str(malware),
                 "--seed", "7", "--attack-sessions", "10", "--duration-s", "1500",
                 "--malware-benign", "200", "--malware-malicious", "200"]) == 0
    assert main(["split", "--logs", str(logs), "--malware", str(malware),
                 "--out-dir", str(splits), "--seed", "7"]) == 0
    for argv in training_stages(splits, root / "artifact.json"):
        assert main(argv) == 0
    return root


def copied_artifact(workspace: Path, tmp_path: Path) -> Path:
    artifact = tmp_path / "artifact.json"
    artifact.write_bytes((workspace / "artifact.json").read_bytes())
    return artifact


class TestPipelineCommands:
    def test_generate_is_checksum_deterministic(self, tmp_path):
        paths = []
        for name in ("a", "b"):
            logs = tmp_path / f"logs_{name}.ndjson"
            malware = tmp_path / f"malware_{name}.csv"
            assert main(["generate", "--out-logs", str(logs), "--out-malware",
                         str(malware), "--seed", "21", "--attack-sessions", "2",
                         "--duration-s", "120", "--malware-benign", "30",
                         "--malware-malicious", "30"]) == 0
            paths.append((logs, malware))
        assert sha(paths[0][0]) == sha(paths[1][0])
        assert sha(paths[0][1]) == sha(paths[1][1])

    def test_generate_writes_the_pipeline_telemetry(self, tmp_path):
        out_logs, out_malware = tmp_path / "logs.ndjson", tmp_path / "malware.csv"
        assert main(["generate", "--out-logs", str(out_logs), "--out-malware", str(out_malware),
                     "--seed", "21", "--benign-hosts", "2", "--attack-sessions", "3",
                     "--duration-s", "150", "--benign-rate", "0.4", "--malware-benign", "25",
                     "--malware-malicious", "15", "--malware-features", "5",
                     "--malware-separation", "2.5", "--malware-hard-fraction", "0.2"]) == 0
        config = ExperimentConfig(
            seed=21, benign_hosts=2, attack_sessions=3, duration_s=150.0,
            benign_rate_per_host=0.4, malware_benign=25, malware_malicious=15,
            malware_features=5, malware_separation=2.5, malware_hard_fraction=0.2)
        logs, rows = generate_logs(config), generate_malware_rows(config)
        write_log_ndjson(logs, tmp_path / "expected.ndjson")
        write_malware_csv(rows, tmp_path / "expected.csv")
        assert out_logs.read_bytes() == (tmp_path / "expected.ndjson").read_bytes()
        assert out_malware.read_bytes() == (tmp_path / "expected.csv").read_bytes()

    def test_split_writes_the_pipeline_malware_split_and_manifests(self, workspace, tmp_path):
        out, expected = tmp_path / "splits", tmp_path / "expected"
        expected.mkdir()
        assert main(["split", "--logs", str(workspace / "logs.ndjson"),
                     "--malware", str(workspace / "malware.csv"), "--out-dir", str(out),
                     "--seed", "5", "--fractions", "0.5,0.25,0.25",
                     "--val-supports", "3,4,5", "--test-supports", "2,7,1"]) == 0
        fractions = (0.5, 0.25, 0.25)
        log_split = split(load_log_ndjson(workspace / "logs.ndjson").records,
                          SplitSpec(kind=SplitKind.TIME_ORDERED, fractions=fractions, seed=5))
        rows = load_malware_csv(workspace / "malware.csv", id_column="sample_id").samples
        mal_split = split_malware(rows, fractions, 5)
        for name in ("train", "validation", "test"):
            write_malware_csv(getattr(mal_split, name), expected / f"malware_{name}.csv")
        for name, supports in (("validation", (3, 4, 5)), ("test", (2, 7, 1))):
            write_manifest(build_manifest(getattr(log_split, name), getattr(mal_split, name),
                                          supports=supports),
                           expected / f"manifest_{name}.ndjson")
        for path in sorted(expected.iterdir()):
            assert (out / path.name).read_bytes() == path.read_bytes(), path.name

    def test_tune_prints_thresholds_and_macro_f1(self, workspace, capsys):
        artifact = workspace / "artifact.json"
        manifest = workspace / "splits" / "manifest_validation.ndjson"
        exported = workspace / "thresholds.json"
        assert main(["tune", "--artifact", str(artifact), "--manifest", str(manifest),
                     "--grid-step", "0.01", "--export-thresholds", str(exported)]) == 0
        out = capsys.readouterr().out
        assert "t_m=" in out and "t_l=" in out and "macro-F1" in out
        assert out.endswith(f"; artifact SERVING {load_artifact(artifact).checksum[:19]}\n"
                            f"wrote thresholds JSON to {exported}\n")
        exported_config = json.loads(exported.read_text())
        assert set(exported_config) == {"t_m", "t_l", "grid_step", "tuned_on", "version"}

    def test_evaluate_emits_table_and_json(self, workspace, capsys, tmp_path):
        json_out = tmp_path / "report.json"
        assert main(["evaluate", "--artifact", str(workspace / "artifact.json"),
                     "--manifest", str(workspace / "splits" / "manifest_test.ndjson"),
                     "--setting", "fused", "--json-out", str(json_out)]) == 0
        out = capsys.readouterr().out
        assert "Macro average" in out
        payload = json.loads(json_out.read_text())
        assert payload["setting"] == "fused"
        assert {c["name"] for c in payload["classes"]} \
            == {"NORMAL", "SUSPICIOUS", "HIGH_CONFIDENCE_ATTACK"}

    def test_probe_runs(self, workspace, capsys):
        assert main(["probe", "--artifact", str(workspace / "artifact.json"),
                     "--manifest", str(workspace / "splits" / "manifest_test.ndjson"),
                     "--rate", "0.5", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "fused macro-F1" in out

    def test_augment_writes_variants(self, workspace, tmp_path, capsys):
        out_path = tmp_path / "aug.ndjson"
        assert main(["augment", "--in", str(workspace / "logs.ndjson"),
                     "--out", str(out_path), "--rate", "1.0", "--seed", "3",
                     "--ops", "CHAR_NOISE"]) == 0
        assert "augmented" in capsys.readouterr().out
        assert out_path.exists()

    def test_score_batch_command(self, workspace, tmp_path, capsys):
        requests = tmp_path / "req.ndjson"
        results = tmp_path / "res.ndjson"
        requests.write_text('{"log_message": "audit: execve /bin/bash -i pid=9 ppid=1 uid=0"}\n')
        assert main(["score-batch", "--artifact", str(workspace / "artifact.json"),
                     "--in", str(requests), "--out", str(results)]) == 0
        [line] = results.read_text().splitlines()
        assert "label" in json.loads(line)

    def test_score_batch_counts_error_lines_apart(self, workspace, tmp_path, capsys):
        requests = tmp_path / "req.ndjson"
        results = tmp_path / "res.ndjson"
        requests.write_text('{"log_message": "sshd: Accepted password for bob"}\n'
                            '{"log_message": \n[1, 2]\n')
        assert main(["score-batch", "--artifact", str(workspace / "artifact.json"),
                     "--in", str(requests), "--out", str(results)]) == 0
        assert capsys.readouterr().out \
            == f"scored 1 request(s) and 2 error line(s) into {results}\n"
        assert [sorted(json.loads(line)) for line in results.read_text().splitlines()] \
            == [["label", "s_l"], ["error", "line"], ["error", "line"]]

    def test_save_restamps_created_at(self, workspace, tmp_path):
        out = tmp_path / "restamped.json"
        assert main(["save", "--artifact", str(workspace / "artifact.json"),
                     "--out", str(out), "--created-at", "12345"]) == 0
        envelope = json.loads(out.read_text())
        assert envelope["payload"]["created_at"] == 12345


def run_chain(root: Path) -> None:
    """generate -> split -> train-log -> train-malware -> calibrate -> tune -> evaluate."""
    logs, malware = root / "logs.ndjson", root / "malware.csv"
    splits, artifact = root / "splits", root / "artifact.json"
    root.mkdir(parents=True)
    for argv in (
        ["generate", "--out-logs", logs, "--out-malware", malware, "--attack-sessions", "4",
         "--duration-s", "600", "--malware-benign", "80", "--malware-malicious", "80"],
        ["split", "--logs", logs, "--malware", malware, "--out-dir", splits],
        ["train-log", "--train", splits / "logs_train.ndjson", "--artifact", artifact],
        ["train-malware", "--train", splits / "malware_train.csv", "--artifact", artifact,
         "--trees", "10"],
        ["calibrate", "--artifact", artifact, "--val-logs", splits / "logs_validation.ndjson",
         "--val-malware", splits / "malware_validation.csv"],
        ["tune", "--artifact", artifact, "--manifest", splits / "manifest_validation.ndjson"],
        ["evaluate", "--artifact", artifact, "--manifest", splits / "manifest_test.ndjson",
         "--json-out", root / "report.json"],
    ):
        assert main([str(a) for a in argv] + ["--seed", "7"]) == 0


def test_rerunning_the_training_stages_reproduces_the_artifact(workspace, tmp_path):
    artifact = copied_artifact(workspace, tmp_path)
    for argv in training_stages(workspace / "splits", artifact):
        assert main(argv) == 0
    assert artifact.read_bytes() == (workspace / "artifact.json").read_bytes()


@pytest.mark.parametrize("argv, stale", [
    (["train-log", "--train", "logs_train.ndjson", "--l2", "0.5", "--epochs", "5"],
     ["calibrator_logs", "fusion"]),
    (["train-malware", "--train", "malware_train.csv", "--trees", "5"],
     ["calibrator_malware", "fusion"]),
    (["calibrate", "--val-logs", "logs_validation.ndjson",
      "--val-malware", "malware_validation.csv", "--method", "platt"], ["fusion"]),
], ids=["train-log", "train-malware", "calibrate"])
def test_rerunning_a_stage_clears_the_components_it_makes_stale(workspace, tmp_path, capsys,
                                                                argv, stale):
    artifact = copied_artifact(workspace, tmp_path)
    argv = [str(workspace / "splits" / a) if a.endswith((".ndjson", ".csv")) else a
            for a in argv]
    assert main([*argv, "--artifact", str(artifact), "--seed", "7"]) == 0
    assert "artifact PARTIAL" in capsys.readouterr().out
    rerun = load_artifact(artifact)
    assert rerun.missing_components() == stale
    with pytest.raises(ArtifactError, match="PARTIAL"):
        rerun.to_scorer()


def test_tune_refuses_an_artifact_without_calibrators(workspace, tmp_path, capsys):
    artifact = tmp_path / "artifact.json"
    save_artifact(replace(load_artifact(workspace / "artifact.json"), calibrator_logs=None,
                          calibrator_malware=None, fusion=None), artifact)
    before = artifact.read_bytes()
    assert main(["tune", "--manifest", str(workspace / "splits" / "manifest_validation.ndjson"),
                 "--artifact", str(artifact)]) == 2
    assert capsys.readouterr().err == ("error: artifact is PARTIAL and cannot score; missing "
                                       "components: calibrator_logs, calibrator_malware\n")
    assert artifact.read_bytes() == before


def test_tune_leaves_the_artifact_unchanged_when_the_export_is_refused(workspace, tmp_path,
                                                                        capsys):
    artifact = copied_artifact(workspace, tmp_path)
    before = artifact.read_bytes()
    # a new version tag: a saved artifact would differ from the copied one
    assert main(["tune", "--manifest", str(workspace / "splits" / "manifest_validation.ndjson"),
                 "--artifact", str(artifact), "--version", "2",
                 "--export-thresholds", str(tmp_path / "no_dir" / "t.json")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""
    assert artifact.read_bytes() == before


def test_tune_refuses_a_grid_step_below_the_floor(workspace, tmp_path, capsys):
    artifact = copied_artifact(workspace, tmp_path)
    before = artifact.read_bytes()
    assert main(["tune", "--manifest", str(workspace / "splits" / "manifest_validation.ndjson"),
                 "--artifact", str(artifact), "--grid-step", "0.0005"]) == 2
    assert capsys.readouterr().err == "error: grid_step must be in [0.001, 0.5], got 0.0005\n"
    assert artifact.read_bytes() == before


def test_calibrate_refuses_an_artifact_without_the_malware_detector(workspace, tmp_path,
                                                                   capsys):
    splits, artifact = workspace / "splits", tmp_path / "artifact.json"
    assert main(["train-log", "--train", str(splits / "logs_train.ndjson"),
                 "--artifact", str(artifact)]) == 0
    before = artifact.read_bytes()
    capsys.readouterr()
    assert main(["calibrate", "--artifact", str(artifact),
                 "--val-logs", str(splits / "logs_validation.ndjson"),
                 "--val-malware", str(splits / "malware_validation.csv")]) == 2
    assert capsys.readouterr().err == ("error: artifact is PARTIAL and cannot score; missing "
                                       "components: standardizer, forest\n")
    assert artifact.read_bytes() == before


def _unlabel_log_lines(path: Path, out: Path, count: int) -> int:
    """``path`` with the label removed from its first ``count`` MALICIOUS lines,
    written to ``out``; returns the number of lines."""
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    for line in [line for line in lines if line.get("label") == "MALICIOUS"][:count]:
        del line["label"]
    out.write_text("".join(json.dumps(line) + "\n" for line in lines))
    return len(lines)


def _unlabel_csv_rows(path: Path, out: Path, count: int) -> int:
    """``path`` with the label cell of its first ``count`` rows blanked, written
    to ``out``; returns the number of rows."""
    header, *rows = path.read_text().splitlines()
    rows = [row.rsplit(",", 1)[0] + "," if i < count else row for i, row in enumerate(rows)]
    out.write_text("\n".join([header, *rows]) + "\n")
    return len(rows)


# (command, input file, its option, what the error calls its records, unlabeled count)
UNLABELED_INPUTS = [
    ("train-log", "logs_train.ndjson", "--train", "training log records", 28),
    ("train-malware", "malware_train.csv", "--train", "training malware rows", 3),
    ("calibrate", "logs_validation.ndjson", "--val-logs", "validation log records", 10),
    ("calibrate", "malware_validation.csv", "--val-malware", "validation malware rows", 1),
]


@pytest.mark.parametrize("command, name, option, what, count", UNLABELED_INPUTS,
                         ids=["train-log", "train-malware", "calibrate-logs",
                              "calibrate-malware"])
def test_a_stage_refuses_unlabeled_records_and_writes_nothing(workspace, tmp_path, capsys,
                                                              command, name, option, what,
                                                              count):
    artifact, splits = copied_artifact(workspace, tmp_path), workspace / "splits"
    before = artifact.read_bytes()
    unlabeled = tmp_path / name
    unlabel = _unlabel_log_lines if name.endswith(".ndjson") else _unlabel_csv_rows
    total = unlabel(splits / name, unlabeled, count)
    argv = {"train-log": ["train-log"], "train-malware": ["train-malware", "--trees", "5"],
            "calibrate": ["calibrate", "--val-logs", str(splits / "logs_validation.ndjson"),
                          "--val-malware", str(splits / "malware_validation.csv")]}[command]
    assert main([*argv, option, str(unlabeled), "--artifact", str(artifact)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {count} of {total} {what} have no label\n"
    assert captured.out == ""
    assert artifact.read_bytes() == before
    assert sorted(tmp_path.iterdir()) == sorted([artifact, unlabeled])


def test_a_config_file_that_is_not_an_object_is_refused(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text("[1, 2]")
    assert main(["generate", "--config", str(config)]) == 2
    assert capsys.readouterr().err == f"error: {config}: config must be a flat JSON object\n"


def test_evaluate_refuses_an_empty_manifest(workspace, tmp_path, capsys):
    manifest = tmp_path / "manifest.ndjson"
    manifest.write_text("")
    assert main(["evaluate", "--artifact", str(workspace / "artifact.json"),
                 "--manifest", str(manifest), "--json-out", str(tmp_path / "r.json")]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: cannot evaluate an empty manifest\n"
    assert captured.out == "" and not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("command", ["tune", "evaluate", "probe"])
def test_a_manifest_line_without_named_labels_is_refused_by_number(workspace, tmp_path,
                                                                   capsys, command):
    artifact = copied_artifact(workspace, tmp_path)
    before = artifact.read_bytes()
    lines = (workspace / "splits" / "manifest_validation.ndjson").read_text().splitlines()
    unlabeled = json.loads(lines[1])
    unlabeled["log_label"] = 0
    manifest = tmp_path / "manifest.ndjson"
    manifest.write_text("\n".join([lines[0], json.dumps(unlabeled), *lines[2:]]) + "\n")
    assert main([command, "--artifact", str(artifact), "--manifest", str(manifest)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {manifest}: line 2: log_label: 0 is not a valid Label\n"
    assert captured.out == ""
    assert artifact.read_bytes() == before


def test_chain_outputs_do_not_depend_on_the_directory(tmp_path, capsys):
    run_chain(tmp_path / "one")
    run_chain(tmp_path / "elsewhere" / "two")
    for name in ("artifact.json", "report.json"):
        assert (tmp_path / "one" / name).read_bytes() \
            == (tmp_path / "elsewhere" / "two" / name).read_bytes()
    report = json.loads((tmp_path / "one" / "report.json").read_text())
    assert report["fused"]["split"] == "manifest_test.ndjson"


def paths_for(command: str, root: Path) -> list[str]:
    """A one-record log file as the input of ``command`` (augment or split)."""
    logs = root / "l.ndjson"
    logs.write_text('{"timestamp": 1, "host": "h", "channel": "AUTH", "message": "m"}\n')
    if command == "augment":
        return ["--in", str(logs), "--out", str(root / "o.ndjson")]
    return ["--logs", str(logs), "--out-dir", str(root / "d")]


class TestConfigAndErrors:
    def test_config_file_with_flag_override(self, tmp_path, capsys):
        config = tmp_path / "gen.json"
        config.write_text(json.dumps({
            "out-logs": str(tmp_path / "logs.ndjson"),
            "out-malware": str(tmp_path / "malware.csv"),
            "attack-sessions": 2,
            "duration-s": 120,
            "malware-benign": 20,
            "malware-malicious": 20,
            "seed": 5,
        }))
        assert main(["generate", "--config", str(config), "--seed", "9"]) == 0
        # the explicit --seed overrides the config seed; rerunning with the
        # config seed must give different bytes
        first = sha(tmp_path / "logs.ndjson")
        assert main(["generate", "--config", str(config)]) == 0
        assert sha(tmp_path / "logs.ndjson") != first

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"not-an-option": 1}))
        assert main(["generate", "--config", str(config)]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_required_flag_fails_with_diagnostic(self, capsys):
        assert main(["train-log"]) == 2
        assert "--train" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["generate", "--frobnicate"])
        assert excinfo.value.code == 2

    def test_missing_input_file_fails(self, capsys, tmp_path):
        assert main(["evaluate", "--artifact", str(tmp_path / "nope.json"),
                     "--manifest", str(tmp_path / "nope.ndjson")]) == 2
        assert "error" in capsys.readouterr().err

    def test_train_malware_rejects_values_too_large_to_standardize(self, tmp_path, capsys):
        # finite rows pass the loader, but their sum overflows the column mean
        rows = [f"s{i},{1.1 + i / 10}e308,{i}.0,{('BENIGN', 'MALICIOUS')[i % 2]}"
                for i in range(6)]
        train = tmp_path / "malware.csv"
        train.write_text("sample_id,f0,f1,label\n" + "\n".join(rows) + "\n")
        artifact = tmp_path / "artifact.json"
        assert main(["train-malware", "--train", str(train), "--artifact", str(artifact),
                     "--trees", "3"]) == 2
        assert "error: feature columns [0]" in capsys.readouterr().err
        assert not artifact.exists()

    def test_train_malware_rejects_a_table_without_feature_columns(self, tmp_path, capsys):
        train = tmp_path / "malware.csv"
        train.write_text("sample_id,label\n" + "".join(
            f"s{i},{('BENIGN', 'MALICIOUS')[i % 2]}\n" for i in range(6)))
        artifact = tmp_path / "artifact.json"
        assert main(["train-malware", "--train", str(train), "--artifact", str(artifact),
                     "--trees", "3"]) == 2
        assert "error: training features have no columns" in capsys.readouterr().err
        assert not artifact.exists()

    @pytest.mark.parametrize("flags", [
        ["split", "--fractions", "a,b,c"],
        ["split", "--fractions", "0.5,0.5"],
        ["augment", "--ops", "NO_SUCH_OP"],
    ])
    def test_malformed_list_flag_is_an_error_line(self, tmp_path, capsys, flags):
        assert main([flags[0], *paths_for(flags[0], tmp_path), *flags[1:]]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("command,config", [
        ("split", {"fractions": ["a", 0.2, 0.2]}),
        ("split", {"fractions": "0.5"}),
        ("split", {"kind": "RANDOM"}),
        ("augment", {"ops": [5]}),
    ])
    def test_malformed_config_value_is_an_error_line(self, tmp_path, capsys, command, config):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main([command, *paths_for(command, tmp_path), "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("flag", ["--benign-rate", "--duration-s", "--malware-separation"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_generate_rejects_non_finite_values(self, tmp_path, capsys, flag, value):
        logs, malware = tmp_path / "logs.ndjson", tmp_path / "malware.csv"
        assert main(["generate", "--out-logs", str(logs), "--out-malware", str(malware),
                     "--attack-sessions", "0", flag, value]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not logs.exists() and not malware.exists()

    @pytest.mark.parametrize("flags", [["--duration-s", "1e300"],
                                       ["--benign-hosts", "100000000000"],
                                       ["--malware-benign", "100000000000"],
                                       ["--malware-features", "100000000000"]])
    def test_generate_refuses_oversized_scenarios(self, tmp_path, capsys, flags):
        logs, malware = tmp_path / "logs.ndjson", tmp_path / "malware.csv"
        assert main(["generate", "--out-logs", str(logs), "--out-malware", str(malware),
                     *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "limit" in err
        assert not logs.exists() and not malware.exists()

    @pytest.mark.parametrize("fractions,with_malware", [("0.6,0.2,nan", True),
                                                         ("nan,0.2,0.2", False)])
    def test_split_rejects_nan_fractions(self, workspace, tmp_path, capsys, fractions,
                                         with_malware):
        out = tmp_path / "splits"
        extra = ["--malware", str(workspace / "malware.csv")] if with_malware else []
        assert main(["split", "--logs", str(workspace / "logs.ndjson"), *extra,
                     "--out-dir", str(out), "--fractions", fractions]) == 2
        assert capsys.readouterr().err.startswith("error: fractions must be finite")
        assert not (out / "logs_train.ndjson").exists()

    def test_split_refuses_manifest_supports_above_the_generate_limit(self, workspace,
                                                                       tmp_path, capsys):
        out = tmp_path / "splits"
        assert main(["split", "--logs", str(workspace / "logs.ndjson"),
                     "--malware", str(workspace / "malware.csv"), "--out-dir", str(out),
                     "--val-supports", f"1,1,{MAX_GENERATED_ITEMS - 1}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: manifest supports") and "limit" in err
        assert not (out / "manifest_validation.ndjson").exists()

    @pytest.mark.parametrize("flags", [
        ["--kind", "K_FOLD", "--folds", "3", "--malware", "{malware}"],
        ["--kind", "K_FOLD", "--folds", "3", "--val-supports", "1,1,1"],
        ["--kind", "K_FOLD", "--folds", "3", "--test-supports", "1,1,1"],
        ["--val-supports", "1,1,1"],
        ["--test-supports", "1,1,1"],
        ["--folds", "3"],
        ["--kind", "STRATIFIED_RANDOM", "--folds", "3"],
    ], ids=["k-fold-malware", "k-fold-val-supports", "k-fold-test-supports",
            "val-supports-without-malware", "test-supports-without-malware",
            "folds-without-k-fold", "folds-with-stratified"])
    def test_split_refuses_flags_it_would_not_use(self, workspace, tmp_path, capsys, flags):
        out = tmp_path / "splits"
        flags = [flag.format(malware=workspace / "malware.csv") for flag in flags]
        assert main(["split", "--logs", str(workspace / "logs.ndjson"), "--out-dir", str(out),
                     *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flags[-2] in err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--val-supports", "1,1,x"],
        ["--test-supports", "1,1,x"],
        ["--test-supports", f"1,1,{MAX_GENERATED_ITEMS}"],
        ["--id-column", "no_such_column"],
    ], ids=["bad-val-supports", "bad-test-supports", "test-supports-over-limit",
            "bad-malware-file"])
    def test_split_writes_nothing_when_an_input_is_refused(self, workspace, tmp_path, capsys,
                                                           flags):
        out = tmp_path / "splits"
        assert main(["split", "--logs", str(workspace / "logs.ndjson"),
                     "--malware", str(workspace / "malware.csv"), "--out-dir", str(out),
                     *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""
        assert not out.exists()

    def test_split_writes_k_folds_of_all_records(self, workspace, tmp_path, capsys):
        out = tmp_path / "folds"
        assert main(["split", "--logs", str(workspace / "logs.ndjson"), "--out-dir", str(out),
                     "--kind", "K_FOLD", "--folds", "3"]) == 0
        assert capsys.readouterr().out == f"wrote 3 log folds to {out}\n"
        assert sorted(p.name for p in out.iterdir()) == [f"logs_fold{i}.ndjson" for i in range(3)]
        records = load_log_ndjson(workspace / "logs.ndjson").records
        assert sorted(r.message for i in range(3)
                      for r in load_log_ndjson(out / f"logs_fold{i}.ndjson").records) \
            == sorted(r.message for r in records)

    def test_split_k_fold_writes_5_folds_without_folds(self, workspace, tmp_path, capsys):
        out = tmp_path / "folds"
        assert main(["split", "--logs", str(workspace / "logs.ndjson"), "--out-dir", str(out),
                     "--kind", "K_FOLD", "--seed", "3"]) == 0
        assert capsys.readouterr().out == f"wrote 5 log folds to {out}\n"
        folds = k_fold(load_log_ndjson(workspace / "logs.ndjson").records, 5, seed=3)
        for i, fold in enumerate(folds):
            write_log_ndjson(fold, tmp_path / "expected.ndjson")
            assert (out / f"logs_fold{i}.ndjson").read_bytes() \
                == (tmp_path / "expected.ndjson").read_bytes()

    def test_split_scales_automatic_supports_down_to_the_limit(self, workspace, tmp_path,
                                                                 capsys, monkeypatch):
        for module in ("aisoc.cli", "aisoc.evaluate"):
            monkeypatch.setattr(f"{module}.MAX_GENERATED_ITEMS", 10)
        out = tmp_path / "splits"
        assert main(["split", "--logs", str(workspace / "logs.ndjson"),
                     "--malware", str(workspace / "malware.csv"), "--out-dir", str(out)]) == 0
        # the workspace's own split prints (20, 28, 8) for both parts at the full limit
        assert capsys.readouterr().out.count("with supports (3, 5, 1)") == 2
        for name in ("validation", "test"):
            assert len((out / f"manifest_{name}.ndjson").read_text().splitlines()) == 9

    def test_split_refuses_more_folds_than_records(self, tmp_path, capsys):
        assert main(["split", *paths_for("split", tmp_path), "--kind", "K_FOLD",
                     "--folds", "2"]) == 2
        assert capsys.readouterr().err == \
            "error: 2 folds requested but only 1 items available\n"

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_train_log_rejects_non_finite_l2(self, workspace, tmp_path, capsys, value):
        artifact = tmp_path / "artifact.json"
        assert main(["train-log", "--train", str(workspace / "splits" / "logs_train.ndjson"),
                     "--artifact", str(artifact), "--l2", value]) == 2
        assert capsys.readouterr().err.startswith("error: l2 must be a finite number")
        assert not artifact.exists()

    @pytest.mark.parametrize("command, flags, match", [
        ("train-log", ["--epochs", "-3"], "epochs must be >= 1, got -3"),
        ("train-log", ["--max-features", "-1"], "max_features must be None or >= 1, got -1"),
        ("train-log", ["--min-df", "-4"], "min_df must be >= 1, got -4"),
        ("train-malware", ["--max-depth", "-1"], "max_depth must be >= 1, got -1"),
        ("train-malware", ["--min-leaf", "0"], "min_samples_leaf must be >= 1, got 0"),
        ("train-malware", ["--min-leaf", "-5"], "min_samples_leaf must be >= 1, got -5"),
    ])
    def test_training_rejects_sizes_below_one(self, workspace, tmp_path, capsys, command,
                                              flags, match):
        train = "logs_train.ndjson" if command == "train-log" else "malware_train.csv"
        artifact = tmp_path / "artifact.json"
        assert main([command, "--train", str(workspace / "splits" / train),
                     "--artifact", str(artifact), *flags]) == 2
        assert capsys.readouterr().err.startswith(f"error: {match}")
        assert not artifact.exists()

    def test_forest_size_is_bounded_before_memory_runs_out(self, workspace, tmp_path):
        # 1 GiB of address space: an unbounded forest fails with MemoryError
        # here instead of growing until the host runs out of memory.
        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        artifact = tmp_path / "artifact.json"
        result = subprocess.run(
            [sys.executable, "-m", "aisoc", "train-malware",
             "--train", str(workspace / "splits" / "malware_train.csv"),
             "--artifact", str(artifact), "--trees", "1000000000"],
            capture_output=True, text=True, timeout=120, preexec_fn=limit_memory,
            env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"})
        assert result.returncode == 2, result.stderr
        assert result.stderr.startswith("error: a forest of 1000000000 trees on ")
        assert "over the limit of 10000 trees" in result.stderr
        assert not artifact.exists()

    def test_module_entrypoint_subprocess(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "aisoc", "generate",
             "--out-logs", str(tmp_path / "l.ndjson"),
             "--out-malware", str(tmp_path / "m.csv"),
             "--attack-sessions", "1", "--duration-s", "60",
             "--malware-benign", "10", "--malware-malicious", "10", "--seed", "3"],
            capture_output=True, text=True,
            env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"})
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "l.ndjson").exists()


def test_calibrate_reports_skipped_validation_lines_and_rows(workspace, tmp_path, capsys):
    splits = workspace / "splits"
    artifact = tmp_path / "artifact.json"
    artifact.write_bytes((workspace / "artifact.json").read_bytes())
    logs = tmp_path / "val_logs.ndjson"
    logs.write_text((splits / "logs_validation.ndjson").read_text() + "{broken\n")
    malware = tmp_path / "val_malware.csv"
    header, *rows = (splits / "malware_validation.csv").read_text().splitlines()
    broken = rows[0].split(",")
    broken[1] = "not-a-number"
    malware.write_text("\n".join([header, *rows, ",".join(broken)]) + "\n")
    capsys.readouterr()
    assert main(["calibrate", "--artifact", str(artifact), "--val-logs", str(logs),
                 "--val-malware", str(malware), "--seed", "7"]) == 0
    err = capsys.readouterr().err
    assert "skipped 1 malformed validation log line(s)" in err
    assert "skipped 1 malformed validation malware row(s)" in err
    # the broken line and row are dropped, so the calibrators match the clean files'
    from aisoc.service import load_artifact

    fixed, clean = load_artifact(artifact), load_artifact(workspace / "artifact.json")
    for name in ("calibrator_logs", "calibrator_malware"):
        assert getattr(fixed, name).to_dict() == getattr(clean, name).to_dict()


def test_bad_input_lines_end_in_typed_outcomes(workspace, tmp_path, capsys):
    artifact, splits = str(workspace / "artifact.json"), workspace / "splits"
    logs = tmp_path / "logs.ndjson"
    logs.write_bytes((splits / "logs_train.ndjson").read_bytes()
                     + b"[" * 100_000 + b"]" * 100_000 + b"\n")
    assert main(["augment", "--in", str(logs), "--out", str(tmp_path / "aug.ndjson")]) == 0
    assert main(["train-log", "--train", str(logs), "--artifact", str(tmp_path / "a.json")]) == 0
    assert capsys.readouterr().err.count("skipped 1 malformed") == 2
    manifest = tmp_path / "manifest.ndjson"
    lines = (splits / "manifest_test.ndjson").read_text().splitlines()
    manifest.write_text("\n".join(lines + ["[1, 2]"]) + "\n")
    assert main(["evaluate", "--artifact", artifact, "--manifest", str(manifest)]) == 2
    assert f"line {len(lines) + 1}: line is not a JSON object" in capsys.readouterr().err
    requests = tmp_path / "requests.ndjson"
    requests.write_bytes(b'{"log_message": "sshd: Accepted password for bob"}\n\xff\n')
    assert main(["score-batch", "--artifact", artifact, "--in", str(requests)]) == 0
    first, second = capsys.readouterr().out.splitlines()
    assert "label" in json.loads(first)
    assert json.loads(second) == {"error": "'utf-8' codec can't decode byte 0xff in position 0: "
                                           "invalid start byte", "line": 2}
    forest = tmp_path / "forest.json"
    assert main(["train-malware", "--train", str(splits / "malware_train.csv"),
                 "--artifact", str(forest), "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    assert not forest.exists()
    # a port past int()'s 4300-digit limit, with and without leading zeros; the
    # error echoes a bounded excerpt of the value and its length
    for port in ("http", "9" * 5000, "0" * 5000 + "99999"):
        bind = "127.0.0.1:" + port
        assert main(["serve", "--artifact", artifact, "--bind", bind]) == 2
        err = capsys.readouterr().err
        assert "error: --bind must be host:port" in err
        assert len(err) < 100 and (port == "http" or f"({len(bind)} chars)" in err), err
