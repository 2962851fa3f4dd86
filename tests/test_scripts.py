"""The example scripts run against the current API."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

from aisoc.service import load_artifact

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name: str, *args: str) -> str:
    result = subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_run_demo_saves_the_artifact_whose_version_it_prints(tmp_path):
    out = run_script("run_demo.py", "--out-dir", str(tmp_path))
    printed = re.search(r"^artifact ([0-9a-f]{12}) ", out, re.MULTILINE)
    assert printed, out
    assert load_artifact(tmp_path / "artifact.json").version == printed.group(1)


def test_run_robustness_sweeps_one_rate():
    out = run_script("run_robustness.py", "--rates", "0.5")
    assert re.search(r"^ +0\.50 ", out, re.MULTILINE), out
    assert "fused >= best single modality" in out


DIGESTS = (
    "pipeline.artifact", "pipeline.report_logs", "pipeline.report_malware",
    "pipeline.report_fused", "pipeline.validation_macro_f1", "cli.artifact", "cli.report",
    "cli.score_batch", "cli.probe", "cli.stage_artifacts", "batch.repeats", "http.replies",
    "loaders.logs", "loaders.manifest", "loaders.score_batch", "batch.errors",
    "logistic.balanced", "logistic.seed1234", "dedup.kept_0.9", "dedup.kept_0.7", "forest.ties",
    "forest.overflow_1e308", "forest.no_bootstrap_leaf5", "forest.d20", "forest.wide",
    "metrics.ranks", "metrics.isotonic", "metrics.report", "augment.ops", "corpus.generate",
)


def test_output_digests_prints_the_same_named_digests_twice(tmp_path):
    chain = tmp_path / "chain"
    outputs = []
    for _ in range(2):
        outputs.append(run_script("output_digests.py", str(chain)))
        shutil.rmtree(chain)
    lines = outputs[0].splitlines()
    assert [line.split(" ")[0] for line in lines] == list(DIGESTS)
    assert all(re.fullmatch(r"\S+ [0-9a-f]{64}", line) for line in lines), outputs[0]
    assert outputs[1] == outputs[0]


def test_output_digests_refuses_a_chain_dir_that_is_not_empty(tmp_path):
    kept = tmp_path / "artifact.json"
    kept.write_text("{}")
    result = subprocess.run([sys.executable, str(SCRIPTS / "output_digests.py"), str(tmp_path)],
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 2 and result.stdout == ""
    assert "must be an empty directory" in result.stderr
    assert [p.name for p in tmp_path.iterdir()] == ["artifact.json"]
    assert kept.read_text() == "{}"
