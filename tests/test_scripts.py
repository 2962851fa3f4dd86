"""The example scripts run against the current API."""

import re
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
