import subprocess
import sys
from pathlib import Path

import pytest

from tinyhar import mcu

ROOT = Path(__file__).resolve().parents[1]


def test_run_pipeline_smoke(tmp_path):
    out = tmp_path / "pipeline"
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_pipeline.py"),
         "--duration-s", "60", "--epochs", "1", "--filters", "8",
         "--group", "17", "--out", str(out)],
        capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    rows = [line.split() for line in result.stdout.splitlines()]
    verdicts = [row[:2] for row in rows
                if row and row[0] in mcu.BUILTIN_PROFILES]
    assert sorted(name for name, _ in verdicts) == sorted(mcu.BUILTIN_PROFILES)
    assert all(status in ("feasible", "INFEASIBLE") for _, status in verdicts)
    assert (out / "model_float.thar").is_file()
    assert (out / "model_int8.thar").is_file()


@pytest.mark.parametrize("script, flag, value, rule", [
    ("run_sweep.py", "--max-eval-windows", "0", "at least 1"),
    ("run_sweep.py", "--jobs", "0", "at least 1"),
    ("run_sweep.py", "--epochs", "-1", "at least 0"),
    ("run_pipeline.py", "--filters", "6", "a positive multiple of 4")])
def test_script_rejects_out_of_range_flag(tmp_path, script, flag, value,
                                          rule):
    out = tmp_path / "out"
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), flag, value,
         "--out", str(out)],
        capture_output=True, text=True, timeout=60)
    assert result.returncode == 2
    assert f"argument {flag}: must be {rule}, got {value}" in result.stderr
    assert not out.exists()  # rejected before any work
