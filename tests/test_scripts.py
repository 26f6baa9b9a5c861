import subprocess
import sys
from pathlib import Path

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


def test_run_sweep_rejects_max_eval_windows_below_one(tmp_path):
    out = tmp_path / "sweep"
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_sweep.py"),
         "--max-eval-windows", "0", "--out", str(out)],
        capture_output=True, text=True, timeout=60)
    assert result.returncode == 2
    assert "max_eval_windows must be >= 1" in result.stderr
    assert not out.exists()  # rejected before any work
