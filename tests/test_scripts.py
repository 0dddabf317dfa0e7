"""scripts/run_benchmarks.py and scripts/random_soundness.py at tiny sizes:
each exits 0 with the summary it is built to print."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(script: str, *args: str) -> str:
    res = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                         capture_output=True, text=True, timeout=120, check=True)
    return res.stdout


def test_run_benchmarks_passes_every_bundled_program():
    lines = _run("run_benchmarks.py").splitlines()
    assert len(lines) == 8
    assert all(line.startswith("[ok ]") for line in lines)


def test_random_soundness_finds_no_disagreement():
    out = _run("random_soundness.py", "--pairs", "5", "--dbs", "5")
    assert "disagreements=0" in out
