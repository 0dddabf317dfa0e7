"""Byte-identical proof traces and dumps on the bundled benchmarks.

Each ``benchmarks/<name>.cos`` has a golden file ``tests/golden/<name>.txt``
holding, per verify, the verdict, the ``--dump-uexp``/``--dump-spnf`` text
and ``Trace.render()``.  A refactor that changes any of them fails here.
After an intended change of output, regenerate the files with

    PYTHONPATH=src python tests/test_golden_traces.py

and review the diff.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from semiq import build_env, parse
from semiq.pipeline import run_verify

ROOT = Path(__file__).resolve().parent.parent
BENCHMARKS = sorted((ROOT / "benchmarks").glob("*.cos"))
GOLDEN = Path(__file__).resolve().parent / "golden"


def render(path: Path) -> str:
    program = parse(path.read_text())
    env = build_env(program)
    lines = []
    for i, stmt in enumerate(program.verifies(), start=1):
        out = run_verify(stmt, f"verify{i}", env, dump_uexp=True, dump_spnf=True)
        lines.append(f"== verify{i}: {out.status}")
        for key in ("uexp1", "uexp2", "spnf1", "spnf2"):
            lines.append(f"{key}: {out.dumps[key]}")
        lines.append("-- trace")
        lines.append(out.trace.render())
    return "\n".join(lines)


@pytest.mark.parametrize("path", BENCHMARKS, ids=lambda p: p.stem)
def test_trace_and_dumps_match_golden(path):
    expected = (GOLDEN / f"{path.stem}.txt").read_text()
    assert render(path) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for path in BENCHMARKS:
        (GOLDEN / f"{path.stem}.txt").write_text(render(path))
