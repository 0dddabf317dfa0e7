"""scripts/output_digest.py on the bundled benchmarks: one line per verify,
whose verdict and digests agree with the golden trace and dump text, and
whose last column names its fragment."""

from __future__ import annotations

import hashlib
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
DUMP_KEYS = ("uexp1", "uexp2", "spnf1", "spnf2")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _golden_columns(path: Path):
    """(verify, status, trace digest, dumps digest) per verify of one golden
    file, in the layout tests/test_golden_traces.py writes."""
    parts = re.split(r"(?:\A|\n)== (verify\d+): (\S+)\n", path.read_text())
    for name, status, body in zip(parts[1::3], parts[2::3], parts[3::3]):
        *dump_lines, marker, trace = body.split("\n", len(DUMP_KEYS) + 1)
        dumps = dict(line.split(": ", 1) for line in dump_lines)
        assert sorted(dumps) == sorted(DUMP_KEYS) and marker == "-- trace"
        yield (name, status, f"trace={_sha(trace)}",
               "dumps=" + _sha("\n".join(f"{k}: {v}" for k, v in sorted(dumps.items()))))


def test_output_digest_of_the_benchmarks_matches_golden():
    res = subprocess.run([sys.executable, str(ROOT / "scripts" / "output_digest.py")],
                         capture_output=True, text=True, timeout=120, check=True)
    rows = [line.split("\t") for line in res.stdout.splitlines()]
    want = [(f"benchmarks/{g.stem}.cos", *cols)
            for g in sorted(GOLDEN.glob("*.txt")) for cols in _golden_columns(g)]
    assert len(rows) == len(want) == 8
    for row, (source, name, status, trace, dumps) in zip(rows, want):
        assert len(row) == 9
        assert (row[0], row[1], row[2], row[4], row[5]) == (source, name, status,
                                                             trace, dumps)
        assert row[6] == "witness=-"
        assert row[7].startswith('{"canonize": ')
        assert row[8] in ("ucq-bag", "ucq-set", "general")
