"""scripts/scaling.py at tiny sizes: one row per requested family and size,
with the verdict each family is built to get."""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_scaling_rows_at_tiny_sizes(tmp_path):
    rows = {"join_chain=4": "EQUIVALENT", "symmetric_self_join=3": "NOT_PROVED",
            "nested_projection=2": "EQUIVALENT", "index_join_back=2": "EQUIVALENT",
            "wide_union=4": "EQUIVALENT",
            "union_all=4": "EQUIVALENT", "union_all_miss=3": "NOT_EQUIVALENT",
            "union_derived=4": "EQUIVALENT", "union_exists=4": "EQUIVALENT",
            "union_agg=4": "EQUIVALENT", "wide_from=3": "EQUIVALENT",
            "derived_from=3": "EQUIVALENT",
            "fk_cycle=1": "NOT_PROVED", "wide_and=4": "EQUIVALENT",
            "wide_or=4": "EQUIVALENT", "self_join_offset=3": "NOT_PROVED",
            "refute_unread=2": "NOT_PROVED"}
    res = subprocess.run([sys.executable, str(ROOT / "scripts" / "scaling.py"),
                          "--timeout", "30", "--json", str(tmp_path / "b.json"), *rows],
                         capture_output=True, text=True, timeout=120, check=True)
    lines = [line.split("\t") for line in res.stdout.splitlines()]
    assert len(lines) == len(rows)
    for (family, size, ms, verdict, steps), (row, want) in zip(lines, rows.items()):
        assert f"{family}={size}" == row
        assert float(ms) > 0 and int(steps) > 0
        assert verdict == want
    doc = json.loads((tmp_path / "b.json").read_text())
    assert (doc["seed"], doc["timeout_s"]) == (1, 30.0)
    assert doc["setup_ms"] > 0
    for got, (family, size, ms, verdict, steps) in zip(doc["rows"], lines, strict=True):
        assert (got["family"], got["size"], got["ms"], got["verdict"]) == \
            (family, int(size), float(ms), verdict)
        split = got["steps"]
        assert split["total"] == int(steps) == \
            split["normalize"] + split["canonize"] + split["search"]


def test_scaling_keyed_and_fk_families_at_tiny_sizes(tmp_path):
    rows = {"keyed_collapse=3": "EQUIVALENT", "distinct_fk=2": "EQUIVALENT"}
    res = subprocess.run([sys.executable, str(ROOT / "scripts" / "scaling.py"),
                          "--timeout", "30", "--json", str(tmp_path / "b.json"), *rows],
                         capture_output=True, text=True, timeout=120, check=True)
    lines = [line.split("\t") for line in res.stdout.splitlines()]
    assert [(f"{family}={size}", verdict) for family, size, _, verdict, _ in lines] \
        == list(rows.items())
    doc = json.loads((tmp_path / "b.json").read_text())
    assert all(row["steps"]["canonize"] > 0 for row in doc["rows"])


def test_scaling_shared_union_cancels_every_branch(tmp_path):
    res = subprocess.run([sys.executable, str(ROOT / "scripts" / "scaling.py"),
                          "--json", str(tmp_path / "b.json"), "shared_union=4"],
                         capture_output=True, text=True, timeout=120, check=True)
    [(family, size, _, verdict, _)] = [line.split("\t") for line in res.stdout.splitlines()]
    assert (family, size, verdict) == ("shared_union", "4", "EQUIVALENT")
    [row] = json.loads((tmp_path / "b.json").read_text())["rows"]
    # the branches are summation-free and shared, so none is canonized and
    # the search takes one step per branch on top of its own two
    assert row["steps"]["canonize"] == 0 and row["steps"]["search"] == 4 + 2


def test_scaling_rejects_an_unknown_family():
    res = subprocess.run([sys.executable, str(ROOT / "scripts" / "scaling.py"),
                          "cross_join=3"], capture_output=True, text=True,
                         timeout=60)
    assert res.returncode == 2 and "FAMILY=SIZE" in res.stderr


def test_scaling_reports_a_failing_row_and_runs_the_rest(monkeypatch, capsys, tmp_path):
    spec = importlib.util.spec_from_file_location("scaling",
                                                  ROOT / "scripts" / "scaling.py")
    scaling = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scaling)
    real = scaling.measure

    def measure(family, size, timeout_s, seed):
        if family == "wide_union":
            raise RecursionError("maximum recursion depth exceeded")
        return real(family, size, timeout_s, seed)

    monkeypatch.setattr(scaling, "measure", measure)
    out = tmp_path / "b.json"
    code = scaling.main(["join_chain=3", "wide_union=4", "nested_projection=2",
                         "--json", str(out)])
    lines = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
    assert code == 1
    assert [line[:2] for line in lines] == [["join_chain", "3"], ["wide_union", "4"],
                                            ["nested_projection", "2"]]
    assert lines[1] == ["wide_union", "4", "-", "ERROR:RecursionError", "-"]
    assert lines[0][3] == lines[2][3] == "EQUIVALENT"
    failed = json.loads(out.read_text())["rows"][1]
    assert failed == {"family": "wide_union", "size": 4, "ms": None,
                      "verdict": "ERROR:RecursionError", "steps": None}


def test_scaling_refute_sweep_runs_every_database_and_finds_no_witness(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("scaling",
                                                  ROOT / "scripts" / "scaling.py")
    scaling = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scaling)
    from semiq import pipeline
    runs, interps = [], []
    real_run, real_interp = scaling.run_program_text, pipeline.interp_query

    def run(text, **kw):
        runs.append((kw, real_run(text, **kw)))
        return runs[-1][1]

    monkeypatch.setattr(scaling, "run_program_text", run)
    monkeypatch.setattr(pipeline, "interp_query",
                        lambda *a: interps.append(1) or real_interp(*a))
    assert scaling.main(["refute_sweep=2"]) == 0
    [(family, size, _, verdict, _)] = [line.split("\t")
                                       for line in capsys.readouterr().out.splitlines()]
    assert (family, size, verdict) == ("refute_sweep", "2", "NOT_PROVED")
    [(kw, [out])] = runs
    assert kw["refute"] is True and out.witness is None
    assert len(interps) == 2 * 200  # both sides on every database
