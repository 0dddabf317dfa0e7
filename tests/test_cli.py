"""Command-line driver: exit codes, report formats, traces, refutation."""

from __future__ import annotations

import json

import pytest

from semiq.cli import main

from helpers import nested_projection_program, union_subquery_program


def _write(tmp_path, text, name="prog.cos"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_bundled_index_program_exits_zero(benchdir, capsys):
    rc = main([str(benchdir / "index_scan.cos")])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("verify1: EQUIVALENT")


def test_trivial_self_verify(tmp_path, capsys):
    path = _write(tmp_path, """
        schema s(a:int);
        table R(s);
        verify (SELECT x.a AS a FROM R x) (SELECT x.a AS a FROM R x);
    """)
    assert main([path]) == 0


def test_nonequivalent_pair_exits_one_with_witness(tmp_path, capsys):
    path = _write(tmp_path, """
        schema s(a:int, b:int);
        table R(s);
        verify (SELECT x.a AS o FROM R x) (SELECT x.a AS o FROM R x, R y);
    """)
    rc = main([path, "--refute"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "NOT_EQUIVALENT" in out
    assert "counterexample database" in out
    assert "R:" in out


def test_long_union_all_exits_zero(tmp_path, capsys):
    body = " UNION ALL ".join(["R"] * 1200)
    path = _write(tmp_path, f"""
        schema s(a:int);
        table R(s);
        verify ({body}) ({body});
    """)
    assert main([path]) == 0
    assert capsys.readouterr().out.startswith("verify1: EQUIVALENT")


def _wide_where(n: int, op: str, shift: int = 0) -> str:
    return f" {op} ".join(f"x.a = {i + shift}" for i in range(n))


def test_a_1200_way_and_exits_zero(tmp_path, capsys):
    q = f"SELECT x.a AS a FROM R x WHERE {_wide_where(1200, 'AND')}"
    path = _write(tmp_path, f"""
        schema s(a:int, b:int);
        table R(s);
        verify ({q}) ({q});
    """)
    assert main([path]) == 0
    assert capsys.readouterr().out.startswith("verify1: EQUIVALENT")


def test_a_1200_way_or_against_shifted_constants_is_refuted(tmp_path, capsys):
    path = _write(tmp_path, f"""
        schema s(a:int, b:int);
        table R(s);
        verify (SELECT x.a AS a FROM R x WHERE {_wide_where(1200, 'OR')})
               (SELECT x.a AS a FROM R x WHERE {_wide_where(1200, 'OR', 1)});
    """)
    assert main([path, "--refute"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("verify1: NOT_PROVED")
    assert "counterexample database" in out


def test_exists_over_a_wide_union_exits_zero(tmp_path, capsys):
    # the squash over 1,000 branches is one factor of the product, which
    # the normalizer places without keying it
    path = _write(tmp_path, union_subquery_program(
        "SELECT y.a AS a FROM S y WHERE EXISTS ({u})", 1000))
    assert main([path]) == 0
    assert capsys.readouterr().out.startswith("verify1: EQUIVALENT")


def test_parse_error_exits_two(tmp_path, capsys):
    path = _write(tmp_path, "schema s(a:int)")  # missing semicolon
    rc = main([path])
    err = capsys.readouterr().err
    assert rc == 2
    assert "parse error" in err


@pytest.mark.parametrize("literal", ["\u00b2", "12\u00b2"])
def test_superscript_digit_is_a_parse_error(tmp_path, capsys, literal):
    # str.isdigit accepts a superscript two, which int() rejects
    path = _write(tmp_path, f"""
        schema s(a:int);
        table R(s);
        verify (SELECT x.a AS a FROM R x WHERE x.a = {literal}) R;
    """)
    rc = main([path])
    err = capsys.readouterr().err
    assert rc == 2
    assert "unexpected character" in err


def test_semantic_error_exits_two(tmp_path, capsys):
    path = _write(tmp_path, """
        schema s(a:int);
        table R(s);
        verify (SELECT x.a AS a FROM R x) (SELECT x.a AS b FROM R x);
    """)
    rc = main([path])
    err = capsys.readouterr().err
    assert rc == 2
    assert "schemas differ" in err


def test_a_foreign_key_to_a_non_key_exits_two(tmp_path, capsys):
    path = _write(tmp_path, """
        schema s(a:int, b:int);
        table R(s);
        table T(s);
        foreign key R(b) references T(b);
        verify R R;
    """)
    rc = main([path])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err.startswith("semantic error: foreign key target T(b) is not a declared key")


def test_unknown_column_is_a_semantic_error_before_any_verify(tmp_path, capsys):
    # build_env rejects the program, so not even the valid first verify
    # prints a line
    path = _write(tmp_path, """
        schema s(a:int);
        table R(s);
        verify (SELECT * FROM R x) (SELECT * FROM R y);
        verify (SELECT x.z AS z FROM R x) (SELECT x.a AS z FROM R x);
    """)
    rc = main([path])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == ""
    assert err.startswith("semantic error: unknown attribute x.z")


def test_unreadable_file_exits_two(tmp_path, capsys):
    rc = main([str(tmp_path / "absent.cos")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and "absent.cos" in err


@pytest.mark.parametrize("where", ["a file", "under a file"])
def test_a_trace_path_that_is_no_directory_exits_two(where, tmp_path, benchdir, capsys):
    blocker = tmp_path / "taken"
    blocker.write_text("")
    trace = blocker if where == "a file" else blocker / "traces"
    rc = main([str(benchdir / "index_scan.cos"), "--trace", str(trace)])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err.startswith("error:") and str(trace) in err
    assert blocker.read_text() == ""


def test_a_trace_file_that_cannot_be_written_exits_two(tmp_path, benchdir, capsys):
    (tmp_path / "verify1.trace").mkdir()
    rc = main([str(benchdir / "index_scan.cos"), "--trace", str(tmp_path)])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "verify1.trace" in err


def test_json_report_schema(tmp_path, capsys):
    path = _write(tmp_path, """
        schema s(a:int);
        table R(s);
        verify R R;
        verify (SELECT x.a AS a FROM R x) R;
    """)
    rc = main([path, "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert [v["name"] for v in doc["verifies"]] == ["verify1", "verify2"]
    for v in doc["verifies"]:
        assert set(v) == {"name", "status", "fragment", "wall_ms", "steps",
                          "trace_path", "witness", "detail"}
        assert v["status"] == "EQUIVALENT"


def test_trace_files_written_and_deterministic(tmp_path, benchdir, capsys):
    tdir1 = tmp_path / "t1"
    tdir2 = tmp_path / "t2"
    main([str(benchdir / "index_scan.cos"), "--trace", str(tdir1)])
    main([str(benchdir / "index_scan.cos"), "--trace", str(tdir2)])
    capsys.readouterr()
    tr1 = (tdir1 / "verify1.trace").read_text()
    tr2 = (tdir2 / "verify1.trace").read_text()
    assert tr1 == tr2
    assert "RULE key-collapse" in tr1
    assert "PERMUTATION" in tr1


def test_dump_flags(tmp_path, capsys):
    path = _write(tmp_path, """
        schema s(a:int);
        table R(s);
        verify (SELECT x.a AS a FROM R x) R;
    """)
    rc = main([path, "--dump-uexp", "--dump-spnf"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "uexp1:" in out and "spnf2:" in out


def test_timeout_flag_reports_resource_exhaustion(tmp_path, capsys):
    # an adversarial wide product that cannot finish in ~0 seconds
    body = " UNION ALL ".join(
        f"(SELECT x{i}.a AS o FROM R x{i}, R y{i}, R z{i}, R w{i})"
        for i in range(6))
    path = _write(tmp_path, f"""
        schema s(a:int, b:int);
        table R(s);
        verify ({body}) ({body});
    """)
    rc = main([path, "--timeout", "0.000001"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "RESOURCE_EXHAUSTED" in out


def test_internal_failure_is_an_error_verdict_and_the_rest_still_run(
        tmp_path, capsys, monkeypatch):
    import semiq.cli as cli
    real = cli.decide_verify

    def failing_first(prepared, *args, **kw):
        if prepared.name == "verify1":
            raise RecursionError("maximum recursion depth exceeded")
        return real(prepared, *args, **kw)

    monkeypatch.setattr(cli, "decide_verify", failing_first)
    path = _write(tmp_path, """
        schema s(a:int, b:int);
        table R(s);
        verify R R;
        verify (SELECT x.a AS o FROM R x) (SELECT x.a AS o FROM R x, R y);
        verify R R;
    """)
    rc = main([path])
    lines = capsys.readouterr().out.splitlines()
    # 3, not the 1 of the NOT_EQUIVALENT verdict beside it
    assert rc == 3
    assert lines[0].startswith("verify1: ERROR (")
    assert lines[1] == "  note: RecursionError: maximum recursion depth exceeded"
    assert lines[2].startswith("verify2: NOT_EQUIVALENT")
    assert lines[3].startswith("verify3: EQUIVALENT")

    rc = main([path, "--json", "--trace", str(tmp_path / "traces")])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 3
    first, second, third = doc["verifies"]
    assert first["status"] == "ERROR" and first["trace_path"] is None
    assert first["detail"] == "RecursionError: maximum recursion depth exceeded"
    assert (second["status"], third["status"]) == ("NOT_EQUIVALENT", "EQUIVALENT")


def test_internal_failure_reading_the_program_exits_three(
        tmp_path, capsys, monkeypatch):
    import semiq.cli as cli

    def failing(program):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "build_env", failing)
    rc = main([_write(tmp_path, "schema s(a:int);\ntable R(s);\nverify R R;\n")])
    assert rc == 3
    assert capsys.readouterr().err == (
        "internal error: RecursionError: maximum recursion depth exceeded\n")


def test_chase_ceiling_note_reaches_the_json_report(tmp_path, capsys):
    path = _write(tmp_path, """
        schema sr(k:int, a:int);
        schema ss(j:int, f:int);
        table R(sr);
        table S(ss);
        key R(k);
        foreign key S(f) references R(k);
        verify (SELECT s.j AS j FROM S s) (SELECT s.j AS j FROM S s, R r WHERE s.f = r.k);
    """)
    rc = main([path, "--chase-depth", "0", "--json"])
    [v] = json.loads(capsys.readouterr().out)["verifies"]
    assert rc == 1
    assert (v["status"], v["detail"]) == ("NOT_PROVED", "chase depth ceiling reached")


COMPUTED = """
    schema s(a:int, b:int);
    table R(s);
"""


def test_computed_column_against_typed_column_is_decided(tmp_path, capsys):
    # `x.a + 1` has type ? and unifies with int: a verdict, not a schema error
    path = _write(tmp_path, COMPUTED + """
        verify (SELECT x.a + 1 AS o FROM R x) (SELECT x.a AS o FROM R x);
    """)
    rc = main([path])
    assert rc == 1
    assert capsys.readouterr().out.startswith("verify1: NOT_PROVED")
    rc = main([path, "--refute"])
    assert rc == 1
    assert "counterexample database" in capsys.readouterr().out


def test_commuted_union_with_a_computed_branch_is_equivalent(tmp_path, capsys):
    path = _write(tmp_path, COMPUTED + """
        verify (SELECT x.a + 1 AS o FROM R x UNION ALL SELECT x.b AS o FROM R x)
               (SELECT x.b AS o FROM R x UNION ALL SELECT x.a + 1 AS o FROM R x);
    """)
    rc = main([path])
    assert rc == 0
    assert capsys.readouterr().out.startswith("verify1: EQUIVALENT")


def test_mismatched_output_names_in_a_later_verify_exit_before_any_verdict(
        tmp_path, capsys):
    path = _write(tmp_path, COMPUTED + """
        verify R R;
        verify (SELECT x.a AS o FROM R x) (SELECT x.a AS p FROM R x);
    """)
    rc = main([path])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == ""
    assert err.startswith("semantic error: schemas differ in verify2")


def test_group_by_key_that_is_not_projected_is_a_semantic_error(tmp_path, capsys):
    # SQL gives one row per (a, b) group, DISTINCT over a alone merges them
    for keys in ("x.a, x.b", "x.a, x.zz"):
        path = _write(tmp_path, COMPUTED + f"""
            verify (SELECT x.a AS a FROM R x GROUP BY {keys})
                   (SELECT DISTINCT x.a AS a FROM R x);
        """)
        rc = main([path])
        out, err = capsys.readouterr()
        assert (rc, out) == (2, "")
        assert "is not projected" in err


def test_int_column_against_string_column_is_a_semantic_error(tmp_path, capsys):
    # in the last pair, the union's `?` column takes the string type of its
    # other branch, which then conflicts with the int column
    for pair in ("(SELECT x.a AS o FROM R x UNION ALL SELECT x.b AS o FROM R x) R",
                 "(SELECT x.a AS o FROM R x) (SELECT x.b AS o FROM R x)",
                 "(SELECT u.o AS o FROM (SELECT x.a + 1 AS o FROM R x UNION ALL "
                 "SELECT x.b AS o FROM R x) u) (SELECT x.a AS o FROM R x)"):
        path = _write(tmp_path, f"""
            schema s(a:int, b:string);
            table R(s);
            verify {pair};
        """)
        rc = main([path])
        assert rc == 2
        assert "conflicting types" in capsys.readouterr().err


DEPTH_PRELUDE = "schema s(a:int, b:int);\ntable R(s);\n"
FILTERED = "SELECT x.a AS a FROM R x WHERE x.a = 1"


@pytest.mark.parametrize("where", [
    "(" * 250 + "x.a = 1" + ")" * 250,
    "EXISTS (SELECT * FROM R y WHERE " * 250 + "x.a = 1" + ")" * 250,
    "NOT " * 250 + "x.a = 1",
], ids=["parentheses", "exists", "not"])
def test_nesting_past_the_limit_exits_two(tmp_path, capsys, where):
    path = _write(tmp_path, DEPTH_PRELUDE + f"verify (SELECT x.a AS a FROM R x "
                  f"WHERE {where}) ({FILTERED});\n")
    rc = main([path])
    err = capsys.readouterr().err
    assert rc == 2
    assert "parse error: nesting deeper than 200 levels" in err


@pytest.mark.parametrize("where,status,rc", [
    ("(" * 200 + "x.a = 1" + ")" * 200, "EQUIVALENT", 0),
    ("NOT " * 200 + "x.a = 1", "NOT_PROVED", 1),
], ids=["parentheses", "not"])
def test_nesting_at_the_limit_keeps_its_verdict(tmp_path, capsys, where, status, rc):
    path = _write(tmp_path, DEPTH_PRELUDE + f"verify (SELECT x.a AS a FROM R x "
                  f"WHERE {where}) ({FILTERED});\n")
    assert main([path]) == rc
    assert capsys.readouterr().out.startswith(f"verify1: {status}")


def test_400_nested_derived_tables_with_both_dumps(tmp_path, capsys):
    path = _write(tmp_path, nested_projection_program(400))
    rc = main([path, "--dump-uexp", "--dump-spnf"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("verify1: EQUIVALENT")
    assert "uexp1:" in out and "spnf2:" in out
