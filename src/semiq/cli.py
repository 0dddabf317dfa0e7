"""Command-line driver.

Reads a program file, prepares (checks and denotes) every verify statement,
then decides each, and reports one line per verify (or a JSON document with
--json).  A semantic error in any verify therefore exits before any verdict
is printed.  A verify that fails inside semiq is reported with status ERROR
and the exception in its note, and the other verifies still run.  Exit
codes:

    0  every verify is EQUIVALENT
    1  some verify is not (and none errored)
    2  the file cannot be read, the --trace directory cannot be made or a
       trace file written in it, or a parse or semantic error
    3  some verify ended in ERROR, or reading the program failed inside
       semiq (reported as an internal error)
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .config import Limits
from .frontend import build_env
from .parser import ParseError, parse
from .pipeline import VerifyOutcome, decide_verify, prepare_verify
from .schema import SemanticError

ERROR = "ERROR"
EXIT_ERROR = 3


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="semiq",
        description="Decide semantic equivalence of SQL queries under "
                    "integrity constraints.")
    ap.add_argument("file", help="program file (.cos)")
    ap.add_argument("--timeout", type=float, default=30.0,
                    help="wall-clock budget per verify, seconds (default 30)")
    ap.add_argument("--chase-depth", type=int, default=3,
                    help="foreign-key chase rounds per term (default 3)")
    ap.add_argument("--trace", metavar="DIR", default=None,
                    help="write one proof trace file per verify into DIR")
    ap.add_argument("--dump-uexp", action="store_true",
                    help="print denotations before normalization")
    ap.add_argument("--dump-spnf", action="store_true",
                    help="print normal forms before canonization")
    ap.add_argument("--refute", action="store_true",
                    help="search for a counterexample database on failure")
    ap.add_argument("--json", action="store_true", dest="as_json",
                    help="machine-readable report on stdout")
    ap.add_argument("--seed", type=int, default=0,
                    help="seed for refutation search (default 0)")
    return ap


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        text = Path(args.file).read_text()
        trace_dir = Path(args.trace) if args.trace else None
        if trace_dir:
            trace_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    def guarded(name: str, step, *args, **kw):
        t0 = time.monotonic()
        try:
            return step(*args, **kw)
        except Exception as exc:
            if isinstance(exc, SemanticError) and step is prepare_verify:
                raise  # the program's fault: exit 2 before any verdict
            # an internal failure of this verify alone; report it and go on
            return VerifyOutcome(name, ERROR, None, (time.monotonic() - t0) * 1000,
                                 detail=f"{type(exc).__name__}: {exc}")

    try:
        program = parse(text)
        env = build_env(program)
        # every verify is checked before any is decided
        prepared = [guarded(f"verify{i}", prepare_verify, stmt, f"verify{i}", env)
                    for i, stmt in enumerate(program.verifies(), start=1)]
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except SemanticError as exc:
        print(f"semantic error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR

    limits = Limits(timeout_s=args.timeout, chase_depth=args.chase_depth)

    report = []
    worst = 0
    for p in prepared:
        outcome = p if isinstance(p, VerifyOutcome) else guarded(
            p.name, decide_verify, p, env, limits, dump_uexp=args.dump_uexp,
            dump_spnf=args.dump_spnf, refute=args.refute, seed=args.seed)
        worst = max(worst, EXIT_ERROR if outcome.status == ERROR
                    else outcome.exit_contribution)
        name = outcome.name
        trace_path = None
        if trace_dir and outcome.trace is not None:
            trace_path = trace_dir / f"{name}.trace"
            try:
                trace_path.write_text(outcome.trace.render())
            except OSError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        entry = {
            "name": name,
            "status": outcome.status,
            "fragment": outcome.fragment,
            "wall_ms": round(outcome.wall_ms, 3),
            "steps": outcome.steps,
            "trace_path": str(trace_path) if trace_path else None,
            "witness": outcome.witness.dump() if outcome.witness else None,
            "detail": outcome.detail or None,
        }
        report.append(entry)
        if not args.as_json:
            print(f"{name}: {outcome.status} ({outcome.wall_ms:.0f} ms)")
            for key in ("uexp1", "uexp2", "spnf1", "spnf2"):
                if key in outcome.dumps:
                    print(f"  {key}: {outcome.dumps[key]}")
            if outcome.detail:
                print(f"  note: {outcome.detail}")
            if outcome.witness is not None:
                print("  counterexample database:")
                for line in outcome.witness.dump().splitlines():
                    print(f"    {line}")
    if args.as_json:
        print(json.dumps({"verifies": report}, indent=2))
    return worst


if __name__ == "__main__":
    sys.exit(main())
