"""The benchmark's span tracer wraps semiq entry points by name; every name
it wraps must exist, and uninstalling must restore the originals."""

from __future__ import annotations

import importlib.util
from pathlib import Path

from semiq import run_program_text

_SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
_spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


def test_tracer_wraps_and_restores_every_entry():
    entries = spans._entries()
    originals = [owner.__dict__[attr] for owner, attr, _, _ in entries]
    tracer = spans.Tracer()
    tracer.install()
    try:
        for (owner, attr, _, _), orig in zip(entries, originals):
            assert owner.__dict__[attr].__wrapped__ is orig, attr
        tracer.run(0, run_program_text, """
            schema s(a:int, b:int);
            table R(s);
            verify (SELECT x.a AS a FROM R x WHERE x.a = x.b)
                   (SELECT y.b AS a FROM R y WHERE y.b = y.a);
        """)
    finally:
        tracer.uninstall()
    for (owner, attr, _, _), orig in zip(entries, originals):
        assert owner.__dict__[attr] is orig, attr
    for name in ("closure_of", "Closure.close", "Canonizer.canonize",
                 "Decider.equivalent", "Decider.match_terms"):
        assert tracer.counts[name] > 0, name
