"""Per-layer spans recorded from outside semiq.

`Tracer.install()` replaces each layer's entry points with wrappers that
record one span per call: entry name, start, end, parent span and verify
id, plus the number of proof-trace events emitted while the span was open.
Spans stay in memory (flat arrays) until `write()`.

Names are wrapped where the caller looks them up: `from .x import f`
copies the binding, so `semiq.pipeline.to_spnf` is wrapped rather than
`semiq.spnf.to_spnf`, and `closure_of` is wrapped in every module that
imported it.  Methods are wrapped on their class.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from pathlib import Path

ROOT = "run_program_text"
COUNTING = "count_nodes"  # the tracer's own size counting, kept out of every layer


def _self_trace(args, kwargs):
    return args[0].trace


def _spnf_trace(args, kwargs):
    return args[2] if len(args) > 2 else kwargs.get("trace")


def _entries():
    """(owner, attribute, layer, trace getter) for every wrapped entry."""
    from semiq import congruence, constraints, decide, pipeline
    return [
        (pipeline, "parse", "parser", None),
        (pipeline, "build_env", "frontend", None),
        (pipeline, "desugar_groupby", "frontend", None),
        (pipeline, "inline_views", "frontend", None),
        (pipeline, "denote", "translate", None),
        (pipeline, "to_spnf", "spnf", _spnf_trace),
        (constraints.Canonizer, "canonize", "constraints", _self_trace),
        (congruence, "closure_of", "congruence", None),
        (constraints, "closure_of", "congruence", None),
        (decide, "closure_of", "congruence", None),
        (congruence.Closure, "close", "congruence", None),
        (decide.Decider, "equivalent", "decide", _self_trace),
        (decide.Decider, "match_terms", "decide", _self_trace),
        (decide.Decider, "squash_equal", "decide", _self_trace),
        (decide.Decider, "minimize", "decide", _self_trace),
        (pipeline, "find_witness", "oracle", None),
        (pipeline, "interp_query", "oracle", None),
    ]


class Tracer:
    def __init__(self):
        self.names: list[str] = [ROOT, COUNTING]
        self.layer_of: dict[str, str] = {ROOT: "pipeline", COUNTING: "tracer"}
        self.name_id = array("H")
        self.parent = array("i")
        self.verify = array("i")
        self.start = array("d")
        self.end = array("d")
        self.events = array("i")   # events emitted while open; -1: no trace
        self.counts: Counter = Counter()
        self._stack: list[tuple[int, object]] = []  # (span index, Trace)
        self._vid = -1
        self._saved: list[tuple[object, str, object]] = []
        # Read counters off results (`_AFTER`); off after the pass that
        # counts, so that timed passes record spans only.
        self.results = True

    # -- recording -------------------------------------------------------------

    def _open(self, nid: int, trace) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.verify.append(self._vid)
        self.events.append(len(trace.events) if trace is not None else -1)
        self.end.append(0.0)
        self._stack.append((idx, trace))
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int, trace) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        if trace is not None:
            self.events[idx] = len(trace.events) - self.events[idx]

    def _wrap(self, orig, name: str, getter):
        nid = len(self.names)
        self.names.append(name)
        count = self.counts
        open_, close = self._open, self._close
        stack = self._stack
        after = _AFTER.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            if getter is not None:
                trace = getter(args, kwargs)
            else:
                trace = stack[-1][1] if stack else None
            idx = open_(nid, trace)
            try:
                result = orig(*args, **kwargs)
            finally:
                close(idx, trace)
            count[name] += 1
            if after is not None and tracer.results:
                idx = open_(1, None)
                after(count, result)
                close(idx, None)
            return result

        wrapper.__wrapped__ = orig
        return wrapper

    def run(self, vid: int, fn, *args, **kwargs):
        """Call fn as verify `vid`, inside the root span."""
        self._vid = vid
        idx = self._open(0, None)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx, None)

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        for owner, attr, layer, getter in _entries():
            orig = owner.__dict__[attr]
            name = attr if not isinstance(owner, type) else f"{owner.__name__}.{attr}"
            if name not in self.layer_of:
                self.layer_of[name] = layer
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(orig, name, getter))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    # -- results -------------------------------------------------------------------

    def layer_totals(self, verifies: range | None = None):
        """Over the given verify ids: self seconds per layer (span time
        minus child spans), self events per layer, and inclusive seconds
        per entry name (time with a span of that name open, counted once
        when calls nest)."""
        n = len(self.start)
        layer = [self.layer_of[self.names[k]] for k in self.name_id]
        dur = [self.end[i] - self.start[i] for i in range(n)]
        own = list(dur)
        own_events = list(self.events)
        open_names: list[frozenset] = []
        inclusive: Counter = Counter()
        for i in range(n):
            p = self.parent[i]
            nid = self.name_id[i]
            above = open_names[p] if p >= 0 else frozenset()
            open_names.append(above | {nid})
            if nid not in above and (verifies is None or self.verify[i] in verifies):
                inclusive[self.names[nid]] += dur[i]
            if p >= 0:
                own[p] -= dur[i]
                if self.events[i] > 0 and own_events[p] >= 0:
                    own_events[p] -= self.events[i]
        secs: Counter = Counter()
        events: Counter = Counter()
        for i in range(n):
            if verifies is not None and self.verify[i] not in verifies:
                continue
            secs[layer[i]] += own[i]
            if own_events[i] > 0:
                events[layer[i]] += own_events[i]
        return secs, events, inclusive

    def write(self, path: Path) -> None:
        """One span per line: verify, span, parent, name, start, end (ns
        from the first span), events."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as f:
            f.write("verify\tspan\tparent\tname\tstart_ns\tend_ns\tevents\n")
            for i in range(len(self.start)):
                f.write(f"{self.verify[i]}\t{i}\t{self.parent[i]}\t"
                        f"{self.names[self.name_id[i]]}\t"
                        f"{round((self.start[i] - t0) * 1e9)}\t"
                        f"{round((self.end[i] - t0) * 1e9)}\t{self.events[i]}\n")


def _after_match(count: Counter, result) -> None:
    count["match_terms.true"] += bool(result)


def _after_witness(count: Counter, result) -> None:
    count["witness_found"] += result is not None


def _after_denote(count: Counter, result) -> None:
    from semiq.exprs import count_nodes
    count["translate.nodes"] += count_nodes(result.body)


def _after_spnf(count: Counter, result) -> None:
    from semiq.exprs import count_nodes
    count["spnf.terms_out"] += len(result.terms)
    count["spnf.nodes_out"] += count_nodes(result.to_exp())


# Counters read off a call's result, in a span of the tracer's own.
_AFTER = {
    "Decider.match_terms": _after_match,
    "find_witness": _after_witness,
    "denote": _after_denote,
    "to_spnf": _after_spnf,
}
