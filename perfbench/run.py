#!/usr/bin/env python3
"""Time to verdict for semiq on four seeded workloads.

Run from the repository root:

    python3 perfbench/run.py --workload rewrites --seed 1 --seconds 20 --trace 0

One process, one client, closed loop: the generated programs of the
workload are fed to `semiq.run_program_text` one after another, in whole
passes, until `--seconds` have elapsed.  Every verdict (and, under
refutation, the presence of a counterexample) is checked against the
answer the generator built in.  `--trace 0` prints the end-to-end metrics;
`--trace 1` runs half the time untraced and half traced, prints the
per-layer metrics and writes the spans under `.perfbench_out/`.  Times are
scaled to a reference machine speed by a calibration kernel run next to
every pass (see calibrate.py); the raw times are printed as well.  The last
line of standard output is one JSON object; the exit code is 1 on any
failed check and 2 when `src/semiq` is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import calibrate
import workloads
from spans import Tracer

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

# The percentile reported as verify_ms.tail, over the programs of a pass.
# The highest percentile with ten verifies beyond it (p99 and up) is not
# stable on a shared machine: about one verify in a hundred of the short
# workloads meets a scheduler stall, and it measured the stalls.
TAIL_PCT = 95
MIN_PASSES = 5           # a program's median needs a few runs
SETUP_REPEATS = 9
ORACLE_DBS = 20          # oracle databases per cross-checked EQUIVALENT pair
MAX_EXTRA_SECONDS = 60   # cap on running past --seconds to reach MIN_PASSES
CAL_EVERY_MS = 50.0      # verify time between calibration points

LAYERS = ("parser", "frontend", "translate", "spnf", "constraints", "congruence",
          "decide", "oracle", "pipeline")
# Inclusive shares of the two entries that call into other layers:
# canonization with the closures it rebuilds, and term matching (the search)
# with its closures and nested canonization.
INCLUSIVE = {"constraints.canonize_incl_share": "Canonizer.canonize",
             "decide.match_terms_incl_share": "Decider.match_terms"}
# per-layer count -> tracer counter
COUNTS = {
    "translate.nodes": "translate.nodes",
    "spnf.terms_out": "spnf.terms_out",
    "spnf.nodes_out": "spnf.nodes_out",
    "constraints.canonize_calls": "Canonizer.canonize",
    "congruence.closures": "closure_of",
    "congruence.close_calls": "Closure.close",
    "decide.match_terms": "Decider.match_terms",
    "decide.squash_equal": "Decider.squash_equal",
    "decide.minimize": "Decider.minimize",
    "oracle.interp_calls": "interp_query",
    "oracle.witness_found": "witness_found",
}


class Failure(Exception):
    pass


def import_semiq():
    if not (SRC / "semiq" / "__init__.py").is_file():
        print(f"error: {SRC / 'semiq'} not found; run from the root of a semiq "
              "checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import semiq
    return semiq


def measure_setup() -> tuple[list[float], list[float]]:
    """Seconds to `import semiq` in fresh interpreters, raw and scaled by
    a calibration the same interpreter runs right after the import; the
    first import, which may compile bytecode, is not kept."""
    code = ("import sys, time; t = time.perf_counter(); import semiq; "
            "t = time.perf_counter() - t; sys.path.insert(0, sys.argv[1]); "
            "import calibrate; print(t, calibrate.factor(calibrate.sample(5)))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS + 1):
        res = subprocess.run([sys.executable, "-c", code, str(HERE)], env=env,
                             cwd=ROOT, capture_output=True, text=True, timeout=60,
                             check=True)
        secs, factor = map(float, res.stdout.split())
        raw.append(secs)
        scaled.append(secs * factor)
    return raw[1:], scaled[1:]


# ---------------------------------------------------------------------------
# One verify

def run_instance(semiq, inst: workloads.Instance):
    outcomes = semiq.run_program_text(inst.text, refute=inst.refute)
    if len(outcomes) != 1:
        raise Failure(f"{inst.family}: {len(outcomes)} verdicts for one verify")
    return outcomes[0]


def check(inst: workloads.Instance, outcome) -> None:
    if outcome.status != inst.expect:
        raise Failure(f"{inst.family}: verdict {outcome.status}, expected {inst.expect}"
                      + (f" ({outcome.detail})" if outcome.detail else ""))
    if inst.refute and (outcome.witness is not None) != inst.witness:
        raise Failure(f"{inst.family}: witness {'found' if outcome.witness else 'missing'}"
                      f", expected {'one' if inst.witness else 'none'}")


def fingerprint(outcome) -> tuple:
    return (outcome.status, tuple(sorted(outcome.steps.items())),
            hashlib.sha256(outcome.trace.render().encode()).hexdigest(),
            outcome.witness.dump() if outcome.witness is not None else None)


def oracle_cross_check(semiq, inst: workloads.Instance, seed: int) -> None:
    """An EQUIVALENT pair must agree on generated constraint-satisfying
    databases whose domains hold the pair's own constants."""
    from semiq.pipeline import find_witness, prepare_pair
    program = semiq.parse(inst.text)
    env = semiq.build_env(program)
    q1, q2 = prepare_pair(program.verifies()[0], env)
    db = find_witness(q1, q2, env, seed=seed, tries=ORACLE_DBS)
    if db is not None:
        raise Failure(f"{inst.family}: EQUIVALENT but the oracle finds a "
                      f"difference on\n{db.dump()}")


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, exc: BaseException | None) -> None:
        self.attempted += 1
        if exc is not None:
            self.fail(exc)

    def fail(self, exc: BaseException) -> None:
        """Count a failure against a verify already attempted."""
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(str(exc) if isinstance(exc, Failure)
                               else "".join(traceback.format_exception(exc)))


# ---------------------------------------------------------------------------
# Loops

def first_pass(semiq, instances, tally: Tally) -> list:
    """Warm-up and check of every program, untimed; returns their
    fingerprints."""
    prints = []
    for inst in instances:
        exc = fp = None
        try:
            outcome = run_instance(semiq, inst)
            check(inst, outcome)
            fp = fingerprint(outcome)
        except Exception as e:  # a traceback is a failed verify, not a crash
            exc = e
        tally.record(exc)
        prints.append(fp)
    return prints


def cross_check_all(semiq, instances, seed: int, tally: Tally) -> None:
    """The oracle cross-check of every EQUIVALENT pair that asks for one.
    It runs after the measurement: its databases can be large, and they
    would set the peak memory of the process."""
    for i, inst in enumerate(instances):
        if inst.oracle_check:
            try:
                oracle_cross_check(semiq, inst, seed * 1000 + i)
            except Exception as exc:
                tally.fail(exc)


class Timing:
    """Each program's time to verdict in each pass, and calibration
    points: kernel samples taken before the first program and then after
    each program that ends at least CAL_EVERY_MS of verify time past the
    last point.  A time is scaled by the points on both sides of it.  A
    program's time is the median over passes, so that machine stalls,
    which hit some passes and not others, do not move it."""

    def __init__(self, n_programs: int):
        self.ms: list[list[float]] = [[] for _ in range(n_programs)]
        self.point: list[list[int]] = [[] for _ in range(n_programs)]
        self.cal: list[list[float]] = [calibrate.sample()]
        self._pending = 0.0

    def add(self, j: int, ms: float) -> None:
        self.ms[j].append(ms)
        self.point[j].append(len(self.cal) - 1)
        self._pending += ms
        if self._pending >= CAL_EVERY_MS:
            self.close()

    def close(self) -> None:
        """Take a calibration point if any time lacks the one after it."""
        if self._pending:
            self.cal.append(calibrate.sample())
            self._pending = 0.0

    def factors(self) -> list[float]:
        return [calibrate.factor(self.cal[k] + self.cal[k + 1])
                for k in range(len(self.cal) - 1)]

    def medians(self, scaled: bool = True) -> list[float]:
        f = self.factors()
        return sorted(statistics.median(m * (f[k] if scaled else 1.0)
                                        for m, k in zip(ms, pts))
                      for ms, pts in zip(self.ms, self.point))

    def rate(self, scaled: bool = True) -> float:
        """Verdicts per second: programs per pass over the sum of their
        median times."""
        return len(self.ms) / (sum(self.medians(scaled)) / 1000.0)

    def factor(self) -> float:
        return statistics.median(self.factors())

    def passes(self) -> int:
        return len(self.ms[0])

    def count(self) -> int:
        return sum(len(t) for t in self.ms)


def timed_loop(semiq, instances, prints, seconds: float, tally: Tally,
               tracer: Tracer | None = None, vid: int = 0) -> Timing:
    """Whole passes until `seconds` have elapsed and MIN_PASSES are done."""
    timing = Timing(len(instances))
    deadline = time.perf_counter() + seconds
    hard_stop = deadline + MAX_EXTRA_SECONDS
    passes = 0
    while True:
        for k, (inst, fp) in enumerate(zip(instances, prints)):
            exc = None
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    outcome = run_instance(semiq, inst)
                else:
                    outcome = tracer.run(vid, run_instance, semiq, inst)
                t1 = time.perf_counter()
                if (outcome.status, tuple(sorted(outcome.steps.items()))) != fp[:2]:
                    raise Failure(f"{inst.family}: verdict or steps changed between runs")
                check(inst, outcome)
            except Exception as e:
                t1 = time.perf_counter()
                exc = e
            timing.add(k, (t1 - t0) * 1000.0)
            tally.record(exc)
            vid += 1
        passes += 1
        now = time.perf_counter()
        if now >= deadline and (passes >= MIN_PASSES or now >= hard_stop):
            timing.close()
            return timing


def end_to_end(semiq, args, instances, prints, tally: Tally, lines: list) -> dict:
    setup_raw, setup = measure_setup()
    timing = timed_loop(semiq, instances, prints, args.seconds, tally)
    medians, raw = timing.medians(), timing.medians(scaled=False)

    def tail(ms):
        return statistics.quantiles(ms, n=100, method="inclusive")[TAIL_PCT - 1]

    lines.append(f"verify_ms.p50 and verify_ms.tail (p{TAIL_PCT}) are taken over the "
                 f"median times of {len(medians)} programs, each timed "
                 f"{timing.passes()} times (n={timing.count()} verifies); "
                 f"setup_s is the median of {len(setup)} imports")
    lines.append(f"times are scaled to the reference speed by a median factor of "
                 f"{timing.factor():.4f}; unscaled: p50 {statistics.median(raw):.4g} ms, "
                 f"tail {tail(raw):.4g} ms, {timing.rate(scaled=False):.4g} verifies/s, "
                 f"setup {statistics.median(setup_raw):.4g} s")
    return {
        "verify_ms.p50": (statistics.median(medians), "ms"),
        "verify_ms.tail": (tail(medians), "ms"),
        "verifies_per_s": (timing.rate(), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }


# ---------------------------------------------------------------------------
# Traced run

def traced_pass(semiq, instances, tracer: Tracer):
    """One traced pass: fingerprints, total budget steps and rule counts."""
    prints, steps, rules = [], 0, Counter()
    for vid, inst in enumerate(instances):
        outcome = tracer.run(vid, run_instance, semiq, inst)
        check(inst, outcome)
        prints.append(fingerprint(outcome))
        steps += outcome.steps["total"]
        rules.update(outcome.trace.rule_names())
    return prints, steps, rules


def pass_digest(prints, counts: Counter, rules: Counter, layer_events: Counter) -> str:
    blob = repr((prints, sorted(counts.items()), sorted(rules.items()),
                 sorted(layer_events.items())))
    return hashlib.sha256(blob.encode()).hexdigest()


def digest_of_fresh_process(args) -> str:
    """The traced-pass digest from a second process with another hash seed:
    verdicts, steps, counts and trace text must not depend on the process."""
    env = dict(os.environ, PYTHONHASHSEED=str(args.seed + 1))
    res = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                          "--workload", args.workload, "--seed", str(args.seed),
                          "--digest"], env=env, cwd=ROOT, capture_output=True,
                         text=True, timeout=150)
    if res.returncode != 0:
        raise Failure(f"determinism check: second process failed\n{res.stderr[-2000:]}")
    return res.stdout.strip().splitlines()[-1]


def traced(semiq, args, instances, prints, tally: Tally, lines: list) -> dict:
    half = args.seconds / 2
    plain = timed_loop(semiq, instances, prints, half, tally)
    tracer = Tracer()
    tracer.install()
    try:
        first, steps, rules = traced_pass(semiq, instances, tracer)
        if first != prints:
            raise Failure("tracing changed a verdict, step count or trace text")
        counts = Counter(tracer.counts)
        events = tracer.layer_totals(range(len(instances)))[1]
        tracer.results = False
        timing = timed_loop(semiq, instances, prints, half, tally, tracer,
                            vid=len(instances))
    finally:
        tracer.uninstall()
    if digest_of_fresh_process(args) != pass_digest(first, counts, rules, events):
        raise Failure("determinism check: a second process with the same seed "
                      "gave other verdicts, steps, counts or trace text")

    n_verifies = len(instances) + timing.count()
    scale = timing.factor()
    secs, _, inclusive = tracer.layer_totals()
    total = sum(secs[layer] for layer in LAYERS)
    per = float(len(instances))
    m = {}
    for layer in LAYERS:
        key = "pipeline.self_ms" if layer == "pipeline" else f"{layer}.ms"
        m[key] = (secs[layer] * scale * 1000.0 / n_verifies, "ms")
        m[f"{layer}.share"] = (secs[layer] / total, "ratio")
    for metric, name in INCLUSIVE.items():
        m[metric] = (inclusive[name] / total, "ratio")
    for metric, counter in COUNTS.items():
        m[metric] = (counts[counter] / per, "count/verify")
    calls = counts["Decider.match_terms"]
    m["decide.match_hit_ratio"] = (counts["match_terms.true"] / calls if calls else 0.0,
                                   "ratio")
    m["constraints.rules"] = (events["constraints"] / per, "count/verify")
    m["constraints.key_collapse"] = (rules["key-collapse"] / per, "count/verify")
    m["constraints.fk_expand"] = (rules["fk-expand"] / per, "count/verify")
    m["budget.steps"] = (steps / per, "count/verify")
    m["trace.overhead"] = ((plain.rate() - timing.rate()) / plain.rate(), "ratio")

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv"
    tracer.write(path)
    lines.append(f"traced {n_verifies} verifies ({len(tracer.start)} spans, written to "
                 f"{path.relative_to(ROOT)}); counts are per verify over the first "
                 f"traced pass of {len(instances)}; decide.match_hit_ratio base: "
                 f"{calls} match_terms calls; trace.overhead base: "
                 f"{plain.rate():.2f} verifies/s untraced, {timing.rate():.2f} traced")
    return m


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--digest", action="store_true",
                    help="print the digest of one traced pass and exit "
                         "(the determinism check runs this in a second process)")
    args = ap.parse_args(argv)

    semiq = import_semiq()
    instances = workloads.build(args.workload, args.seed, ROOT)

    if args.digest:
        tracer = Tracer()
        tracer.install()
        prints, _, rules = traced_pass(semiq, instances, tracer)
        tracer.uninstall()
        print(pass_digest(prints, tracer.counts, rules, tracer.layer_totals()[1]))
        return 0

    tally = Tally()
    lines = [f"workload {args.workload}: {len(instances)} programs per pass, "
             f"seed {args.seed}"]
    metrics: dict = {}
    prints = first_pass(semiq, instances, tally)
    if tally.failed:
        lines.append("the first pass failed; nothing timed")
    else:
        measure = traced if args.trace else end_to_end
        try:
            metrics = measure(semiq, args, instances, prints, tally, lines)
        except Exception as exc:
            tally.record(exc)
        cross_check_all(semiq, instances, args.seed, tally)

    correct = tally.failed == 0
    lines.append(f"failed_share = {tally.failed / tally.attempted:.6f} "
                 f"({tally.failed} of {tally.attempted} verifies failed)")
    lines += [f"{name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    for err in tally.errors:
        print(f"FAILED: {err}", file=sys.stderr)
    print("\n".join(lines))
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
