"""A fixed pure-Python kernel that measures how fast the machine runs now.

The shared machines this benchmark runs on change speed by up to half
within a minute, which moves every time semiq takes with it.  The kernel
does the kind of work semiq does (recursive rewriting of tuple terms,
memo dicts, tuple allocation, `repr`) without calling semiq, so its time
follows the machine and not the code under test.  Run next to each pass,
it gives the factor that scales that pass's times to a machine on which
the kernel takes `REFERENCE_MS`.  The garbage collector is off while it
runs, so that the objects semiq leaves alive do not slow it.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

REFERENCE_MS = 2.0   # the kernel's time on the reference machine
SAMPLES = 3          # kernel runs per calibration point


def _term(rng: random.Random, depth: int):
    if depth == 0:
        return rng.choice((0, 1, "x", "y", "z"))
    return (rng.choice(("add", "mul", "f")), _term(rng, depth - 1),
            _term(rng, depth - 1))


TERMS = [_term(random.Random(i), 7) for i in range(6)]


def _rewrite(e, memo: dict):
    if not isinstance(e, tuple):
        return e
    if e in memo:
        return memo[e]
    op = e[0]
    args = tuple(_rewrite(a, memo) for a in e[1:])
    if op == "mul" and args[0] == 1 or op == "add" and args[0] == 0:
        out = args[1]
    else:
        out = (op,) + args
    memo[e] = out
    return out


def kernel() -> int:
    return sum(len(repr(_rewrite(t, {}))) for t in TERMS)


def sample(n: int = SAMPLES) -> list[float]:
    """n timings of the kernel, in ms."""
    out = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(n):
            t0 = time.perf_counter()
            kernel()
            out.append((time.perf_counter() - t0) * 1000.0)
    finally:
        if enabled:
            gc.enable()
    return out


def factor(samples: list[float]) -> float:
    """Scale from this machine's speed, as the samples show it, to the
    reference machine's."""
    return REFERENCE_MS / statistics.median(samples)
