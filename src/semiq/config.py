"""Resource limits shared across the pipeline."""

from __future__ import annotations

import time

from .record import record


@record
class Limits:
    timeout_s: float = 30.0
    chase_depth: int = 3
    max_nodes: int = 1_000_000
    max_steps: int = 2_000_000


class BudgetError(Exception):
    def __init__(self, kind: str, detail: str = ""):
        self.kind = kind
        super().__init__(f"{kind}: {detail}" if detail else kind)


class Budget:
    """The per-verify step meter plus wall-clock deadline; raises
    BudgetError when spent.  Each step is counted by the stage that takes
    it, so the per-stage counts sum to ``steps``."""

    def __init__(self, limits: Limits | None = None):
        self.limits = limits or Limits()
        self.steps = 0
        self.by_stage = {"normalize": 0, "canonize": 0, "search": 0}
        self._deadline = (time.monotonic() + self.limits.timeout_s
                          if self.limits.timeout_s > 0 else None)

    def step(self, stage: str) -> None:
        self.by_stage[stage] += 1
        self.steps += 1
        if self.steps > self.limits.max_steps:
            raise BudgetError("steps", f"exceeded {self.limits.max_steps} rewrite steps")
        if self._deadline is not None:
            self.check_time()

    def check_time(self) -> None:
        if self._deadline is not None and time.monotonic() > self._deadline:
            raise BudgetError("timeout", f"exceeded {self.limits.timeout_s}s")

    def check_nodes(self, n: int) -> None:
        if n > self.limits.max_nodes:
            raise BudgetError("nodes", f"expression grew past {self.limits.max_nodes} nodes")
