"""Structured proof traces.

One event per transformation step or search decision; rendered one line per
event, stable across runs for fixed input.
"""

from __future__ import annotations

from .record import factory, record


@record
class Event:
    kind: str  # "rule" | "bijection" | "homomorphism" | "permutation" | "note"
    name: str
    path: str = ""
    payload: dict = factory(dict)

    def render(self) -> str:
        if self.kind == "rule":
            return f"RULE {self.name} AT {self.path or '.'}"
        if self.kind in ("bijection", "homomorphism"):
            items = ", ".join(f"{a}->{b}" for a, b in self.payload.get("map", []))
            return f"{self.kind.upper()} {{{items}}}"
        if self.kind == "permutation":
            return f"PERMUTATION {list(self.payload.get('perm', []))}"
        return f"NOTE {self.name} {self.path}".rstrip()


class Trace:
    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.events: list[Event] = []

    def rule(self, name: str, path: str = "") -> None:
        if self.enabled:
            self.events.append(Event("rule", name, path))

    def mapping(self, kind: str, pairs: list[tuple[str, str]]) -> None:
        """A "bijection" or "homomorphism" of variables, as name pairs."""
        if self.enabled:
            self.events.append(Event(kind, "", payload={"map": pairs}))

    def permutation(self, perm: list[int]) -> None:
        if self.enabled:
            self.events.append(Event("permutation", "", payload={"perm": perm}))

    def note(self, name: str, path: str = "") -> None:
        if self.enabled:
            self.events.append(Event("note", name, path))

    def rule_names(self) -> list[str]:
        return [e.name for e in self.events if e.kind == "rule"]

    def render(self) -> str:
        return "\n".join(e.render() for e in self.events) + ("\n" if self.events else "")
