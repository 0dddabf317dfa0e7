from __future__ import annotations

import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).resolve().parent))

# Property tests draw the same examples on every run, so a failure they find
# is reproducible rather than a flake; per-test max_examples/deadline stand.
settings.register_profile("repeatable", derandomize=True)
settings.load_profile("repeatable")

from semiq import build_env, parse  # noqa: E402


FIG_INDEX = """
schema sr(k:int, a:int);
table R(sr);
key R(k);
index I on R(k, a);
verify (SELECT * FROM R t WHERE t.a >= 12)
       (SELECT t2.* FROM I t1, R t2 WHERE t1.k = t2.k AND t1.a >= 12);
"""


@pytest.fixture
def index_program():
    prog = parse(FIG_INDEX)
    return prog, build_env(prog)


@pytest.fixture
def benchdir() -> Path:
    return Path(__file__).resolve().parent.parent / "benchmarks"


def parse_query(src: str, relations=("R", "S", "T", "I")):
    """Parse a single query expression against a set of known relations."""
    from semiq.parser import Parser
    p = Parser(f"verify ({src}) ({src});")
    p.relations = set(relations)
    return p.parse_program().statements[0].lhs
