"""No input gives a traceback: seeded word-level mutations of the bundled
programs each end in a verdict or a clean error, never an internal one."""

from __future__ import annotations

import random
import re
import time
from pathlib import Path

from semiq.cli import main

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"
MUTANTS = 150

# the fragments an edit draws from, by kind; a replacement keeps the kind
# of the word it replaces, and replaces only columns, literals and
# operators, so that many mutants still parse and reach the checks after
# parsing
VOCAB = {
    "column": ["x.a", "y.b", "t.k", "t1.k", "t2.a", "x.zz", "zz.a", "x.*"],
    "literal": ["0", "1", "12", "'s'"],
    "operator": ["=", "<>", "<", ">=", "+"],
    "name": ["R", "S", "I", "x", "y", "t", "o", "a", "k", "cnt", "sum",
             "SELECT", "DISTINCT", "FROM", "WHERE", "AND", "OR", "NOT",
             "EXISTS", "UNION", "ALL", "EXCEPT", "GROUP", "BY", "AS", "TRUE",
             "verify", "view", "table", "key", "foreign", "index", "int"],
    "mark": ["(", ")", ",", ";", "*", "??"],
}
KINDS = [("column", r"[A-Za-z_]\w*\.(?:\w+|\*)"), ("literal", r"'[^']*'|\d+"),
         ("operator", r"<>|>=|<=|[=<>+]"), ("name", r"[A-Za-z_]\w*"),
         ("mark", r"\?\?|\S")]
WORD = re.compile("|".join(f"(?P<{kind}>{rx})" for kind, rx in KINDS))


def mutate(rng: random.Random, text: str) -> str:
    """One or two word edits, each an insert, a delete or (twice as
    likely) a replace; the words are joined into one line, so comments go
    first."""
    code = "\n".join(line.split("--")[0] for line in text.splitlines())
    words = [(m.lastgroup, m.group()) for m in WORD.finditer(code)]
    for _ in range(rng.randint(1, 2)):
        op = rng.choice(("insert", "delete", "replace", "replace"))
        if op == "replace":
            # a column, literal or operator, for one of its own kind
            i = rng.choice([j for j, (kind, _) in enumerate(words)
                            if kind in ("column", "literal", "operator")])
            kind = words[i][0]
            words[i] = (kind, rng.choice(VOCAB[kind]))
            continue
        i = rng.randrange(len(words))
        if op == "delete":
            del words[i]
        else:
            kind = rng.choice(list(VOCAB))
            words.insert(i, (kind, rng.choice(VOCAB[kind])))
    return " ".join(w for _, w in words)


def test_mutated_programs_get_a_verdict_or_a_clean_error(tmp_path, capsys):
    programs = [p.read_text() for p in sorted(BENCH.glob("*.cos"))]
    assert len(programs) == 8
    rng = random.Random(15)
    path = tmp_path / "mutant.cos"
    start = time.monotonic()
    internal = []
    for k in range(MUTANTS):
        text = mutate(rng, programs[k % len(programs)])
        path.write_text(text)
        rc = main([str(path), "--timeout", "2"])
        capsys.readouterr()
        if rc not in (0, 1, 2):
            internal.append((rc, text))
    assert internal == []
    assert time.monotonic() - start < 5.0
