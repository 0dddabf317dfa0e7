"""Every module-level function and class in `src/semiq` has a caller in
`src/semiq`: it is used in its own module, imported by another, or
exported in `semiq.__all__`.  A helper only tests call belongs in
`tests/`."""

from __future__ import annotations

import ast
from pathlib import Path

import semiq

SRC = Path(__file__).resolve().parent.parent / "src" / "semiq"

# kept for tests on purpose
ALLOWED = {
    ("oracle", "eval_exp"): "the oracle's independent U-expression evaluator",
    ("sqlast", "print_program"): "the round-trip SQL printer",
}


def test_every_src_definition_has_a_src_caller():
    trees = {p.stem: ast.parse(p.read_text()) for p in SRC.glob("*.py")}
    imported = {(node.module, alias.name)
                for tree in trees.values() for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names}
    unused = []
    for mod, tree in trees.items():
        loaded = {n.id for n in ast.walk(tree)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if not (name in loaded or (mod, name) in imported
                    or name in semiq.__all__ or (mod, name) in ALLOWED):
                unused.append(f"{mod}.{name}")
    assert unused == []
