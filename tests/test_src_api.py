"""Every module-level function and class in `src/semiq` has a caller in
`src/semiq`: it is used in its own module, imported by another, or
exported in `semiq.__all__`.  Every method of a `src/semiq` class is read
in `src/semiq`, `scripts/` or `perfbench/`.  A helper only tests call
belongs in `tests/`."""

from __future__ import annotations

import ast
from pathlib import Path

import semiq

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "semiq"

# kept for tests on purpose
ALLOWED = {
    ("oracle", "eval_exp"): "the oracle's independent U-expression evaluator",
    ("exprs", "count_nodes"): "perfbench's node counts (perfbench/spans.py)",
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


def test_every_src_method_has_a_reader():
    # a reader is an attribute load or a name load of the method's name;
    # dunder methods are called by Python itself
    readers = set()
    for path in [*SRC.glob("*.py"), *(ROOT / "scripts").glob("*.py"),
                 *(ROOT / "perfbench").glob("*.py")]:
        for n in ast.walk(ast.parse(path.read_text())):
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                readers.add(n.attr)
            elif isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                readers.add(n.id)
    unread = [f"{path.stem}.{cls.name}.{fn.name}"
              for path in sorted(SRC.glob("*.py"))
              for cls in ast.walk(ast.parse(path.read_text()))
              if isinstance(cls, ast.ClassDef)
              for fn in cls.body
              if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
              and not (fn.name.startswith("__") and fn.name.endswith("__"))
              and fn.name not in readers]
    assert unread == []
