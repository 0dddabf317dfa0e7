"""Semiring-based SQL equivalence verifier."""

from .config import Budget, BudgetError, Limits
from .parser import ParseError, parse
from .frontend import build_env, desugar_groupby, infer_schema, inline_views
from .pipeline import run_program, run_program_text, run_verify
from .schema import Schema, SchemaEnv, SemanticError
from .translate import Denotation, denote
from .spnf import SpnfExp, Term, to_spnf
from .exprs import VarGen

__all__ = [
    "Budget", "BudgetError", "Limits", "ParseError", "parse", "build_env",
    "desugar_groupby", "infer_schema", "inline_views", "run_program",
    "run_program_text", "run_verify", "Schema", "SchemaEnv", "SemanticError",
    "Denotation", "denote", "SpnfExp", "Term", "to_spnf", "VarGen",
]

__version__ = "0.1.0"
