"""No memo keeps a one-shot expression alive.

The oracle interpreter lives for a whole hunt while almost every tree it
sees is fresh, so anything that remembered a tree (a compiled-closure
memo, a render cache) would pile dead trees into the collector's oldest
generation.  Expression nodes are ``slots=True`` dataclasses without a
``__weakref__`` slot, so the check counts references instead.
"""

import sys

import pytest

from repro.core.exprgen import ExpressionGenerator
from repro.dialects import get_dialect
from repro.interp import make_interpreter
from repro.interp.base import EvalError
from repro.rng import RandomSource
from repro.sqlast.nodes import ColumnNode
from repro.sqlast.render import render_expr
from repro.values import Value


def _touch(interp, expr, env, dialect):
    """Run every public entry point that sees *expr*, keeping nothing."""
    for call in (interp.evaluate, interp.evaluate_bool):
        try:
            call(expr, env)
        except EvalError:
            pass
    interp.compile(expr)
    render_expr(expr, dialect)


@pytest.mark.parametrize("dialect", ["sqlite", "mysql", "postgres"])
def test_evaluate_compile_render_hold_no_reference(dialect):
    interp = make_interpreter(dialect)
    gen = ExpressionGenerator(get_dialect(dialect), RandomSource(15))
    column = ColumnNode("t0", "c0", affinity="INTEGER")
    env = {"t0.c0": Value.integer(3)}
    gen.set_columns([(column, "number")], env)
    for _ in range(20):
        expr = gen.condition()
        before = sys.getrefcount(expr)
        _touch(interp, expr, env, dialect)
        assert sys.getrefcount(expr) == before, render_expr(expr, dialect)
