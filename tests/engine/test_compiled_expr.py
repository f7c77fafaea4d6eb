"""The compiled scalar evaluator against a reference interpreter.

``Evaluator.compile`` turns a scalar expression into a closure once per
plan node.  The oracle here is the tree-walking interpreter the engine
used before (kept only in this file, so the engine has one scalar
evaluator): every compiled result must equal the interpreted one, or
both must raise the same error.  The remaining tests pin laziness, the
attribute-reference messages, exact work counters on statements that
stop early, and DML through compiled predicates.
"""

from typing import Any, Sequence

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import Database
from repro.adt.types import NUMERIC
from repro.adt.values import SetValue
from repro.engine.catalog import Catalog
from repro.engine.evaluate import Evaluator
from repro.engine.stats import EvalStats
from repro.errors import (EvaluationError, FunctionError, QueryCancelled,
                          UnknownFunctionError, ValueError_)
from repro.lera import ops
from repro.lifecycle import QueryContext
from repro.terms.parser import parse_term
from repro.terms.term import AttrRef, Const, Fun, Term, num, string, sym


# -- the reference interpreter ------------------------------------------------

def reference_eval(evaluator: Evaluator, expr: Term,
                   env: Sequence[tuple]) -> Any:
    """The former per-row interpreter, verbatim but for ``self`` and
    its ``_truthy`` helper (which was ``bool``)."""
    if isinstance(expr, Const):
        if expr.kind == "symbol":
            return str(expr.value)
        return expr.value

    if isinstance(expr, AttrRef):
        if expr.rel - 1 >= len(env):
            raise EvaluationError(
                f"attribute reference #{expr.rel}.{expr.pos} exceeds "
                f"the {len(env)} bound relation(s)"
            )
        row = env[expr.rel - 1]
        if expr.pos - 1 >= len(row):
            raise EvaluationError(
                f"attribute reference #{expr.rel}.{expr.pos} exceeds "
                f"the row width {len(row)}"
            )
        return row[expr.pos - 1]

    if isinstance(expr, Fun):
        name = expr.name
        if name == "AND":
            return all(
                bool(reference_eval(evaluator, a, env))
                for a in expr.args
            )
        if name == "OR":
            return any(
                bool(reference_eval(evaluator, a, env))
                for a in expr.args
            )
        if name == "NOT":
            return not bool(reference_eval(evaluator, expr.args[0], env))
        if name == "AS":
            return reference_eval(evaluator, expr.args[0], env)
        args = [reference_eval(evaluator, a, env) for a in expr.args]
        return evaluator.catalog.registry.call(name, args, evaluator)

    raise EvaluationError(f"cannot evaluate expression {expr!r}")


def outcome(thunk):
    """("ok", type, value) or ("raise", error class, message): the
    type keeps ``False`` apart from ``0``."""
    try:
        value = thunk()
        return ("ok", type(value), value)
    except Exception as error:  # the comparison is the point
        return ("raise", type(error), str(error))


# -- (a) the property -----------------------------------------------------------

# two bound rows of width 3; #1.3 and #2.2 are SET-valued, so
# comparisons and arithmetic on them broadcast
_ints = st.integers(min_value=-3, max_value=3)
_sets = st.frozensets(_ints, max_size=3).map(
    lambda items: SetValue(sorted(items)))
_envs = st.tuples(st.tuples(_ints, _ints, _sets),
                  st.tuples(_ints, _sets, _ints))

_leaves = st.one_of(
    _ints.map(num),
    st.sampled_from([string("x"), Const(True, "bool"),
                     Const(False, "bool")]),
    # #3.1 and #1.4 are out of range: EvaluationError both ways
    st.builds(AttrRef, st.integers(1, 3), st.integers(1, 4)),
)

_BINARY = ["=", "<>", "<", ">", "<=", ">=", "+", "-", "*", "MEMBER"]


def _extend(children):
    return st.one_of(
        st.builds(lambda op, a, b: Fun(op, (a, b)),
                  st.sampled_from(_BINARY), children, children),
        st.builds(lambda op, args: Fun(op, tuple(args)),
                  st.sampled_from(["AND", "OR"]),
                  st.lists(children, min_size=1, max_size=3)),
        st.builds(lambda a: Fun("NOT", (a,)), children),
    )


_exprs = st.recursive(_leaves, _extend, max_leaves=8)


@pytest.fixture(scope="module")
def evaluator():
    return Evaluator(Catalog())


_ENV = ((2, 0, SetValue([1, 2])), (-1, SetValue([0]), 3))


@settings(max_examples=300, deadline=None)
@given(expr=_exprs, env=_envs)
# AND / OR yield a bool, never an operand's value
@example(expr=Fun("AND", (num(1), string("x"))), env=_ENV)
@example(expr=Fun("OR", (num(0), num(0))), env=_ENV)
@example(expr=Fun("AND", (num(2), num(3), num(0))), env=_ENV)
# broadcasting over a SET operand, on either side
@example(expr=Fun(">", (AttrRef(1, 3), num(1))), env=_ENV)
@example(expr=Fun("-", (AttrRef(1, 1), AttrRef(2, 2))), env=_ENV)
@example(expr=Fun("MEMBER", (AttrRef(2, 1), AttrRef(1, 3))), env=_ENV)
def test_compiled_matches_reference(evaluator, expr, env):
    compiled = evaluator.compile(expr)
    expected = outcome(lambda: reference_eval(evaluator, expr, env))
    assert outcome(lambda: compiled(env)) == expected
    # a closure is reusable: a second call agrees with the first
    assert outcome(lambda: compiled(env)) == expected


# -- (b) laziness -------------------------------------------------------------------

@pytest.fixture
def cat():
    c = Catalog()
    c.define_table("R", [("A", NUMERIC), ("B", NUMERIC)])
    c.insert_many("R", [(i, i % 7) for i in range(40)])
    c.define_table("S", [("C", NUMERIC), ("D", NUMERIC)])
    c.insert_many("S", [(j, j * 2) for j in range(10)])
    c.define_table("EMPTY", [("E", NUMERIC)])
    return c


class TestLazyErrors:
    @pytest.mark.parametrize("qual, error", [
        ("NOSUCH(#1.1) = 1", UnknownFunctionError),
        ("MEMBER(#1.1) = 1", FunctionError),  # MEMBER takes two
    ])
    def test_raises_only_over_rows(self, cat, qual, error):
        over = lambda rel: ops.search([sym(rel)], parse_term(qual),
                                      [AttrRef(1, 1)])
        assert Evaluator(cat).evaluate(over("EMPTY")).rows == []
        with pytest.raises(error):
            Evaluator(cat).evaluate(over("R"))

    def test_unknown_function_in_projection(self, cat):
        items = [Fun("NOSUCH", (AttrRef(1, 1),))]
        empty = ops.search([sym("EMPTY")], parse_term("TRUE"), items)
        assert Evaluator(cat).evaluate(empty).rows == []
        with pytest.raises(UnknownFunctionError):
            Evaluator(cat).evaluate(
                ops.search([sym("R")], parse_term("TRUE"), items))

    def test_compile_itself_never_raises(self, evaluator):
        closure = evaluator.compile(Fun("NOSUCH", (num(1),)))
        with pytest.raises(UnknownFunctionError, match="NOSUCH"):
            closure(())


# -- (c) attribute references out of range ----------------------------------------

class TestAttrRefErrors:
    def test_relation_out_of_range(self, evaluator):
        closure = evaluator.compile(AttrRef(2, 1))
        with pytest.raises(EvaluationError) as info:
            closure([(1, 2)])
        assert str(info.value) == (
            "attribute reference #2.1 exceeds the 1 bound relation(s)")

    def test_width_out_of_range(self, evaluator):
        closure = evaluator.compile(AttrRef(1, 3))
        with pytest.raises(EvaluationError) as info:
            closure([(1, 2)])
        assert str(info.value) == (
            "attribute reference #1.3 exceeds the row width 2")

    @pytest.mark.parametrize("text", ["#1.3 > 1", "1 < #1.3",
                                      "#1.1 = #1.3", "#1.3 = #1.1"])
    def test_inlined_operands_keep_the_message(self, evaluator, text):
        with pytest.raises(EvaluationError, match="row width 2"):
            evaluator.compile(parse_term(text))([(1, 2)])

    def test_projection_keeps_the_message(self, cat):
        t = ops.search([sym("R")], parse_term("TRUE"),
                       [AttrRef(1, 1), AttrRef(1, 5)])
        with pytest.raises(EvaluationError, match="#1.5 exceeds the row"):
            Evaluator(cat).evaluate(t)


# -- (d) exact counters on statements that stop early ------------------------------

def _join(qual: str, items):
    return ops.search([sym("R"), sym("S")], parse_term(qual), items)


def _snapshot(cat, term, context=None, error=None) -> dict:
    stats = EvalStats()
    evaluator = Evaluator(cat, stats=stats, context=context)
    if error is None:
        evaluator.evaluate(term)
    else:
        with pytest.raises(error):
            evaluator.evaluate(term)
    return stats.snapshot()


def _counters(scanned, output, pairs, quals, operators, truncated=0):
    return {"tuples_scanned": scanned, "tuples_output": output,
            "join_pairs": pairs, "fix_iterations": 0,
            "qual_evaluations": quals, "operators_evaluated": operators,
            "truncated": truncated}


class TestEarlyStopCounters:
    """Each figure is what the per-row interpreter produced."""

    def test_degrade_truncation(self, cat):
        context = QueryContext(row_budget=45, degrade=True,
                               check_interval=8)
        term = _join("#1.2 = #2.1 AND #1.1 > 3",
                     [AttrRef(1, 1), AttrRef(2, 2)])
        assert _snapshot(cat, term, context) == _counters(
            scanned=55, output=0, pairs=3, quals=7, operators=3,
            truncated=1)

    def test_cancelled(self, cat):
        context = QueryContext(check_interval=1000)

        def trip(args, ctx):
            if args[0] == 17:
                context.cancel("test")
            return True
        cat.registry.define("TRIP", trip, 1)
        term = _join("TRIP(#1.1) AND #1.2 = #2.1",
                     [AttrRef(1, 1), AttrRef(2, 2)])
        assert _snapshot(cat, term, context, QueryCancelled) == _counters(
            scanned=68, output=0, pairs=171, quals=188, operators=3)

    def test_function_error_mid_projection(self, cat):
        term = ops.search([sym("R")], parse_term("#1.1 > 5"),
                          [Fun("/", (AttrRef(1, 1), AttrRef(1, 2)))])
        assert _snapshot(cat, term, error=FunctionError) == _counters(
            scanned=48, output=0, pairs=0, quals=8, operators=2)

    def test_function_error_mid_join_projection(self, cat):
        term = _join("#1.2 = #2.1",
                     [Fun("/", (AttrRef(2, 2), AttrRef(1, 2)))])
        assert _snapshot(cat, term, error=FunctionError) == _counters(
            scanned=51, output=0, pairs=1, quals=1, operators=3)

    def test_function_error_in_existential(self, cat):
        ratio = Fun("/", (AttrRef(1, 1), AttrRef(2, 1)))
        term = Fun("SEMIJOIN", (sym("R"), sym("S"),
                                Fun(">", (ratio, num(1)))))
        assert _snapshot(cat, term, error=FunctionError) == _counters(
            scanned=51, output=0, pairs=1, quals=1, operators=3)


# -- (e) DML through compiled predicates --------------------------------------------

class TestCompiledDml:
    @pytest.fixture
    def db(self):
        database = Database()
        database.execute("TABLE T (Id : NUMERIC, Amount : NUMERIC, "
                         "Qty : NUMERIC, Name : CHAR)")
        database.execute("INSERT INTO T VALUES " + ", ".join(
            f"({i}, {i * 37 % 1000}, {i % 9}, 'n{i % 4}')"
            for i in range(120)))
        return database

    @staticmethod
    def _model():
        return [(i, i * 37 % 1000, i % 9, f"n{i % 4}") for i in range(120)]

    @staticmethod
    def _rows(db):
        return sorted(db.query("SELECT * FROM T").rows)

    def test_update_matches_model(self, db):
        db.execute(
            "UPDATE T SET Amount = 999 - Amount, Qty = Qty * 2 + 1 "
            "WHERE Id >= 30 AND Id < 75 AND NOT Name = 'n2'")
        model = [(i, 999 - a, q * 2 + 1, n)
                 if 30 <= i < 75 and n != "n2" else (i, a, q, n)
                 for i, a, q, n in self._model()]
        assert self._rows(db) == sorted(model)

    def test_delete_matches_model(self, db):
        db.execute("DELETE FROM T WHERE Amount > 800 OR Qty = 3")
        model = [r for r in self._model() if not (r[1] > 800 or r[2] == 3)]
        assert len(model) < 120
        assert self._rows(db) == sorted(model)

    def test_where_false_changes_nothing(self, db):
        db.execute("UPDATE T SET Qty = 0 WHERE Id < 0")
        assert self._rows(db) == sorted(self._model())

    def test_coercion_error_leaves_table_unchanged(self, db):
        with pytest.raises(ValueError_):
            db.execute("UPDATE T SET Amount = Name WHERE Id > 100")
        assert self._rows(db) == sorted(self._model())

    def test_evaluation_error_leaves_table_unchanged(self, db):
        with pytest.raises(FunctionError, match="division by zero"):
            db.execute("UPDATE T SET Amount = 1 / (Id - 60) "
                       "WHERE Id > 10")
        assert self._rows(db) == sorted(self._model())
