"""The LERA evaluator: executes algebra terms against the catalog.

This is the execution substrate that makes rewriting *measurable*.  The
physical strategy is deliberately simple and deterministic:

* SEARCH / JOIN build the nested-loop product of their inputs in the
  given order, applying each conjunct of the qualification as soon as
  all the relations it references are bound (so a merged qualification
  filters early -- the benefit merging rules expose);
* UNION / INTERSECTION / DIFFERENCE use set semantics, SEARCH /
  PROJECTION keep bags (ESQL's default collection is a bag);
* FIX is computed by *semi-naive* iteration by default (delta rules per
  occurrence of the recursive relation, which also covers the non-linear
  case), with naive recomputation available as the A3 ablation baseline.

Scalar expressions (qualifications, projection items) are compiled
once per plan node into closures by :meth:`Evaluator.compile`, with
function implementations resolved from the registry at compile time;
the per-node setup is reused across fixpoint iterations.

Work counters (see :mod:`repro.engine.stats`) are updated throughout;
the row loops batch them in locals and flush on the way out, so the
totals equal per-row increments even when a statement stops early.

Lifecycle governance: when a :class:`~repro.lifecycle.QueryContext` is
active (passed explicitly or ambient via
:func:`~repro.lifecycle.current_context`), the evaluator checks it
cooperatively -- ``tick()`` per scanned tuple and join probe,
``check()`` per fixpoint iteration -- and charges its row and memory
budgets per materialized batch.  A pulled cancel token or a hard
budget trip surfaces as :class:`~repro.errors.QueryCancelled` /
:class:`~repro.errors.BudgetExceeded` at the next check site; under
the context's *degrade* mode a budget trip instead raises the internal
:class:`~repro.lifecycle.Truncation`, which every materializing
operator catches, keeping its partial rows -- the statement completes
with a truncated result flagged in ``EvalStats.truncated``.  Without a
context every governance site is one ``is None`` test (the null-object
fast path).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, NamedTuple, Optional, Sequence

from repro.engine.catalog import Catalog
from repro.engine.stats import EvalStats
from repro.errors import EvaluationError, FunctionError
from repro.lera import ops
from repro.lifecycle.context import Truncation, current_context
from repro.lera.schema import Schema, schema_of
from repro.terms.term import (AttrRef, Const, Fun, Term, conjuncts, is_fun,
                              mk_fun, sym)

__all__ = ["Evaluator", "Result", "evaluate"]

_MAX_DEFAULT_ITERATIONS = 100_000


class Result:
    """Evaluation result: rows plus the output schema."""

    __slots__ = ("rows", "schema")

    def __init__(self, rows: list[tuple], schema: Schema):
        self.rows = rows
        self.schema = schema

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def as_dicts(self) -> list[dict]:
        names = self.schema.names
        return [dict(zip(names, row)) for row in self.rows]

    def to_table(self, max_rows: int = 50) -> str:
        """Render the result as an aligned text table."""
        from repro.adt.values import value_repr
        names = list(self.schema.names)
        shown = self.rows[:max_rows]
        cells = [[value_repr(v) if isinstance(v, (str, bool)) or v is None
                  else repr(v) for v in row] for row in shown]
        widths = [
            max([len(n)] + [len(row[i]) for row in cells])
            for i, n in enumerate(names)
        ]
        header = " | ".join(n.ljust(w) for n, w in zip(names, widths))
        rule = "-+-".join("-" * w for w in widths)
        lines = [header, rule]
        for row in cells:
            lines.append(" | ".join(
                c.ljust(w) for c, w in zip(row, widths)
            ))
        if len(self.rows) > max_rows:
            lines.append(f"... ({len(self.rows) - max_rows} more)")
        lines.append(f"({len(self.rows)} row"
                     f"{'' if len(self.rows) == 1 else 's'})")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Result({len(self.rows)} rows, schema={self.schema!r})"


def _dedupe(rows: Sequence[tuple]) -> list[tuple]:
    return list(dict.fromkeys(rows))


class Evaluator:
    """Evaluates LERA terms.

    Parameters
    ----------
    catalog:
        The catalog holding relations, types, functions and objects.
    stats:
        Optional :class:`EvalStats` receiving work counters.
    semi_naive:
        Fixpoint strategy; False selects naive recomputation (ablation A3).
    max_fix_iterations:
        Safety bound on fixpoint rounds.
    obs:
        Optional :class:`~repro.obs.bus.EventBus`; when it has
        subscribers every evaluated operator emits an ``EvalOp`` event
        (operator name, rows produced, monotonic duration).
    context:
        Optional :class:`~repro.lifecycle.QueryContext` governing this
        evaluation; defaults to the ambient statement context, so
        evaluators built deep inside the translator (DML predicate
        subqueries) inherit the statement's cancel token and budgets
        without signature plumbing.
    """

    def __init__(self, catalog: Catalog,
                 stats: Optional[EvalStats] = None,
                 semi_naive: bool = True,
                 hash_joins: bool = False,
                 max_fix_iterations: int = _MAX_DEFAULT_ITERATIONS,
                 obs=None, context=None, analyze=None):
        self.catalog = catalog
        self.stats = stats if stats is not None else EvalStats()
        self.semi_naive = semi_naive
        self.hash_joins = hash_joins
        self.max_fix_iterations = max_fix_iterations
        self.obs = obs
        # EXPLAIN ANALYZE: an AnalyzeCollector accumulating per-operator
        # actuals, or None (the default) -- the off path costs one is-None
        # test per dispatched node, same discipline as the event bus
        self.analyze = analyze
        self.context = context if context is not None \
            else current_context()
        # bytes this evaluator has reserved against the context's
        # memory budget; released wholesale when evaluate() exits
        self._mem_reserved = 0

    # registry implementations receive the evaluator as their context
    @property
    def objects(self):
        return self.catalog.objects

    @property
    def type_system(self):
        return self.catalog.type_system

    # -- public API ---------------------------------------------------------
    def evaluate(self, term: Term) -> Result:
        self._cache: dict[Term, list[tuple]] = {}
        # one snapshot per sys.* relation per evaluation: a plan that
        # scans the same virtual twice (self-join, fixpoint) must see
        # the same point-in-time rows both times
        self._vrows: dict[str, list[tuple]] = {}
        # per-node compiled setup (see _node_plan)
        self._plans: dict[Term, Any] = {}
        ctx = self.context
        if ctx is None:
            rows = self._eval_rel(term, {}, {})
            schema = schema_of(term, self.catalog)
            return Result(rows, schema)
        try:
            try:
                rows = self._eval_rel(term, {}, {})
            except Truncation:
                # the trip escaped every materializing handler (e.g. a
                # bare-relation plan): an empty prefix is the result
                self._note_truncated()
                rows = []
            schema = schema_of(term, self.catalog)
            return Result(rows, schema)
        finally:
            # zero-balance the statement's memory account: every byte
            # this evaluator reserved is released here, completion or
            # abort alike (the hypothesis property relies on this)
            if self._mem_reserved:
                ctx.release(self._mem_reserved)
                self._mem_reserved = 0

    # -- lifecycle accounting -------------------------------------------------
    def _note_truncated(self) -> None:
        if not self.stats.truncated:
            self.stats.incr("truncated")

    def _reserve(self, rows: list) -> None:
        """Reserve the estimated bytes of one materialized row list
        against the context's memory budget (may trip it)."""
        nbytes = _estimate_bytes(rows)
        # the accountant records the reservation *before* the budget
        # check raises, so the finally-release stays zero-balanced
        self._mem_reserved += nbytes
        self.context.reserve(nbytes)

    def _account_out(self, rows: list) -> list:
        """Charge one operator's output batch (rows + memory).

        A degrade-mode trip here keeps the batch: the context is now
        flagged truncated, so the very next tick anywhere unwinds the
        operator stack.  A hard trip propagates as BudgetExceeded.
        """
        ctx = self.context
        if ctx is None or not rows:
            return rows
        try:
            ctx.charge_rows(len(rows))
            self._reserve(rows)
        except Truncation:
            self._note_truncated()
        return rows

    def _charge_scan(self, rows: list, ctx) -> list:
        """Charge one relation scan; returns the (possibly truncated)
        batch to hand to the consuming operator."""
        before = ctx.rows_charged
        try:
            ctx.tick(len(rows))
            ctx.charge_rows(len(rows))
            self._reserve(rows)
            return rows
        except Truncation:
            self._note_truncated()
            if ctx.row_budget is not None:
                return rows[:max(0, ctx.row_budget - before)]
            return []

    # -- relation evaluation ------------------------------------------------
    def _eval_rel(self, term: Term, fix_rows: dict,
                  fix_env: dict) -> list[tuple]:
        # Common-subexpression cache: a compound subterm that does not
        # reference any in-scope fixpoint relation always evaluates to the
        # same rows within one query; the Alexander rewrite relies on this
        # (the inlined magic fixpoint is shared by every specialized
        # branch and must be computed once).
        cache = getattr(self, "_cache", None)
        cacheable = (
            cache is not None
            and isinstance(term, Fun)
            and term.name in ("FIX", "UNION", "SEARCH", "JOIN", "NEST")
            and not (fix_rows and _free_symbols(term) & set(fix_rows))
        )
        if cacheable and term in cache:
            return cache[term]
        rows = self._eval_rel_inner(term, fix_rows, fix_env)
        if cacheable:
            cache[term] = rows
        return rows

    def _eval_rel_inner(self, term: Term, fix_rows: dict,
                        fix_env: dict) -> list[tuple]:
        bus = self.obs
        analyze = self.analyze
        if analyze is None and not bus:
            return self._eval_dispatch(term, fix_rows, fix_env)
        from time import perf_counter
        if analyze is not None:
            analyze.enter(term)
            rows = None
            t0 = perf_counter()
            try:
                rows = self._eval_dispatch(term, fix_rows, fix_env)
            finally:
                # exit even when a Truncation / budget trip unwinds
                # through this node, keeping the collector's nesting
                # stack aligned with the recursion
                analyze.exit(
                    term,
                    len(rows) if rows is not None else 0,
                    perf_counter() - t0,
                    _estimate_bytes(rows) if rows else 0,
                )
        else:
            t0 = perf_counter()
            rows = self._eval_dispatch(term, fix_rows, fix_env)
        if bus:
            from repro.obs.events import EvalOp
            operator = (term.name if isinstance(term, Fun)
                        else "SCAN" if ops.is_relation_name(term)
                        else type(term).__name__)
            bus.emit(EvalOp(operator, len(rows), perf_counter() - t0))
        return rows

    def _eval_dispatch(self, term: Term, fix_rows: dict,
                       fix_env: dict) -> list[tuple]:
        self.stats.incr("operators_evaluated")

        if ops.is_relation_name(term):
            name = str(term.value)  # type: ignore[union-attr]
            if name in fix_rows:
                rows = fix_rows[name]
            elif self.catalog.is_table(name):
                rows = self.catalog.rows(name)
            elif self.catalog.is_virtual(name):
                vrows = getattr(self, "_vrows", None)
                if vrows is None:
                    vrows = self._vrows = {}
                if name in vrows:
                    rows = vrows[name]
                else:
                    rows = vrows[name] = self.catalog.virtual_rows(name)
            elif self.catalog.is_view(name):
                # views are normally expanded at translation time; keep a
                # fallback so hand-built plans can reference them
                view = self.catalog.view(name)
                return self._eval_rel(view.term, fix_rows, fix_env)
            else:
                raise EvaluationError(f"unknown relation {name!r}")
            self.stats.incr("tuples_scanned", len(rows))
            ctx = self.context
            if ctx is None:
                return list(rows)
            return self._charge_scan(list(rows), ctx)

        if not isinstance(term, Fun):
            raise EvaluationError(f"not a LERA term: {term!r}")

        handler = getattr(self, f"_eval_{term.name.lower()}", None)
        if handler is None:
            raise EvaluationError(
                f"cannot evaluate operator {term.name!r}"
            )
        return handler(term, fix_rows, fix_env)

    # -- per-node setup -------------------------------------------------------
    def _node_plan(self, term: Fun, build: Callable[[Fun], Any]) -> Any:
        """The compiled setup of one plan node, built on its first
        evaluation and reused for the rest of this ``evaluate()`` (a
        fixpoint body re-evaluates the same nodes every iteration)."""
        plan = self._plans.get(term)
        if plan is None:
            plan = self._plans[term] = build(term)
        return plan

    def _search_plan(self, term: Fun) -> "_SearchPlan":
        inputs, qual, items = ops.search_parts(term)
        return self._qualified_plan(
            inputs, qual, self._compile_row([ops.item_expr(i)
                                             for i in items]))

    def _join_plan(self, term: Fun) -> "_SearchPlan":
        return self._qualified_plan(ops.rel_list(term), term.args[1],
                                    _concat_env)

    def _qualified_plan(self, inputs, qual: Term,
                        project: Callable) -> "_SearchPlan":
        """Split ``qual`` into constant conjuncts and conjuncts grouped
        by the loop depth at which they close, choose the loop order
        and compile everything once.

        The compound SEARCH gives the system "the necessary degrees of
        freedom to physically optimize" (section 3.1): the loop order is
        chosen greedily so that each next input makes as many conjuncts
        evaluable as possible -- the textual input order carries no
        physical meaning.
        """
        from repro.lera.analysis import rels_referenced
        n = len(inputs)
        conj_refs: list[tuple[Term, frozenset]] = []
        for c in conjuncts(qual):
            refs = frozenset(rels_referenced(c))
            if refs and max(refs) > n:
                raise EvaluationError(
                    f"qualification references input {max(refs)} but "
                    f"the operator has {n} inputs"
                )
            conj_refs.append((c, refs))
        order = self._greedy_order(n, [refs for __, refs in conj_refs])

        # conjuncts grouped by the loop depth at which they close
        depth_of: dict[int, int] = {
            pos: depth for depth, pos in enumerate(order)
        }
        by_depth: list[list[Term]] = [[] for __ in range(n)]
        for c, refs in conj_refs:
            if refs:
                by_depth[max(depth_of[r] for r in refs)].append(c)

        # optional hash joins: for each loop depth > 0 pick one
        # equi-conjunct linking the incoming input to an already-bound
        # one and index the input on it (ablation A6).  The probe is
        # chosen from the conjunct terms, not their closures.
        hash_probe: list = [None] * n
        if self.hash_joins:
            for depth in range(1, n):
                pos = order[depth]
                bound = {order[d] for d in range(depth)}
                for c in by_depth[depth]:
                    probe = _equi_probe(c, pos, bound)
                    if probe is not None:
                        hash_probe[depth] = probe
                        break

        compile_ = self.compile
        return _SearchPlan(
            inputs=inputs,
            constant=[compile_(c) for c, refs in conj_refs if not refs],
            order=order,
            by_depth=[[compile_(c) for c in cs] for cs in by_depth],
            hash_probe=hash_probe,
            project=project,
        )

    # -- SEARCH / JOIN ----------------------------------------------------------
    def _eval_search(self, term: Fun, fix_rows: dict,
                     fix_env: dict) -> list[tuple]:
        return self._eval_qualified(
            self._node_plan(term, self._search_plan), fix_rows, fix_env)

    def _eval_join(self, term: Fun, fix_rows: dict,
                   fix_env: dict) -> list[tuple]:
        return self._eval_qualified(
            self._node_plan(term, self._join_plan), fix_rows, fix_env)

    def _eval_qualified(self, plan: "_SearchPlan", fix_rows: dict,
                        fix_env: dict) -> list[tuple]:
        out: list[tuple] = []
        try:
            self._combinations(plan, fix_rows, fix_env, out)
        except Truncation:
            self._note_truncated()
        self.stats.incr("tuples_output", len(out))
        return self._account_out(out)

    def _combinations(self, plan: "_SearchPlan", fix_rows: dict,
                      fix_env: dict, out: list) -> None:
        """Nested-loop product with eager conjunct application: appends
        ``plan.project(env)`` to ``out`` for every qualifying
        combination.

        The work counters are kept in locals and flushed once on the
        way out -- normal return or any exception alike -- so they
        equal per-row increments exactly.
        """
        counters = self.stats.counters
        # constant conjuncts: decide once, before touching any input
        for c in plan.constant:
            counters["qual_evaluations"] += 1
            if not c([]):
                return

        relations = [self._eval_rel(r, fix_rows, fix_env)
                     for r in plan.inputs]
        order = plan.order
        by_depth = plan.by_depth
        hash_probe = plan.hash_probe
        project = plan.project
        emit = out.append
        n = len(order)
        last = n - 1
        env: list = [None] * n
        indexes: list = [None] * n
        # the join-probe cooperative check site: one tick per candidate
        # row extended at any depth (captured locally -- the per-row
        # cost without a context is exactly one None test)
        ctx = self.context
        scanned = pairs = quals = 0

        def extend(depth: int) -> None:
            nonlocal scanned, pairs, quals
            slot = order[depth] - 1
            probe = hash_probe[depth]
            if probe is not None:
                own_col, other_ref = probe
                if indexes[depth] is None:
                    index: dict = {}
                    for row in relations[slot]:
                        index.setdefault(row[own_col - 1], []).append(row)
                    indexes[depth] = index
                key = env[other_ref.rel - 1][other_ref.pos - 1]
                candidates = indexes[depth].get(key, ())
            else:
                candidates = relations[slot]
            conds = by_depth[depth]
            for row in candidates:
                if depth:
                    pairs += 1
                else:
                    scanned += 1
                if ctx is not None:
                    ctx.tick()
                env[slot] = row
                for c in conds:
                    quals += 1
                    if not c(env):
                        break
                else:
                    if depth == last:
                        emit(project(env))
                    else:
                        extend(depth + 1)
            env[slot] = None

        try:
            if n:
                extend(0)
            else:
                emit(project(env))
        finally:
            counters["tuples_scanned"] += scanned
            counters["join_pairs"] += pairs
            counters["qual_evaluations"] += quals

    @staticmethod
    def _greedy_order(n: int, conj_refs: list) -> list[int]:
        """Loop order (1-based input positions): each step picks the
        input closing the most not-yet-applied conjuncts, ties broken
        by textual position."""
        remaining = list(range(1, n + 1))
        bound: set[int] = set()
        pending = [refs for refs in conj_refs if refs]
        order: list[int] = []
        while remaining:
            def score(pos: int) -> int:
                probe = bound | {pos}
                return sum(1 for refs in pending if refs <= probe)
            best = max(remaining, key=lambda pos: (score(pos), -pos))
            order.append(best)
            remaining.remove(best)
            bound.add(best)
            pending = [refs for refs in pending if not refs <= bound]
        return order

    # -- single-input operators -------------------------------------------------
    def _eval_filter(self, term: Fun, fix_rows: dict,
                     fix_env: dict) -> list[tuple]:
        rows = self._eval_rel(term.args[0], fix_rows, fix_env)
        pred = self._node_plan(term, lambda t: self.compile(t.args[1]))
        ctx = self.context
        out = []
        quals = 0
        try:
            for row in rows:
                if ctx is not None:
                    ctx.tick()
                quals += 1
                if pred((row,)):
                    out.append(row)
        except Truncation:
            self._note_truncated()
        finally:
            self.stats.counters["qual_evaluations"] += quals
        self.stats.incr("tuples_output", len(out))
        return self._account_out(out)

    def _eval_projection(self, term: Fun, fix_rows: dict,
                         fix_env: dict) -> list[tuple]:
        rows = self._eval_rel(term.args[0], fix_rows, fix_env)
        project = self._node_plan(term, lambda t: self._compile_row(
            [ops.item_expr(i) for i in ops.proj_items(t)]))
        ctx = self.context
        out = []
        try:
            for row in rows:
                if ctx is not None:
                    ctx.tick()
                out.append(project((row,)))
        except Truncation:
            self._note_truncated()
        self.stats.incr("tuples_output", len(out))
        return self._account_out(out)

    def _eval_empty(self, term: Fun, fix_rows: dict,
                    fix_env: dict) -> list[tuple]:
        return []

    def _eval_distinct(self, term: Fun, fix_rows: dict,
                       fix_env: dict) -> list[tuple]:
        return _dedupe(self._eval_rel(term.args[0], fix_rows, fix_env))

    def _eval_semijoin(self, term: Fun, fix_rows: dict,
                       fix_env: dict) -> list[tuple]:
        return self._eval_existential(term, fix_rows, fix_env, keep=True)

    def _eval_antijoin(self, term: Fun, fix_rows: dict,
                       fix_env: dict) -> list[tuple]:
        return self._eval_existential(term, fix_rows, fix_env, keep=False)

    def _eval_existential(self, term: Fun, fix_rows: dict,
                          fix_env: dict, keep: bool) -> list[tuple]:
        left = self._eval_rel(term.args[0], fix_rows, fix_env)
        right = self._eval_rel(term.args[1], fix_rows, fix_env)
        pred = self._node_plan(term, lambda t: self.compile(t.args[2]))
        ctx = self.context
        out = []
        scanned = pairs = 0
        try:
            for row in left:
                scanned += 1
                if ctx is not None:
                    ctx.tick()
                found = False
                for partner in right:
                    # one qualification evaluation per join pair
                    pairs += 1
                    if ctx is not None:
                        ctx.tick()
                    if pred((row, partner)):
                        found = True
                        break
                if found == keep:
                    out.append(row)
        except Truncation:
            self._note_truncated()
        finally:
            counters = self.stats.counters
            counters["tuples_scanned"] += scanned
            counters["join_pairs"] += pairs
            counters["qual_evaluations"] += pairs
        self.stats.incr("tuples_output", len(out))
        return self._account_out(out)

    def _eval_values(self, term: Fun, fix_rows: dict,
                     fix_env: dict) -> list[tuple]:
        rows_list = term.args[0]
        return [self._compile_row(row_term.args)(())
                for row_term in rows_list.args]  # type: ignore[union-attr]

    def _eval_union(self, term: Fun, fix_rows: dict,
                    fix_env: dict) -> list[tuple]:
        out: list[tuple] = []
        try:
            for r in ops.relation_inputs(term):
                out.extend(self._eval_rel(r, fix_rows, fix_env))
        except Truncation:
            self._note_truncated()
        return _dedupe(out)

    def _eval_intersection(self, term: Fun, fix_rows: dict,
                           fix_env: dict) -> list[tuple]:
        inputs = ops.relation_inputs(term)
        out = _dedupe(self._eval_rel(inputs[0], fix_rows, fix_env))
        for r in inputs[1:]:
            keep = set(self._eval_rel(r, fix_rows, fix_env))
            out = [row for row in out if row in keep]
        return out

    def _eval_difference(self, term: Fun, fix_rows: dict,
                         fix_env: dict) -> list[tuple]:
        left = _dedupe(self._eval_rel(term.args[0], fix_rows, fix_env))
        right = set(self._eval_rel(term.args[1], fix_rows, fix_env))
        return [row for row in left if row not in right]

    # -- fixpoint -------------------------------------------------------------
    def _eval_fix(self, term: Fun, fix_rows: dict,
                  fix_env: dict) -> list[tuple]:
        rel_const, body = term.args
        name = str(rel_const.value)  # type: ignore[union-attr]
        schema = schema_of(term, self.catalog, fix_env)
        inner_env = dict(fix_env)
        inner_env[name] = schema

        if self.semi_naive:
            return self._fix_semi_naive(name, body, fix_rows, inner_env)
        return self._fix_naive(name, body, fix_rows, inner_env)

    def _fix_naive(self, name: str, body: Term, fix_rows: dict,
                   fix_env: dict) -> list[tuple]:
        ctx = self.context
        total: dict[tuple, None] = {}
        try:
            for iteration in range(self.max_fix_iterations):
                self.stats.incr("fix_iterations")
                # the fixpoint-iteration check site: an iteration is
                # far coarser than a row, so check unconditionally
                if ctx is not None:
                    ctx.check()
                inner_rows = dict(fix_rows)
                inner_rows[name] = list(total)
                produced = self._eval_rel(body, inner_rows, fix_env)
                before = len(total)
                for row in produced:
                    total.setdefault(row, None)
                if len(total) == before:
                    return self._account_out(list(total))
        except Truncation:
            self._note_truncated()
            return self._account_out(list(total))
        raise EvaluationError(
            f"fixpoint {name} did not converge within "
            f"{self.max_fix_iterations} iterations"
        )

    def _fix_semi_naive(self, name: str, body: Term, fix_rows: dict,
                        fix_env: dict) -> list[tuple]:
        delta_name = f"{name}$DELTA"
        inner_env = dict(fix_env)
        inner_env[delta_name] = inner_env[name]

        if is_fun(body, "UNION"):
            branches = list(ops.relation_inputs(body))
        else:
            branches = [body]

        base_branches = [b for b in branches
                         if _count_symbol(b, name) == 0]
        rec_branches = [b for b in branches
                        if _count_symbol(b, name) > 0]

        ctx = self.context
        total: dict[tuple, None] = {}
        try:
            for b in base_branches:
                self.stats.incr("fix_iterations")
                if ctx is not None:
                    ctx.check()
                for row in self._eval_rel(b, fix_rows, inner_env):
                    total.setdefault(row, None)
            delta = list(total)

            # delta rules: one variant per occurrence of the recursive
            # relation (covers the non-linear case: at least one
            # occurrence reads the delta, the others the running
            # total).
            variants: list[Term] = []
            for b in rec_branches:
                occurrences = _count_symbol(b, name)
                for i in range(occurrences):
                    variants.append(
                        _replace_nth_symbol(b, name, i, delta_name)
                    )

            guard = 0
            while delta:
                guard += 1
                if guard > self.max_fix_iterations:
                    raise EvaluationError(
                        f"fixpoint {name} did not converge within "
                        f"{self.max_fix_iterations} iterations"
                    )
                self.stats.incr("fix_iterations")
                # the fixpoint-iteration check site (semi-naive)
                if ctx is not None:
                    ctx.check()
                inner_rows = dict(fix_rows)
                inner_rows[name] = list(total)
                inner_rows[delta_name] = delta
                produced: list[tuple] = []
                for v in variants:
                    produced.extend(
                        self._eval_rel(v, inner_rows, inner_env)
                    )
                delta = []
                for row in _dedupe(produced):
                    if row not in total:
                        total[row] = None
                        delta.append(row)
        except Truncation:
            self._note_truncated()
        return self._account_out(list(total))

    # -- nest / unnest ----------------------------------------------------------
    def _eval_nest(self, term: Fun, fix_rows: dict,
                   fix_env: dict) -> list[tuple]:
        from repro.adt.values import (ArrayValue, BagValue, ListValue,
                                      SetValue, TupleValue)
        ctors = {"SET": SetValue, "BAG": BagValue,
                 "LIST": ListValue, "ARRAY": ArrayValue}

        input_term, nested_list, spec = term.args
        rows = self._eval_rel(input_term, fix_rows, fix_env)
        input_schema = schema_of(input_term, self.catalog, fix_env)

        positions = [a.pos for a in nested_list.args]  # type: ignore
        kind = str(spec.args[1].value)  # type: ignore[union-attr]
        kept = [p for p in range(1, len(input_schema) + 1)
                if p not in positions]
        nested_names = [input_schema.attr_name(p) for p in positions]

        groups: dict[tuple, list] = {}
        for row in rows:
            key = tuple(row[p - 1] for p in kept)
            if len(positions) == 1:
                item = row[positions[0] - 1]
            else:
                item = TupleValue(zip(
                    nested_names, (row[p - 1] for p in positions)
                ))
            groups.setdefault(key, []).append(item)

        ctor = ctors[kind]
        out = [key + (ctor(items),) for key, items in groups.items()]
        self.stats.incr("tuples_output", len(out))
        return self._account_out(out)

    def _eval_unnest(self, term: Fun, fix_rows: dict,
                     fix_env: dict) -> list[tuple]:
        from repro.adt.values import CollectionValue
        input_term, attr = term.args
        rows = self._eval_rel(input_term, fix_rows, fix_env)
        pos = attr.pos  # type: ignore[union-attr]
        ctx = self.context
        out = []
        try:
            for row in rows:
                if ctx is not None:
                    ctx.tick()
                coll = row[pos - 1]
                if not isinstance(coll, CollectionValue):
                    raise EvaluationError(
                        f"UNNEST attribute {pos} is not a collection: "
                        f"{coll!r}"
                    )
                for element in coll:
                    out.append(row[:pos - 1] + (element,) + row[pos:])
        except Truncation:
            self._note_truncated()
        self.stats.incr("tuples_output", len(out))
        return self._account_out(out)

    # -- scalar expressions -----------------------------------------------------
    def compile(self, expr: Term) -> Callable[[Sequence[tuple]], Any]:
        """Compile one scalar expression into ``closure(env) -> value``.

        ``env`` is the sequence of bound input rows (``#i.j`` reads
        ``env[i-1][j-1]``).  Function implementations are resolved
        from the registry here, once; a failed lookup compiles to a
        closure that raises when called, so errors stay as lazy as
        evaluation itself (a conjunct over an empty input never
        raises).  Registry implementations receive this evaluator as
        their context.
        """
        if isinstance(expr, Const):
            value = str(expr.value) if expr.kind == "symbol" \
                else expr.value
            return lambda env: value
        if isinstance(expr, AttrRef):
            return _compile_attr(expr)
        if not isinstance(expr, Fun):
            def invalid(env):
                raise EvaluationError(
                    f"cannot evaluate expression {expr!r}")
            return invalid

        name = expr.name
        args = [self.compile(a) for a in expr.args]
        if name == "AND":
            if len(args) == 2:
                a, b = args
                return lambda env: True if a(env) and b(env) else False
            return lambda env: all(f(env) for f in args)
        if name == "OR":
            if len(args) == 2:
                a, b = args
                return lambda env: True if a(env) or b(env) else False
            return lambda env: any(f(env) for f in args)
        if name == "NOT" and args:
            a = args[0]
            return lambda env: not a(env)
        if name == "AS" and args:
            return args[0]

        registry = self.catalog.registry
        try:
            impl = registry.lookup(name, len(args)).impl
        except FunctionError:
            # evaluate the arguments, then let the registry raise
            def deferred(env):
                return registry.call(name, [f(env) for f in args], self)
            return deferred
        if len(args) == 2:
            return _binary(impl, self, expr.args, args)
        if len(args) == 1:
            a = args[0]
            return lambda env: impl([a(env)], self)
        return lambda env: impl([f(env) for f in args], self)

    def _compile_row(self, exprs: Sequence[Term]) -> Callable:
        """Compile a list of expressions into ``closure(env) -> tuple``.
        Two or more attributes of one input are read by one
        ``itemgetter``; an out-of-range reference falls back to the
        per-item closures, which raise its EvaluationError."""
        fns = [self.compile(e) for e in exprs]
        if len(fns) == 1:
            f = fns[0]
            return lambda env: (f(env),)

        def items(env):
            return tuple([f(env) for f in fns])
        if not all(isinstance(e, AttrRef) for e in exprs) \
                or len({e.rel for e in exprs}) != 1:
            return items
        rel = exprs[0].rel - 1
        getter = itemgetter(*[e.pos - 1 for e in exprs])

        def attrs(env):
            try:
                return getter(env[rel])
            except IndexError:
                return items(env)
        return attrs


class _SearchPlan(NamedTuple):
    """The compiled setup of one SEARCH/JOIN node (see
    :meth:`Evaluator._qualified_plan`)."""

    inputs: tuple
    constant: list
    order: list
    by_depth: list
    hash_probe: list
    project: Callable


def _compile_attr(ref: AttrRef) -> Callable:
    rel, pos = ref.rel - 1, ref.pos - 1

    def attr(env):
        try:
            return env[rel][pos]
        except IndexError:
            if rel >= len(env):
                raise EvaluationError(
                    f"attribute reference #{ref.rel}.{ref.pos} exceeds "
                    f"the {len(env)} bound relation(s)"
                ) from None
            if pos >= len(env[rel]):
                raise EvaluationError(
                    f"attribute reference #{ref.rel}.{ref.pos} exceeds "
                    f"the row width {len(env[rel])}"
                ) from None
            raise
    return attr


def _binary(impl: Callable, ctx: "Evaluator", terms: Sequence[Term],
            fns: Sequence[Callable]) -> Callable:
    """``impl([a, b], ctx)`` with an attribute or constant operand read
    inline instead of through its own closure (the shape of nearly
    every comparison).  An out-of-range reference falls back to the
    operand's closure, which raises its EvaluationError."""
    (ta, tb), (a, b) = terms, fns
    if isinstance(ta, AttrRef) and isinstance(tb, (AttrRef, Const)):
        ra, pa = ta.rel - 1, ta.pos - 1
        if isinstance(tb, Const):
            bv = b(())

            def attr_const(env):
                try:
                    x = env[ra][pa]
                except IndexError:
                    x = a(env)
                return impl([x, bv], ctx)
            return attr_const
        rb, pb = tb.rel - 1, tb.pos - 1

        def attr_attr(env):
            try:
                x = env[ra][pa]
            except IndexError:
                x = a(env)
            try:
                y = env[rb][pb]
            except IndexError:
                y = b(env)
            return impl([x, y], ctx)
        return attr_attr
    if isinstance(ta, Const) and isinstance(tb, AttrRef):
        av = a(())
        rb, pb = tb.rel - 1, tb.pos - 1

        def const_attr(env):
            try:
                y = env[rb][pb]
            except IndexError:
                y = b(env)
            return impl([av, y], ctx)
        return const_attr
    return lambda env: impl([a(env), b(env)], ctx)


def _concat_env(env: Sequence[tuple]) -> tuple:
    """A JOIN's output row: its bound input rows side by side."""
    row: tuple = ()
    for part in env:
        row += part
    return row


def _estimate_bytes(rows: list) -> int:
    """A cheap, deterministic size estimate for one materialized row
    list: tuple header + one slot per attribute, per row.  Deliberately
    O(1) (first-row width) -- the budget bounds blow-ups by orders of
    magnitude, not bytes."""
    if not rows:
        return 0
    width = len(rows[0]) if isinstance(rows[0], tuple) else 1
    return len(rows) * (48 + 8 * width)


def _equi_probe(conjunct: Term, pos: int, bound: set):
    """(own column, other AttrRef) when ``conjunct`` is an equality
    linking input ``pos`` to a bound input; None otherwise."""
    if not (is_fun(conjunct, "=") and len(conjunct.args) == 2):
        return None
    left, right = conjunct.args  # type: ignore[union-attr]
    if not (isinstance(left, AttrRef) and isinstance(right, AttrRef)):
        return None
    for own, other in ((left, right), (right, left)):
        if own.rel == pos and other.rel in bound:
            return own.pos, other
    return None


def _free_symbols(term: Term) -> set[str]:
    from repro.terms.term import walk
    return {
        str(t.value) for t in walk(term)
        if isinstance(t, Const) and t.kind == "symbol"
    }


def _count_symbol(term: Term, name: str) -> int:
    from repro.terms.term import walk
    return sum(
        1 for t in walk(term)
        if isinstance(t, Const) and t.kind == "symbol"
        and str(t.value) == name
    )


def _replace_nth_symbol(term: Term, name: str, n: int,
                        replacement: str) -> Term:
    """Replace the n-th (0-based) occurrence of symbol ``name``."""
    counter = [0]

    def rec(t: Term) -> Term:
        if isinstance(t, Const) and t.kind == "symbol" \
                and str(t.value) == name:
            index = counter[0]
            counter[0] += 1
            if index == n:
                return sym(replacement)
            return t
        if isinstance(t, Fun):
            return mk_fun(t.name, [rec(a) for a in t.args])
        return t

    return rec(term)


def evaluate(term: Term, catalog: Catalog,
             stats: Optional[EvalStats] = None, **options) -> Result:
    """Convenience wrapper: evaluate ``term`` against ``catalog``."""
    return Evaluator(catalog, stats=stats, **options).evaluate(term)
