"""The Database facade: the end-to-end entry point of the library.

Wires the ESQL front end, the extensible rewriter and the evaluator
around one catalog::

    db = Database()
    db.execute("TABLE EDGE (Src : NUMERIC, Dst : NUMERIC)")
    db.execute("INSERT INTO EDGE VALUES (1, 2), (2, 3)")
    result = db.query("SELECT Dst FROM EDGE WHERE Src = 1")

Rewriting defaults on; every query can opt out (``rewrite=False``) --
that is the baseline the benchmarks compare against.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager, nullcontext
from time import perf_counter
from typing import Optional

from repro.core.explain import explain_json, explain_text
from repro.core.extension import Extension
from repro.obs.profile import Profiler
from repro.core.optimizer import (OptimizedQuery, Optimizer,
                                  observes_optimizer)
from repro.core.rewriter import QueryRewriter, RewriteLedger
from repro.engine.analyze import AnalyzeCollector
from repro.engine.catalog import Catalog
from repro.engine.evaluate import Evaluator, Result
from repro.engine.plan_cache import CachedPlan, PlanCache
from repro.engine.stats import EvalStats
from repro.errors import (BudgetExceeded, DurabilityError, QueryCancelled,
                          TranslationError)
from repro.esql import ast
from repro.esql.fingerprint import (current_fingerprint, fingerprint_source,
                                    use_fingerprint)
from repro.esql.parser import parse_script_with_sources
from repro.lifecycle.context import (current_context, pending_dispatch,
                                     use_context)
from repro.lifecycle.registry import StatementRegistry
from repro.esql.translate import Translator
from repro.obs.workload import PlanLog, StatementStats
from repro.rules.library import DEFAULT_SEMANTIC_LIMIT
from repro.rules.semantic import compile_integrity_constraint
from repro.terms.term import Term

__all__ = ["Database"]

# statements whose texts are kept in the DDL history: replaying them in
# order rebuilds the catalog schema (snapshots store them verbatim)
_DDL_STATEMENTS = (ast.EnumTypeDef, ast.TupleTypeDef, ast.CollTypeDef,
                   ast.TableDef, ast.ViewDef, ast.DropStmt)


def _as_collector(analyze) -> Optional[AnalyzeCollector]:
    """Normalize an ``analyze=`` argument: falsy -> None (analyze off),
    True -> a fresh collector, a collector -> itself."""
    if not analyze:
        return None
    if isinstance(analyze, AnalyzeCollector):
        return analyze
    return AnalyzeCollector()


class Database:
    """An in-memory extensible DBMS instance."""

    def __init__(self, rewrite: bool = True,
                 semantic_limit: Optional[int] = DEFAULT_SEMANTIC_LIMIT,
                 semi_naive: bool = True,
                 hash_joins: bool = False,
                 dynamic_limits: bool = False,
                 checked: bool = False,
                 deadline_ms: Optional[float] = None,
                 resilient: bool = False,
                 antipattern: bool = False,
                 path: Optional[str] = None,
                 sync: bool = False,
                 statement_timeout_ms: Optional[float] = None,
                 row_budget: Optional[int] = None,
                 memory_budget: Optional[int] = None,
                 degrade: bool = False,
                 obs=None):
        self.catalog = Catalog()
        self.translator = Translator(self.catalog)
        self.rewrite_default = rewrite
        self.semantic_limit = semantic_limit
        self.semi_naive = semi_naive
        self.hash_joins = hash_joins
        self.dynamic_limits = dynamic_limits
        # resilience defaults, applied to every optimize (all three are
        # re-read per query, so the CLI's .checked / .deadline toggles
        # take effect immediately); see docs/robustness.md
        self.checked = checked
        self.deadline_ms = deadline_ms
        self.resilient = resilient
        # the optional anti-pattern block (OR-chain -> IN, redundant
        # DISTINCT, double negation, trivial arithmetic); installed
        # into every regenerated optimizer when True
        self.antipattern = antipattern
        # persistent rule quarantine: rules confirmed to change
        # answers (checked-mode blame, the repro.qa harness) are
        # benched here and pre-quarantined into every later rewrite;
        # owned by the database so it survives regenerate_optimizer()
        from repro.resilience.quarantine import QuarantineRegistry
        self.quarantine = QuarantineRegistry()
        # lifecycle governance defaults: any knob set (or a chaos
        # injector mounted, or serving enabled) makes statements run
        # under a QueryContext; all None keeps the bare path
        # context-free (see docs/robustness.md)
        self.statement_timeout_ms = statement_timeout_ms
        self.row_budget = row_budget
        self.memory_budget = memory_budget
        self.degrade = degrade
        self.chaos = None
        # force governance even with no budget knob set (the CLI turns
        # this on so Ctrl-C always has a cancel token to pull)
        self.govern_statements = False
        self.lifecycle = StatementRegistry()
        self._optimizer: Optional[Optimizer] = None
        # durability: with a path, every mutating statement is WAL-logged
        # and the directory is recovered on open; without one the layer
        # is fully bypassed (null-sink style, see docs/durability.md)
        self.obs = obs
        self._ddl_history: list[str] = []
        self._replaying = False
        # serving: None until enable_serving() installs a
        # ConcurrencyGuard; every lock site branches on None first so
        # the single-threaded path stays lock-free (null-object fast
        # path, see docs/server.md)
        self.guard = None
        self.durability = None
        self.recovery = None
        # commit hooks: callables fired with the statement source after
        # each committed (non-replayed) mutation, *inside* the writer
        # lock when serving -- the pool's log-shipping feed hangs off
        # this, and firing under the lock is what makes snapshot state
        # and feed version impossible to observe out of step
        self.commit_hooks: list = []
        # the rewrite-provenance ledger: owned here (not by the
        # optimizer) so it survives regenerate_optimizer(); feeds
        # sys.rewrites / sys.rule_heat
        self.ledger = RewriteLedger()
        # workload intelligence: per-fingerprint statement aggregates
        # (sys.statements) and the last-N analyzed plans
        # (sys.plan_nodes); owned here for the same lifetime reason
        self.workload = StatementStats()
        self.plan_log = PlanLog()
        # optimized plans of recently queried texts (sys.plan_cache);
        # see _query_source for when a call may use it
        self.plan_cache = PlanCache()
        if path is not None:
            from repro.durability import DurabilityManager
            self.durability = DurabilityManager(path, sync=sync, obs=obs)
            self.recovery = self.durability.recover(self)
        # the sys.* introspection catalog rides on every database; the
        # server later re-registers richer producers (sessions, slow
        # queries) when it mounts
        from repro.obs.introspect import register_introspection
        register_introspection(self)

    # -- optimizer lifecycle ---------------------------------------------------
    @property
    def optimizer(self) -> Optimizer:
        """The optimizer, regenerated after any extension change."""
        if self._optimizer is None:
            rewriter = QueryRewriter(
                self.catalog, semantic_limit=self.semantic_limit
            )
            if self.antipattern:
                from repro.rules.antipattern import antipattern_block
                rewriter.add_block(antipattern_block(),
                                   before="simplify")
            self._optimizer = Optimizer(
                self.catalog, rewriter,
                dynamic_limits=self.dynamic_limits,
                ledger=self.ledger,
                quarantine=self.quarantine,
            )
        return self._optimizer

    def regenerate_optimizer(self) -> None:
        self._optimizer = None

    # -- serving ---------------------------------------------------------------
    def enable_serving(self, guard=None):
        """Install the reader-writer :class:`ConcurrencyGuard` (idempotent).

        After this call, every mutating statement takes an exclusive
        statement-scoped writer lock and every query runs under a
        shared lock pinned to a committed-statement snapshot -- the
        contract :class:`repro.server.Server` builds on.  Serving off
        (the default) keeps all paths lock-free.
        """
        if self.guard is None:
            from repro.server.locks import ConcurrencyGuard
            self.guard = guard if guard is not None else ConcurrencyGuard()
        return self.guard

    def _read_guard(self):
        guard = self.guard
        return nullcontext() if guard is None else guard.read()

    # -- lifecycle governance --------------------------------------------------
    def kill(self, query_id: str, reason: str = "kill") -> bool:
        """Pull the cancel token of one in-flight statement (by its
        ``sys.queries`` id); the evaluating thread raises
        :class:`~repro.errors.QueryCancelled` at its next cooperative
        check.  Safe from any thread."""
        return self.lifecycle.kill(query_id, reason)

    @contextmanager
    def _statement_context(self, source: str = "",
                           timeout_ms: Optional[float] = None,
                           row_budget: Optional[int] = None,
                           memory_budget: Optional[int] = None,
                           degrade: Optional[bool] = None,
                           session: str = ""):
        """Mint, register and retire the :class:`QueryContext` of one
        governed statement.

        Yields None on the ungoverned fast path (no budget knob set,
        no chaos injector, not served) so every downstream site stays
        one ``is None`` test.  An ambient context -- installed by an
        outer layer such as a test harness or the server -- is adopted
        as-is instead of minting a nested one, which is how DML
        subquery evaluators and script statements share the statement's
        budget.

        The statement's template fingerprint (see
        :mod:`repro.esql.fingerprint`) is computed here -- memoized on
        the source text, so a repeated statement costs one dict lookup
        -- and installed for the statement's extent, stamped into the
        ambient trace context when one exists.  Nested statements
        (ambient context adopted) keep the outer statement's
        fingerprint: a DML subquery is part of its statement, not a
        workload entry of its own.
        """
        ambient = current_context()
        if ambient is not None:
            yield ambient
            return
        with ExitStack() as scope:
            if source:
                fp = fingerprint_source(source)
                scope.enter_context(use_fingerprint(fp))
                from repro.obs.telemetry import current_trace, use_trace
                trace = current_trace()
                if trace is not None and not trace.fingerprint:
                    scope.enter_context(
                        use_trace(trace.stamped(fp.fingerprint))
                    )
            use_timeout = (self.statement_timeout_ms if timeout_ms is None
                           else timeout_ms)
            use_rows = self.row_budget if row_budget is None else row_budget
            use_memory = (self.memory_budget if memory_budget is None
                          else memory_budget)
            use_degrade = self.degrade if degrade is None else degrade
            chaos = self.chaos
            if (use_timeout is None and use_rows is None
                    and use_memory is None and chaos is None
                    and self.guard is None and not self.govern_statements):
                yield None
                return
            from repro.obs.telemetry import current_trace
            trace = current_trace()
            context = self.lifecycle.begin(
                session=session,
                trace_id=trace.trace_id if trace is not None else "",
                timeout_ms=use_timeout, row_budget=use_rows,
                memory_budget=use_memory, degrade=use_degrade,
                source=source,
            )
            if chaos is not None:
                # per-statement fork: Random is not thread-safe, and the
                # q<N> salt keeps concurrent statements independent yet
                # replayable
                context.chaos = chaos.fork(int(context.query_id[1:]))
            dispatch = pending_dispatch()
            if dispatch is not None:
                context.queue_wait_ms = float(
                    dispatch.get("queue_wait_ms", 0.0)
                )
            outcome = "done"
            try:
                with use_context(context):
                    yield context
            except QueryCancelled:
                outcome = "cancelled"
                raise
            except BaseException:
                outcome = "failed"
                raise
            finally:
                if outcome == "done" and context.truncated:
                    outcome = "truncated"
                if context.trip_info is not None:
                    self._note_budget_trip(context)
                self.lifecycle.finish(context, outcome)
                self._note_outcome(outcome)

    def _note_budget_trip(self, context) -> None:
        metrics = self.lifecycle.metrics
        if metrics is not None:
            metrics.inc("lifecycle.budget_trips")
        bus = self.lifecycle.obs
        if bus:
            from repro.obs.events import BudgetTripped
            resource, limit, consumed = context.trip_info
            bus.emit(BudgetTripped(
                query_id=context.query_id, session=context.session,
                resource=resource, limit=float(limit),
                consumed=float(consumed),
                truncated=context.truncated,
            ))

    def _note_outcome(self, outcome: str) -> None:
        """Fold an abnormal statement outcome into ``sys.statements``."""
        if outcome == "done":
            return
        fp = current_fingerprint()
        if fp:
            self.workload.note(fp.fingerprint, fp.template, outcome)

    # -- statements ------------------------------------------------------------
    def execute(self, script: str, obs=None,
                timeout_ms: Optional[float] = None,
                row_budget: Optional[int] = None,
                memory_budget: Optional[int] = None,
                degrade: Optional[bool] = None,
                session: str = "") -> list[Result]:
        """Run an ESQL script; returns the results of any queries.

        Each mutating statement is atomic: it either fully applies or --
        on any error -- is rolled back to the statement boundary via its
        undo log.  On a durable database, committed statements are
        appended to the write-ahead log.

        With serving enabled, each mutating statement holds the writer
        lock for exactly its own duration and each query holds the
        shared reader lock, so concurrent callers interleave only at
        statement boundaries.  ``obs`` is an optional per-call event
        bus for any queries' rewrite/eval events.

        Each statement of the script runs under its *own*
        :class:`QueryContext` when governance is on (a budget knob
        set, a chaos injector mounted, or serving enabled): a
        mid-script kill cancels the in-flight statement at a statement
        boundary, leaving prior statements committed.
        """
        guard = self.guard
        results = []
        for statement, source in parse_script_with_sources(script):
            with self._statement_context(
                source=source, timeout_ms=timeout_ms,
                row_budget=row_budget, memory_budget=memory_budget,
                degrade=degrade, session=session,
            ) as ctx:
                if guard is None:
                    term = self._apply_statement(statement, source)
                    if term is not None:
                        results.append(self._optimize_and_evaluate(
                            term, self.rewrite_default, obs=obs,
                        )[0])
                elif ast.is_query(statement):
                    with guard.read():
                        term = self._apply_statement(statement, source)
                        results.append(self._optimize_and_evaluate(
                            term, self.rewrite_default, obs=obs,
                        )[0])
                else:
                    if ctx is not None:
                        ctx.enter_phase("write")
                    with guard.write():
                        self._apply_statement(statement, source)
        return results

    def _apply_statement(self, statement, source: str) -> Optional[Term]:
        """Execute one parsed statement atomically, then commit-log it."""
        from repro.durability.atomic import UndoLog
        undo = UndoLog()
        try:
            term = self.translator.execute(statement, undo=undo)
        except BaseException:
            undo.rollback()
            raise
        if term is None:
            if isinstance(statement, _DDL_STATEMENTS):
                self._ddl_history.append(source)
            if not self._replaying:
                if self.durability is not None:
                    self.durability.log_statement(source)
                for hook in self.commit_hooks:
                    hook(source)
                fp = current_fingerprint()
                if fp:
                    # writes have no eval stage; still count the call
                    self.workload.record_call(fp.fingerprint, fp.template)
        return term

    def _replay_statement(self, source: str) -> None:
        """Re-execute a WAL/snapshot statement without re-logging it."""
        self._replaying = True
        try:
            for statement, text in parse_script_with_sources(source):
                self._apply_statement(statement, text)
        finally:
            self._replaying = False

    # -- durability ------------------------------------------------------------
    def checkpoint(self):
        """Install a snapshot and reset the WAL (durable databases).

        Served databases quiesce first: the snapshot is taken under an
        exclusive hold so it never captures a half-applied statement.
        """
        if self.durability is None:
            raise DurabilityError(
                "checkpoint needs a durable database; open one with "
                "Database(path=...)"
            )
        guard = self.guard
        if guard is None:
            return self.durability.checkpoint(self)
        with guard.exclusive():
            return self.durability.checkpoint(self)

    def fsck(self):
        """Run the invariant checker; returns a
        :class:`repro.durability.FsckReport`."""
        from repro.durability.check import check_database
        guard = self.guard
        if guard is None:
            return check_database(self)
        with guard.exclusive():
            return check_database(self)

    @property
    def sync(self) -> bool:
        """The fsync-on-commit policy (False on non-durable databases)."""
        return self.durability is not None and self.durability.sync

    @sync.setter
    def sync(self, value: bool) -> None:
        if self.durability is None:
            raise DurabilityError(
                "the fsync policy needs a durable database; open one "
                "with Database(path=...)"
            )
        self.durability.sync = value

    def close(self) -> None:
        """Release the WAL handle of a durable database (no-op otherwise)."""
        if self.durability is not None:
            self.durability.close()

    def query(self, source: str, rewrite: Optional[bool] = None,
              stats: Optional[EvalStats] = None,
              checked: Optional[bool] = None,
              deadline_ms: Optional[float] = None,
              timeout_ms: Optional[float] = None,
              row_budget: Optional[int] = None,
              memory_budget: Optional[int] = None,
              degrade: Optional[bool] = None,
              session: str = "",
              obs=None,
              analyze=False) -> Result:
        """Run one SELECT and return its result.

        ``checked`` / ``deadline_ms`` override the database-wide
        resilience defaults for this one call (what per-session
        settings ride on; see ``docs/server.md``).  ``timeout_ms`` /
        ``row_budget`` / ``memory_budget`` / ``degrade`` likewise
        override the lifecycle-governance defaults: any of them set
        runs the statement under a :class:`QueryContext` (killable,
        visible in ``sys.queries``).  ``obs`` is an optional per-call
        event bus for this query's rewrite/eval events (the server
        passes its telemetry bus here so request events land in the
        trace-stamped stream).  ``analyze`` turns on EXPLAIN ANALYZE
        collection for this call (True, or a pre-built
        :class:`~repro.engine.analyze.AnalyzeCollector` to inspect
        afterwards): per-operator actuals land in ``sys.plan_nodes``;
        result rows are unchanged.

        A statement text queried before may reuse its optimized plan
        from :attr:`plan_cache` instead of being parsed, translated
        and rewritten again; see :meth:`_query_source` for when.
        """
        collector = _as_collector(analyze)
        use_rewrite = self.rewrite_default if rewrite is None else rewrite
        with self._statement_context(
            source=source, timeout_ms=timeout_ms, row_budget=row_budget,
            memory_budget=memory_budget, degrade=degrade,
            session=session,
        ), self._read_guard():
            return self._query_source(
                source, use_rewrite, stats, checked, deadline_ms, obs,
                collector,
            )

    def query_with_stats(
        self, source: str, rewrite: Optional[bool] = None,
        obs=None, checked: Optional[bool] = None,
        deadline_ms: Optional[float] = None,
    ) -> tuple[Result, EvalStats, OptimizedQuery]:
        """Run one SELECT, returning work counters and the optimization."""
        stats = EvalStats()
        with self._statement_context(source=source), self._read_guard():
            term = self._translate_single(source)
            use_rewrite = (self.rewrite_default if rewrite is None
                           else rewrite)
            result, optimized = self._optimize_and_evaluate(
                term, use_rewrite, stats, checked, deadline_ms, obs
            )
        return result, stats, optimized

    def optimize(self, source: str,
                 rewrite: bool = True, obs=None,
                 deadline_ms: Optional[float] = None,
                 checked: Optional[bool] = None) -> OptimizedQuery:
        """Optimize one SELECT without executing it.

        ``deadline_ms`` / ``checked`` override the database-wide
        resilience defaults for this one call.
        """
        with self._read_guard():
            return self.optimizer.optimize(
                self._translate_single(source), rewrite=rewrite,
                obs=obs,
                **self._resilience_kwargs(checked, deadline_ms),
            )

    def explain(self, source: str, verbose: bool = False,
                profile: bool = False,
                checked: Optional[bool] = None,
                deadline_ms: Optional[float] = None) -> str:
        """Human-readable EXPLAIN; ``profile=True`` attaches a
        :class:`~repro.obs.profile.Profiler` and appends its telemetry
        section (the CLI's ``.profile on`` mode)."""
        if not profile:
            return explain_text(
                self.optimize(source, checked=checked,
                              deadline_ms=deadline_ms),
                verbose=verbose,
            )
        profiler = Profiler()
        optimized = self.optimize(
            source, obs=profiler.bus, checked=checked,
            deadline_ms=deadline_ms,
        )
        return explain_text(
            optimized, verbose=verbose, profile=profiler.report()
        )

    def explain_json(self, source: str, execute: bool = False,
                     rewrite: Optional[bool] = None,
                     checked: Optional[bool] = None,
                     deadline_ms: Optional[float] = None,
                     session: str = "",
                     analyze=False) -> dict:
        """The machine-readable EXPLAIN report (one schema for the CLI
        and ``benchmarks/report.py``; see ``docs/observability.md``).

        ``execute=True`` also runs the final plan, embedding the
        evaluator's work counters (absorbed into the profile metrics as
        ``eval.*``) and its per-operator events.  ``analyze`` (implies
        ``execute``) additionally collects per-operator actuals --
        rows, loops, self/total time, budget bytes -- reported in the
        schema-v8 ``analyze`` section and logged to ``sys.plan_nodes``.
        """
        profiler = Profiler()
        use_rewrite = self.rewrite_default if rewrite is None else rewrite
        collector = _as_collector(analyze)
        if collector is not None:
            execute = True
        with self._statement_context(source=source, session=session) \
                as ctx, self._read_guard():
            if ctx is not None:
                ctx.enter_phase("optimize")
            t0 = perf_counter()
            optimized = self.optimize(
                source, rewrite=use_rewrite, obs=profiler.bus,
                checked=checked, deadline_ms=deadline_ms,
            )
            rewrite_s = perf_counter() - t0
            stats = None
            nodes = None
            if execute:
                if ctx is not None:
                    ctx.enter_phase("evaluate")
                stats = EvalStats()
                t1 = perf_counter()
                result = Evaluator(
                    self.catalog, stats=stats,
                    semi_naive=self.semi_naive,
                    hash_joins=self.hash_joins, obs=profiler.bus,
                    analyze=collector,
                ).evaluate(optimized.final)
                eval_s = perf_counter() - t1
                profiler.absorb_eval_stats(stats)
                if collector is not None:
                    nodes = collector.snapshot()
                self._record_statement(
                    result, len(optimized.trace), rewrite_s, eval_s,
                    nodes,
                )
            # inside the statement extent on purpose: the report's
            # lifecycle section reads the ambient QueryContext
            return explain_json(
                optimized, profile=profiler, eval_stats=stats,
                analyze=nodes,
            )

    # -- extensions -------------------------------------------------------------
    def add_integrity_constraint(self, source: str) -> None:
        """Declare a Figure 10 integrity constraint (rule-language text)."""
        rule = compile_integrity_constraint(source)
        guard = self.guard
        if guard is None:
            self.catalog.integrity_constraints.append(rule)
            self.regenerate_optimizer()
            return
        with guard.exclusive():
            self.catalog.integrity_constraints.append(rule)
            self.regenerate_optimizer()

    def install(self, extension: Extension) -> None:
        """Install a DBI extension bundle; regenerates the optimizer.

        On a served database the installation quiesces traffic first
        (exclusive hold): optimizer regeneration must never race a
        query holding a reference to the old rewriter.
        """
        guard = self.guard
        if guard is None:
            self._install(extension)
            return
        with guard.exclusive():
            self._install(extension)

    def _install(self, extension: Extension) -> None:
        from repro.rules.rule import rule_from_text
        for fdef in extension.functions:
            self.catalog.registry.register(fdef, replace=True)
        for source in extension.integrity_constraints:
            self.catalog.integrity_constraints.append(
                compile_integrity_constraint(source)
            )
        self.regenerate_optimizer()
        optimizer = self.optimizer  # force rebuild, then decorate it
        for block, source in extension.rule_texts:
            optimizer.rewriter.add_rule(rule_from_text(source), block)
        for name, arity, impl in extension.methods:
            optimizer.rewriter.add_method(name, arity, impl)
        for name, impl in extension.predicates:
            optimizer.rewriter.add_predicate(name, impl)

    # -- plumbing ---------------------------------------------------------------
    def _translate_single(self, source: str) -> Term:
        statements = parse_script_with_sources(source)
        if len(statements) != 1:
            raise TranslationError("expected exactly one statement")
        statement = statements[0][0]
        # checked before translating: Translator.execute *applies*
        # DML, which must never run on the read path
        if not ast.is_query(statement):
            raise TranslationError("the statement is not a query")
        return self.translator.execute(statement)

    def _resilience_kwargs(self, checked: Optional[bool] = None,
                           deadline_ms: Optional[float] = None) -> dict:
        """The resilience settings for optimize(): the database-wide
        defaults, overridden per call by ``checked``/``deadline_ms``
        (``None`` defers -- this is what per-session settings ride on).

        ``resilient=True`` activates rule sandboxing and divergence
        detection even when no deadline or checked mode is configured
        (those two imply a policy of their own, with sandboxing on).

        Unified budget: inside a governed statement with a wall-clock
        timeout, the rewrite deadline is clamped to the statement's
        remaining allowance -- time the rewrite burns is gone for
        evaluation, and a rewrite that overruns the whole statement
        budget is cut off rather than granted its full configured
        deadline.
        """
        use_checked = self.checked if checked is None else checked
        use_deadline = (self.deadline_ms if deadline_ms is None
                        else deadline_ms)
        context = current_context()
        if context is not None:
            remaining = context.remaining_ms()
            if remaining is not None:
                use_deadline = (remaining if use_deadline is None
                                else min(use_deadline, remaining))
        if self.resilient and use_deadline is None and not use_checked:
            from repro.resilience import ResiliencePolicy
            return {"resilience": ResiliencePolicy()}
        return {"deadline_ms": use_deadline, "checked": use_checked}

    def _query_source(self, source: str, rewrite: bool,
                      stats: Optional[EvalStats], checked: Optional[bool],
                      deadline_ms: Optional[float], obs,
                      analyze: Optional[AnalyzeCollector]) -> Result:
        """Plan one SELECT text, then evaluate the plan.

        The plan comes from :attr:`plan_cache` only on the plain path:
        no EXPLAIN ANALYZE, no dynamic limits, no checked mode, and no
        subscriber of ``obs`` that wants optimizer events (a hit emits
        none).  A deadline does not matter: a hit spends no rewrite
        time.  The entry is keyed on the exact text and the rewrite
        flag, and stamped with everything its plan depends on; a stale
        stamp is a miss.  Only a clean rewrite is stored (see
        :func:`_reusable`).
        """
        optimizer = self.optimizer
        cacheable = (
            analyze is None and not optimizer.dynamic_limits
            and not (self.checked if checked is None else checked)
            and not observes_optimizer(obs)
        )
        if cacheable:
            key = (source, rewrite)
            stamp = (optimizer, self.catalog.epoch,
                     optimizer.rewriter.stamp(), self.quarantine.version)
            entry = self.plan_cache.get(key, stamp)
            if entry is not None:
                if entry.provenance:
                    from repro.obs.telemetry import current_trace
                    trace = current_trace()
                    fp = current_fingerprint()
                    self.ledger.replay(
                        entry.provenance,
                        trace.trace_id if trace is not None else "",
                        fp.fingerprint if fp else "",
                    )
                return self._evaluate(entry.plan, entry.firings, 0.0,
                                      stats, obs)
        optimized, rewrite_s = self._optimize(
            self._translate_single(source), rewrite, checked,
            deadline_ms, obs,
        )
        if cacheable and _reusable(optimized):
            self.plan_cache.put(key, CachedPlan(
                stamp, optimized.final, len(optimized.trace),
                tuple(optimized.provenance),
            ))
        return self._evaluate(optimized.final, len(optimized.trace),
                              rewrite_s, stats, obs, analyze)

    def _optimize_and_evaluate(
        self, term: Term, rewrite: bool,
        stats: Optional[EvalStats] = None,
        checked: Optional[bool] = None,
        deadline_ms: Optional[float] = None,
        obs=None,
    ) -> tuple[Result, OptimizedQuery]:
        optimized, rewrite_s = self._optimize(
            term, rewrite, checked, deadline_ms, obs
        )
        result = self._evaluate(optimized.final, len(optimized.trace),
                                rewrite_s, stats, obs)
        return result, optimized

    def _optimize(self, term: Term, rewrite: bool,
                  checked: Optional[bool], deadline_ms: Optional[float],
                  obs) -> tuple[OptimizedQuery, float]:
        """Run the optimizer; returns the plan and the seconds spent."""
        context = current_context()
        if context is not None:
            context.enter_phase("optimize")
        t0 = perf_counter()
        optimized = self.optimizer.optimize(
            term, rewrite=rewrite, obs=obs,
            **self._resilience_kwargs(checked, deadline_ms),
        )
        return optimized, perf_counter() - t0

    def _evaluate(self, plan: Term, firings: int, rewrite_s: float,
                  stats: Optional[EvalStats], obs,
                  analyze: Optional[AnalyzeCollector] = None) -> Result:
        """Evaluate a final plan and record the execution."""
        context = current_context()
        if context is not None:
            context.enter_phase("evaluate")
        evaluator = Evaluator(
            self.catalog, stats=stats, semi_naive=self.semi_naive,
            hash_joins=self.hash_joins, obs=obs, analyze=analyze,
        )
        t1 = perf_counter()
        result = evaluator.evaluate(plan)
        self._record_statement(
            result, firings, rewrite_s, perf_counter() - t1,
            analyze.snapshot() if analyze is not None else None,
        )
        return result

    def _record_statement(self, result: Result, firings: int,
                          rewrite_s: float, eval_s: float,
                          analyze_nodes: Optional[list] = None) -> None:
        """Fold one completed execution into the workload views."""
        fp = current_fingerprint()
        if fp:
            self.workload.record_call(
                fp.fingerprint, fp.template,
                rewrite_ms=rewrite_s * 1000.0,
                eval_ms=eval_s * 1000.0,
                rows=len(result.rows),
                rule_firings=firings,
            )
        if analyze_nodes is not None:
            from repro.obs.telemetry import current_trace
            trace = current_trace()
            self.plan_log.push(
                fp.fingerprint if fp else "",
                trace.trace_id if trace is not None else "",
                analyze_nodes,
            )


def _reusable(optimized: OptimizedQuery) -> bool:
    """May this optimization be cached?  Only when its rewrite ran to
    completion with nothing going wrong: not degraded, and its
    resilience report (if any) records no rule failure, quarantine,
    divergence or checked-mode rollback."""
    if optimized.degraded:
        return False
    report = optimized.resilience
    return report is None or not (
        report.rule_failures or report.quarantined
        or report.divergence or report.rollbacks
    )
