"""Control strategy: blocks of rules and sequences of blocks (section 4.2).

The paper's meta-rule language::

    block({rules}, value)   -- a set of rules run up to ``value``
                               applications (an infinite limit means
                               saturation)
    seq((blocks), value)    -- blocks applied in order, the whole list
                               up to ``value`` times

"Any optimizer generated with the rule language is a sequence of blocks
of rules which can be applied multiple times.  Changing block
definitions or the list of blocks in the sequence meta-rule may
completely change the generated optimizer."

The engine applies rules outermost-first: it scans the term top-down,
tries each rule of the block at each position, applies the first
application that *changes* the term, and restarts the scan.  A block
finishes when its budget is exhausted or the term is saturated.  The
scan offers a position only the rules indexed under its root functor,
and remembers, for the length of one rewrite, the positions and whole
subtrees where no rule of the block applies, so a restart skips them
(see :class:`_BlockScan`); the first application it finds is the one
the plain scan would find.

The paper describes the limit both as "the maximum number of rule
applications" and as decremented "each time a rule condition is
checked"; both accountings are implemented (``count`` = "applications"
or "checks") and compared in the A1/A2 ablation benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from time import perf_counter
from typing import Iterable, Optional, Sequence

from repro.errors import ReproError, RewriteError
from repro.lera import ops
from repro.lera.schema import Schema, schema_of
from repro.obs.events import (BlockEnd, BlockStart, CheckedRollback,
                              ConstraintCheck, Degraded,
                              DivergenceDetected, EquivalenceViolation,
                              MethodCall, PassEnd, RuleAttempt,
                              RuleFailed, RuleFired, RuleQuarantined)
from repro.resilience.policy import (ResiliencePolicy, ResilienceRuntime,
                                     term_snippet)
from repro.rules.rule import RewriteRule, RuleContext
from repro.terms.term import Fun, Term, replace_at, term_size

__all__ = ["Block", "Seq", "RewriteEngine", "RewriteResult", "TraceEntry",
           "REWRITE_EVENTS", "listens"]

_SAFETY_LIMIT = 100_000


@dataclass(frozen=True)
class TraceEntry:
    """One recorded rule application.

    ``duration`` is the measured apply time in seconds when an event
    bus was attached (the engine only reaches for ``perf_counter``
    when someone is listening -- the null-sink fast path); otherwise
    it stays 0.0.
    """

    block: str
    rule: str
    path: tuple
    before: Term
    after: Term
    duration: float = 0.0

    def __str__(self) -> str:
        return (f"[{self.block}/{self.rule}] at {list(self.path)}: "
                f"{self.before!r}  ==>  {self.after!r}")


@dataclass
class RewriteResult:
    """The outcome of running a rewrite program.

    ``degraded`` is True when a deadline or a global work budget
    expired before saturation: ``term`` is then the best term found so
    far, not a fixpoint (the graceful-degradation contract of
    ``docs/robustness.md``).  ``resilience`` carries the
    :class:`~repro.resilience.policy.ResilienceReport` when the engine
    ran with a resilience policy, else None.
    """

    term: Term
    trace: list[TraceEntry] = field(default_factory=list)
    applications: int = 0
    checks: int = 0
    passes: int = 0
    degraded: bool = False
    degraded_reason: Optional[str] = None
    resilience: object = None

    def rules_fired(self) -> list[str]:
        return [entry.rule for entry in self.trace]

    def summary(self) -> dict[str, dict[str, int]]:
        """Per-block histograms of rule firings."""
        out: dict[str, dict[str, int]] = {}
        for entry in self.trace:
            block = out.setdefault(entry.block, {})
            block[entry.rule] = block.get(entry.rule, 0) + 1
        return out


class Block:
    """``block({rules}, value)``: rules plus an application budget.

    ``limit=None`` means saturation (the paper's infinite limit).
    ``count`` selects the budget unit: rule *applications* (default) or
    rule-condition *checks* (the paper's stricter reading).
    """

    def __init__(self, name: str, rules: Iterable[RewriteRule],
                 limit: Optional[int] = None, count: str = "applications"):
        if count not in ("applications", "checks"):
            raise RewriteError(
                f"block {name!r}: count must be 'applications' or "
                f"'checks', got {count!r}"
            )
        self.name = name
        self.rules = list(rules)
        self.limit = limit
        self.count = count
        self._index: Optional[_RuleIndex] = None

    def rule_index(self) -> "_RuleIndex":
        """The rules by lhs root functor, rebuilt when ``rules`` was
        edited since the last call."""
        index = self._index
        if index is None or index.rules != self.rules:
            index = self._index = _RuleIndex(self.rules)
        return index

    def with_limit(self, limit: Optional[int]) -> "Block":
        return Block(self.name, self.rules, limit, self.count)

    def rule_names(self) -> list[str]:
        return [r.name for r in self.rules]

    def __repr__(self) -> str:
        limit = "inf" if self.limit is None else self.limit
        return f"Block({self.name}, {len(self.rules)} rules, limit={limit})"


class Seq:
    """``seq((blocks), value)``: an ordered block list applied up to
    ``value`` full passes (stopping early at global saturation)."""

    def __init__(self, blocks: Sequence[Block], passes: int = 1):
        if passes < 0:
            raise RewriteError("seq passes must be >= 0")
        self.blocks = list(blocks)
        self.passes = passes

    def __repr__(self) -> str:
        names = ", ".join(b.name for b in self.blocks)
        return f"Seq([{names}], passes={self.passes})"


class RewriteEngine:
    """Runs a :class:`Seq` over a term, producing a rewrite trace.

    ``obs`` is an optional :class:`~repro.obs.bus.EventBus`.  Every
    event construction sits behind a truthiness test of the bus (the
    null-sink fast path), so an engine without subscribers -- or whose
    subscribers accept no rewrite event -- pays only a handful of
    ``None`` checks per block.
    """

    def __init__(self, seq: Seq, safety_limit: int = _SAFETY_LIMIT,
                 collect_trace: bool = True, obs=None,
                 resilience: Optional[ResiliencePolicy] = None):
        self.seq = seq
        self.safety_limit = safety_limit
        self.collect_trace = collect_trace
        self.obs = obs
        self.resilience = resilience

    def rewrite(self, term: Term, ctx: RuleContext) -> RewriteResult:
        result = RewriteResult(term)
        state = _RewriteState(ctx)
        bus = _rewrite_bus(self.obs)
        runtime = (ResilienceRuntime(self.resilience)
                   if self.resilience is not None else None)
        for pass_index in range(self.seq.passes):
            changed = False
            result.passes += 1
            pass_t0 = perf_counter() if bus else 0.0
            for block in self.seq.blocks:
                if runtime:
                    reason = runtime.exhausted(result.applications)
                    if reason is not None:
                        runtime.degrade(reason, result.applications, bus)
                        break
                before = result.term
                trace_mark = len(result.trace)
                apps_mark = result.applications
                self._run_block(block, result, ctx, state, bus,
                                pass_index, runtime)
                if runtime and result.term != before and \
                        not runtime.validate_block(
                            block.name, before, result.term,
                            result.applications - apps_mark, bus):
                    # checked mode refuted this block: localize blame
                    # (step-replay over the trace quarantines the one
                    # unsound rule) and roll it back
                    runtime.blame_rollback(
                        block.name, before, result.trace[trace_mark:],
                        bus,
                    )
                    result.term = before
                    del result.trace[trace_mark:]
                    result.applications = apps_mark
                    continue
                if result.term != before:
                    changed = True
            if bus:
                bus.emit(PassEnd(pass_index, changed,
                                 perf_counter() - pass_t0))
            if runtime and runtime.report.degraded:
                break
            if not changed:
                break
        if runtime:
            result.resilience = runtime.report
            result.degraded = runtime.report.degraded
            result.degraded_reason = runtime.report.degraded_reason
        return result

    # -- one block ----------------------------------------------------------
    def _run_block(self, block: Block, result: RewriteResult,
                   ctx: RuleContext, state: _RewriteState, bus=None,
                   pass_index: int = 0,
                   runtime: Optional[ResilienceRuntime] = None) -> None:
        if bus:
            bus.emit(BlockStart(block.name, pass_index, block.limit,
                                block.count))
            block_t0 = perf_counter()
            apps_before, checks_before = result.applications, result.checks
        budget = block.limit
        exhausted = False
        history = runtime.history_for(result.term) if runtime else None
        scan = _BlockScan(block, state, result, ctx, bus, runtime)
        while budget is None or budget > 0:
            if runtime:
                reason = runtime.exhausted(result.applications)
                if reason is not None:
                    runtime.degrade(reason, result.applications, bus)
                    break
            application = scan.find(budget)
            if application is None:
                break
            path, before, after, rule_name, spent_checks, new_term, \
                apply_time = application
            if block.count == "checks":
                if budget is not None:
                    budget -= spent_checks
                    if budget < 0:
                        exhausted = True
                        break  # the budget ran out mid-scan
            else:
                if budget is not None:
                    budget -= 1
            result.term = new_term
            result.applications += 1
            if self.collect_trace:
                result.trace.append(TraceEntry(
                    block.name, rule_name, path, before, after,
                    apply_time,
                ))
            if bus:
                bus.emit(RuleFired(
                    block.name, rule_name, path,
                    term_size(before), term_size(after), apply_time,
                ))
            if result.applications > self.safety_limit:
                raise RewriteError(
                    f"rewrite exceeded the safety limit of "
                    f"{self.safety_limit} applications (a rule set may "
                    f"be non-terminating); last fired rule "
                    f"{rule_name!r} in block {block.name!r} at "
                    f"{list(path)}; current term: "
                    f"{term_snippet(result.term)}"
                )
            if history is not None:
                verdict = history.record(result.term, rule_name)
                if verdict is not None:
                    runtime.record_divergence(block.name, verdict, bus)
                    break
        if bus:
            if block.limit is None:
                consumed = (result.applications - apps_before
                            if block.count == "applications"
                            else result.checks - checks_before)
            elif exhausted:
                consumed = block.limit
            else:
                consumed = block.limit - (budget or 0)
            bus.emit(BlockEnd(
                block.name, pass_index,
                result.applications - apps_before,
                result.checks - checks_before,
                consumed, perf_counter() - block_t0,
            ))


# every event a rewrite emits, directly, through the rule contexts it
# hands to constraints and methods, or through the resilience runtime
REWRITE_EVENTS = frozenset({
    BlockStart, BlockEnd, PassEnd, RuleAttempt, RuleFired,
    ConstraintCheck, MethodCall, RuleFailed, RuleQuarantined, Degraded,
    DivergenceDetected, CheckedRollback, EquivalenceViolation,
})


def listens(obs, kinds) -> bool:
    """Would some subscriber of the bus ``obs`` receive an event of
    one of ``kinds``?  (A bus without ``accepts`` is assumed to.)"""
    if not obs:
        return False
    accepts = getattr(obs, "accepts", None)
    return accepts is None or accepts(kinds)


def _rewrite_bus(obs):
    """``obs`` when some subscriber accepts a rewrite event, else None.

    A bus whose subscribers all filter on other kinds (the serving
    breaker listens to request events only) is treated as absent, so
    the rewrite builds no events and never reads the clock.
    """
    return obs if listens(obs, REWRITE_EVENTS) else None


class _RuleIndex(dict):
    """Root functor name -> the block's rules that can match there.

    The value holds, in block order, the rules whose lhs root is that
    functor plus the wildcard rules (no ``roots``).  The key of a
    non-``Fun`` subterm is None, which only the wildcards match.
    Entries are built on first lookup.  ``serial`` is unique per
    process, so a rebuilt index is told apart from the one it
    replaced.
    """

    _serials = count()

    def __init__(self, rules):
        super().__init__()
        self.rules = list(rules)
        self.serial = next(self._serials)

    def __missing__(self, name):
        found = self[name] = tuple(
            rule for rule in self.rules
            if getattr(rule, "roots", None) is None or name in rule.roots
        )
        return found


# memo marks: no rule of the block applies at this position / anywhere
# in the subtree rooted here
_HERE, _SUBTREE = 1, 2
# scan outcome: a checks-mode budget ran out mid-scan
_STOP = object()


class _RewriteState:
    """Caches that live for one ``rewrite()`` call.

    Every key is built from terms, which are immutable and carry
    cached hashes, so no entry goes stale when a rule rewrites the
    term: a changed subtree simply has new keys.  A position's context
    is keyed by its enclosing relation terms and its chain of
    enclosing ``FIX`` terms, which determine the schemas and the
    fixpoint environment the rules see there.
    """

    __slots__ = ("catalog", "schemas", "envs", "memos")

    def __init__(self, ctx: RuleContext):
        self.catalog = ctx.catalog
        self.schemas: dict = {}   # (relation, FIX chain) -> Schema | None
        self.envs: dict = {(): dict(ctx.fix_env or {})}  # chain -> env
        self.memos: Optional[dict] = None  # Block -> memo, on first use

    def fix_env(self, chain: tuple) -> dict:
        env = self.envs.get(chain)
        if env is None:
            outer = self.fix_env(chain[:-1])
            env = dict(outer)
            if self.catalog is not None:
                fix = chain[-1]
                try:
                    env[str(fix.args[0].value)] = schema_of(
                        fix, self.catalog, outer)
                except ReproError:
                    pass
            self.envs[chain] = env
        return env

    def input_schemas(self, rels: Optional[tuple],
                      chain: tuple) -> Optional[list[Schema]]:
        if rels is None or self.catalog is None:
            return None
        out = []
        for rel in rels:
            key = (rel, chain)
            try:
                schema = self.schemas[key]
            except KeyError:
                try:
                    schema = schema_of(rel, self.catalog,
                                       self.fix_env(chain))
                except ReproError:
                    schema = None
                self.schemas[key] = schema
            if schema is None:
                return None
            out.append(schema)
        return out

    def memo(self, block: Block) -> dict:
        if self.memos is None:
            self.memos = {}
        return self.memos.setdefault(block, {})


class _BlockScan:
    """The outermost-first scans of one block activation.

    A position is offered only the rules its root functor indexes.
    In an ``applications`` block, a position whose candidates all
    returned None is recorded in the block's memo under (subterm,
    enclosing relations, FIX chain), and a subtree whose positions are
    all recorded is skipped whole by later scans.  Rule applications
    are pure functions of exactly that key, so skipping never hides an
    application.  Never recorded: a position where a rule produced a
    no-op at the parent (that depends on the surrounding term), one
    where a sandboxed rule raised, and anything in a ``checks`` block,
    whose budget counts every condition check of a scan (A1/A2).
    """

    __slots__ = ("block", "state", "result", "ctx", "bus", "index",
                 "leaf_rules", "count_checks", "memo", "runtime",
                 "sandbox", "quarantined", "budget", "checks")

    def __init__(self, block: Block, state: _RewriteState,
                 result: RewriteResult, ctx: RuleContext, bus,
                 runtime: Optional[ResilienceRuntime]):
        self.block = block
        self.state = state
        self.result = result
        self.ctx = ctx
        self.bus = bus
        self.index = block.rule_index()
        self.leaf_rules = self.index[None]
        self.count_checks = block.count == "checks"
        memos = state.memos
        self.memo = memos.get(block) if memos else None
        self.runtime = runtime
        self.sandbox = runtime is not None and runtime.policy.sandbox
        self.quarantined = runtime.quarantined if runtime else ()
        self.budget: Optional[int] = None
        self.checks = 0

    def find(self, budget: Optional[int]):
        """First (position, rule) application that changes the term."""
        self.budget = budget
        self.checks = 0
        found = self._visit(self.result.term, (), None, ())
        return found if type(found) is tuple else None

    def _visit(self, t: Term, path: tuple, rels, chain: tuple):
        """Pre-order scan of ``t``: an application, ``_STOP``, or
        whether no rule applies anywhere in the subtree."""
        is_node = isinstance(t, Fun)
        if not is_node and not self.leaf_rules:
            return True
        key = mark = None
        if not self.count_checks:
            key = (t, rels, chain)
            if self.memo is not None:
                mark = self.memo.get(key)
                if mark is _SUBTREE:
                    return True
        if mark is _HERE:
            here = True
        else:
            here = self._try_rules(t, path, rels, chain)
            if here is not True and here is not False:
                return here
        clean = here
        if is_node:
            for child, step, child_rels, child_chain in _children(
                    t, rels, chain):
                found = self._visit(child, path + step, child_rels,
                                    child_chain)
                if found is False:
                    clean = False
                elif found is not True:
                    return found
        if here and key is not None and (clean or mark is None):
            if self.memo is None:
                self.memo = self.state.memo(self.block)
            self.memo[key] = _SUBTREE if clean else _HERE
        return clean

    def _try_rules(self, t: Term, path: tuple, rels, chain: tuple):
        """Try the candidates at one position: an application,
        ``_STOP``, or whether every candidate returned None."""
        block, result, bus = self.block, self.result, self.bus
        quarantined = self.quarantined
        clean = True
        local_ctx = None
        for rule in self.index[t.name if isinstance(t, Fun) else None]:
            if quarantined and rule.name in quarantined:
                continue
            if not rule.quick_applicable(t):
                continue
            self.checks += 1
            result.checks += 1
            if self.count_checks and self.budget is not None and \
                    self.checks > self.budget:
                return _STOP
            if local_ctx is None:
                ctx = self.ctx
                local_ctx = RuleContext(
                    catalog=ctx.catalog,
                    schemas=self.state.input_schemas(rels, chain),
                    constraint_evaluator=ctx.constraint_evaluator,
                    methods=ctx.methods,
                    fix_env=self.state.fix_env(chain),
                    obs=bus,
                )
            if bus:
                attempt_t0 = perf_counter()
            if self.sandbox:
                try:
                    application = rule.apply(t, local_ctx)
                except Exception as error:
                    # one bad rule must not take down the rewrite:
                    # record, maybe quarantine, and keep scanning
                    self.runtime.record_failure(
                        block.name, rule.name, path, error, bus,
                    )
                    if bus:
                        bus.emit(RuleAttempt(
                            block.name, rule.name, path, False,
                            perf_counter() - attempt_t0,
                        ))
                    clean = False
                    continue
            else:
                application = rule.apply(t, local_ctx)
            if application is not None:
                after, __ = application
                new_term = replace_at(result.term, path, after)
                if new_term == result.term:
                    # a no-op once re-normalised at the parent (AC
                    # deduplication): not an application at all
                    if bus:
                        bus.emit(RuleAttempt(
                            block.name, rule.name, path, False,
                            perf_counter() - attempt_t0,
                        ))
                    clean = False
                    continue
                if bus:
                    apply_time = perf_counter() - attempt_t0
                    bus.emit(RuleAttempt(
                        block.name, rule.name, path, True, apply_time,
                    ))
                else:
                    apply_time = 0.0
                return (path, t, after, rule.name, self.checks,
                        new_term, apply_time)
            if bus:
                bus.emit(RuleAttempt(
                    block.name, rule.name, path, False,
                    perf_counter() - attempt_t0,
                ))
        return clean


def _children(t: Fun, rels, chain: tuple):
    """The scanned argument positions of ``t``, in pre-order, as
    (subterm, path step, enclosing relations, FIX chain).

    Inside a qualification or a projection list the enclosing
    relations are the nearest operator's inputs, so ISA constraints
    can type attribute references; they are None elsewhere.
    """
    args = t.args
    name = t.name
    if name == "SEARCH" or name == "JOIN":
        inner = ops.rel_list(t)
        for i, rel in enumerate(args[0].args):  # type: ignore[union-attr]
            yield rel, (0, i), None, chain
        yield args[1], (1,), inner, chain
        if name == "SEARCH":
            yield args[2], (2,), inner, chain
    elif name == "FILTER" or name == "PROJECTION":
        yield args[0], (0,), None, chain
        yield args[1], (1,), (args[0],), chain
    elif name == "SEMIJOIN" or name == "ANTIJOIN":
        yield args[0], (0,), None, chain
        yield args[1], (1,), None, chain
        yield args[2], (2,), (args[0], args[1]), chain
    elif name == "FIX":
        yield args[1], (1,), None, chain + (t,)
    else:
        for i, arg in enumerate(args):
            yield arg, (i,), rels, chain
