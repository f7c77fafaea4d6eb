"""The differential oracle: one case, many execution paths, one answer.

For each :class:`~repro.qa.schema_gen.Case` the oracle executes the
query along independent paths and demands bag-equal results:

* **rewrite** -- the full standard rewrite vs. the unrewritten plan
  (the library's central soundness property);
* **block subsets** -- metamorphic leave-one-out: the rewrite re-runs
  with each block removed from the sequence; every subset must still
  agree with the baseline.  A divergence here localizes the unsound
  rule set *and* catches inter-block feeding bugs the full-sequence
  check can mask (block B can undo block A's damage);
* **tier** -- the same statement through a supervised pool worker
  (its own process, booted from a snapshot) vs. in-process;
* **memo** -- the rewrite engine's fast path (rule index, memo of
  positions where no rule applies) vs. the plain outermost-first
  scan: the same blocks, saturated, re-run in ``count="checks"``
  mode, which keeps no memo, must give the same final plan, trace and
  application count.  Unlike the other legs this compares *plans*,
  not result bags: the fast path must not change what the rewriter
  does at all;
* **cache** -- the rewritten query once more through
  ``Database.query``, now a plan-cache hit: the hit must return the
  miss's bag, and the cached plan must equal a fresh ``optimize()``.

Results are compared as **bags**, not sets -- deliberately stricter
than the historical property tests: an unsound DISTINCT elimination or
a multiplicity-changing join rewrite is invisible to set comparison.
This matches the checked-mode validator
(:mod:`repro.resilience.checked`), which has always compared bags.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from typing import Optional

from repro.engine.database import Database

__all__ = ["Divergence", "DifferentialOracle", "result_bag",
           "describe_bags", "rewrite_signature", "memo_divergence",
           "cache_divergence"]

# fixpoint reduction names its magic/answer relations from a
# process-wide counter, so two rewrites of one query differ there
_FRESH_NAME = re.compile(r"\$(MAGIC|BOUND)(\d+)")


def result_bag(rows: list[tuple]) -> Counter:
    """Rows as a multiset; unhashable values fall back to repr."""
    try:
        return Counter(rows)
    except TypeError:
        return Counter(repr(row) for row in rows)


def describe_bags(expected: list[tuple], got: list[tuple]) -> str:
    lost = list((result_bag(expected) - result_bag(got)).elements())
    gained = list((result_bag(got) - result_bag(expected)).elements())
    parts = [f"{len(expected)} row(s) expected, {len(got)} got"]
    if lost:
        parts.append(f"lost {lost[:4]!r}")
    if gained:
        parts.append(f"gained {gained[:4]!r}")
    return "; ".join(parts)


def rewrite_signature(result) -> list[str]:
    """A rewrite's application count, final term and trace as lines of
    text, with magic-set suffixes renumbered by first appearance."""
    from repro.terms.printer import term_to_str
    lines = [f"applications {result.applications}",
             f"final {term_to_str(result.term)}"]
    lines.extend(
        f"{e.block}/{e.rule} at {list(e.path)}: "
        f"{term_to_str(e.before)} ==> {term_to_str(e.after)}"
        for e in result.trace
    )
    numbers: dict[str, int] = {}

    def renumber(match) -> str:
        n = numbers.setdefault(match.group(2), len(numbers) + 1)
        return f"${match.group(1)}#{n}"
    return [_FRESH_NAME.sub(renumber, line) for line in lines]


def memo_divergence(rewriter, typed) -> Optional[str]:
    """Rewrite ``typed`` with ``rewriter``'s blocks saturated, once as
    configured (indexed and memoized) and once counted by checks (no
    memo); None when both give the same plan, trace and application
    count, else the first differing line of their signatures."""
    from repro.rules.control import Block, RewriteEngine, Seq
    signatures = []
    for count in ("applications", "checks"):
        seq = Seq([Block(b.name, b.rules, None, count)
                   for b in rewriter.seq.blocks],
                  passes=rewriter.seq.passes)
        result = RewriteEngine(seq).rewrite(typed, rewriter.context())
        signatures.append(rewrite_signature(result))
    fast, plain = signatures
    if fast == plain:
        return None
    for index, (a, b) in enumerate(zip(fast, plain)):
        if a != b:
            return f"line {index}: memo {a!r} vs plain {b!r}"
    return f"memo gave {len(fast)} line(s), plain {len(plain)}"


def cache_divergence(db: Database, query: str,
                     miss_rows: list[tuple]) -> Optional[str]:
    """Run ``query`` (rewritten) through ``db`` again, just after the
    call that cached its plan: None when it was a plan-cache hit with
    the miss's bag and its cached plan equals a fresh rewrite, else
    what differs."""
    from repro.rules.control import RewriteResult
    hits = db.plan_cache.hits
    rows = db.query(query, rewrite=True).rows
    if db.plan_cache.hits != hits + 1:
        return "the repeated query was not a plan-cache hit"
    if result_bag(rows) != result_bag(miss_rows):
        return "hit vs miss: " + describe_bags(miss_rows, rows)
    entry = db.plan_cache.peek((query, True))
    fresh = db.optimize(query)
    cached = rewrite_signature(RewriteResult(entry.plan,
                                             applications=entry.firings))
    rewritten = rewrite_signature(RewriteResult(
        fresh.final, applications=len(fresh.trace)))
    if cached != rewritten:
        return f"cached {cached!r} vs fresh {rewritten!r}"
    return None


@dataclass(frozen=True)
class Divergence:
    """One confirmed non-equivalence between execution paths."""

    mode: str    # "rewrite[-error]" | "block:<name>" | "tier"
                 # | "analyze[-error]" | "memo[-error]"
                 # | "cache[-error]"
    detail: str
    query: str

    def __str__(self) -> str:
        return f"[{self.mode}] {self.query}\n  {self.detail}"


class DifferentialOracle:
    """Executes a case along every configured path and compares.

    Parameters
    ----------
    antipattern:
        Install the optional anti-pattern block in the databases the
        oracle builds (the default: those rules are exactly the ones
        this harness exists to guard).
    check_subsets:
        Run the leave-one-out block-subset sweep.
    check_tier:
        Replay the query through a one-worker pool supervisor.  Off by
        default: a worker boot is a subprocess spawn, so the harness
        samples this leg rather than paying it per case.
    check_analyze:
        Re-run the rewritten query in EXPLAIN ANALYZE mode (a live
        :class:`~repro.engine.analyze.AnalyzeCollector` wrapping every
        operator) and demand the same bag -- instrumentation must be a
        pure observer, never an execution path of its own.
    """

    def __init__(self, antipattern: bool = True,
                 check_subsets: bool = True,
                 check_tier: bool = False,
                 check_analyze: bool = False):
        self.antipattern = antipattern
        self.check_subsets = check_subsets
        self.check_tier = check_tier
        self.check_analyze = check_analyze

    # -- plumbing ----------------------------------------------------------
    def build_db(self, case) -> Database:
        db = Database(antipattern=self.antipattern)
        script = case.setup_script()
        if script:
            db.execute(script)
        return db

    def _subset_rows(self, db: Database, term, skip_block: str):
        """Rows of ``term`` rewritten without ``skip_block``."""
        from repro.engine.evaluate import Evaluator
        from repro.lera.typecheck import typecheck
        from repro.rules.control import RewriteEngine, Seq

        rewriter = db.optimizer.rewriter
        blocks = [b for b in rewriter.seq.blocks
                  if b.name != skip_block]
        engine = RewriteEngine(
            Seq(blocks, passes=rewriter.seq.passes),
            collect_trace=False,
        )
        typed, __ = typecheck(term, db.catalog)
        result = engine.rewrite(typed, rewriter.context())
        final, __ = typecheck(result.term, db.catalog)
        return Evaluator(db.catalog).evaluate(final).rows

    def _tier_rows(self, case):
        """The query's rows through a pool worker (own process)."""
        from repro.pool import PoolConfig, Supervisor

        db = self.build_db(case)
        pool = Supervisor(db, PoolConfig(workers=1))
        db.commit_hooks.append(pool.note_write)
        pool.start()
        try:
            if not pool.wait_ready(timeout_s=60.0, workers=1):
                raise RuntimeError("pool worker failed to boot")
            return pool.submit(case.query).rows
        finally:
            pool.stop()
            db.close()

    # -- the oracle --------------------------------------------------------
    def check(self, case) -> Optional[Divergence]:
        """None when every path agrees; else the first divergence."""
        db = self.build_db(case)
        baseline = db.query(case.query, rewrite=False).rows
        expected = result_bag(baseline)

        try:
            rewritten = db.query(case.query, rewrite=True).rows
        except Exception as error:
            return Divergence(
                "rewrite-error",
                f"{type(error).__name__}: {error}", case.query,
            )
        if result_bag(rewritten) != expected:
            return Divergence(
                "rewrite", describe_bags(baseline, rewritten),
                case.query,
            )

        from repro.lera.typecheck import typecheck
        term = db._translate_single(case.query)
        try:
            typed, __ = typecheck(term, db.catalog)
            problem = memo_divergence(db.optimizer.rewriter, typed)
        except Exception as error:
            return Divergence(
                "memo-error", f"{type(error).__name__}: {error}",
                case.query,
            )
        if problem is not None:
            return Divergence("memo", problem, case.query)

        try:
            problem = cache_divergence(db, case.query, rewritten)
        except Exception as error:
            return Divergence(
                "cache-error", f"{type(error).__name__}: {error}",
                case.query,
            )
        if problem is not None:
            return Divergence("cache", problem, case.query)

        if self.check_subsets:
            for block in db.optimizer.rewriter.seq.blocks:
                try:
                    rows = self._subset_rows(db, term, block.name)
                except Exception as error:
                    return Divergence(
                        f"block:{block.name}",
                        f"{type(error).__name__}: {error}", case.query,
                    )
                if result_bag(rows) != expected:
                    return Divergence(
                        f"block:{block.name}",
                        describe_bags(baseline, rows), case.query,
                    )

        if self.check_analyze:
            from repro.engine.analyze import AnalyzeCollector
            collector = AnalyzeCollector()
            try:
                rows = db.query(case.query, rewrite=True,
                                analyze=collector).rows
            except Exception as error:
                return Divergence(
                    "analyze-error",
                    f"{type(error).__name__}: {error}", case.query,
                )
            if result_bag(rows) != expected:
                return Divergence(
                    "analyze", describe_bags(baseline, rows),
                    case.query,
                )
            if not collector.observed:
                return Divergence(
                    "analyze", "collector observed no operators",
                    case.query,
                )

        if self.check_tier:
            try:
                rows = self._tier_rows(case)
            except Exception as error:
                return Divergence(
                    "tier", f"{type(error).__name__}: {error}",
                    case.query,
                )
            if result_bag(rows) != expected:
                return Divergence(
                    "tier", describe_bags(baseline, rows), case.query,
                )
        return None

    def reproduces(self, case, mode: Optional[str] = None) -> bool:
        """Does ``case`` still diverge (the shrinker's predicate)?

        ``mode`` restricts to the same *family* of divergence (the
        prefix before any ``:``) so shrinking cannot wander from a
        rewrite bug to an unrelated tier flake.
        """
        try:
            divergence = self.check(case)
        except Exception:
            return False  # a broken setup script is not a repro
        if divergence is None:
            return False
        if mode is None:
            return True
        return divergence.mode.split(":")[0] == mode.split(":")[0]
