"""The plan cache: a repeated statement text reuses its optimized plan.

Covers hits and misses, when a call may use the cache, what a hit
looks like to observers (``sys.statements``, ``sys.rewrites``,
``sys.rule_heat``, ``sys.plan_cache``), and one test per event that
must invalidate a cached plan -- each fails if its event stops
invalidating.
"""

import sys
import threading
import time

import pytest

from repro.core.extension import Extension
from repro.engine.database import Database
from repro.engine.plan_cache import CAPACITY, CachedPlan, PlanCache
from repro.errors import TranslationError
from repro.obs.bus import EventBus
from repro.obs.events import PhaseStart, RuleFired
from repro.obs.telemetry import TraceContext, use_trace
from repro.qa.oracle import rewrite_signature
from repro.rules.control import Block, RewriteResult
from repro.rules.rule import rule_from_text
from repro.server import Server

# an unsound rule: installing it visibly changes the answer of QUERY
BAD_RULE = "cache_bad_flip: x > y / --> x >= y /"

SETUP = """
TABLE T (A : INT, B : INT);
INSERT INTO T VALUES (1, 5), (2, 6), (3, 7);
CREATE VIEW V (A) AS SELECT A FROM T WHERE A > 1
"""

QUERY = "SELECT A FROM T WHERE A > 2"
RIGHT = [(3,)]
FLIPPED = [(2,), (3,)]
VIEW_QUERY = "SELECT A FROM V WHERE A > 0 AND A > 1"


@pytest.fixture
def db():
    database = Database()
    database.execute(SETUP)
    yield database
    database.close()


def _counters(db):
    return db.plan_cache.stats()


def _cached(db, query=QUERY):
    """Query twice: the second call must be a hit."""
    db.query(query)
    hits = _counters(db)["hits"]
    rows = db.query(query).rows
    assert _counters(db)["hits"] == hits + 1
    return rows


def _rows_after_invalidation(db, query=QUERY):
    """The next query must re-optimize: a miss and an invalidation."""
    before = _counters(db)
    rows = db.query(query).rows
    after = _counters(db)
    assert after["hits"] == before["hits"]
    assert after["misses"] == before["misses"] + 1
    assert after["invalidations"] == before["invalidations"] + 1
    return sorted(rows)


class TestHitsAndMisses:
    def test_repeat_is_a_hit_with_the_same_bag(self, db):
        first = db.query(VIEW_QUERY).rows
        second = db.query(VIEW_QUERY).rows
        assert sorted(first) == sorted(second) == [(2,), (3,)]
        stats = _counters(db)
        assert (stats["hits"], stats["misses"], stats["entries"]) \
            == (1, 1, 1)

    def test_cached_plan_equals_a_fresh_rewrite(self, db):
        db.query(VIEW_QUERY)
        entry = db.plan_cache.peek((VIEW_QUERY, True))
        fresh = db.optimize(VIEW_QUERY)
        assert entry.firings == len(fresh.trace) > 0
        assert rewrite_signature(RewriteResult(
            entry.plan, applications=entry.firings)) == \
            rewrite_signature(RewriteResult(
                fresh.final, applications=len(fresh.trace)))

    def test_key_is_the_exact_text(self, db):
        db.query("SELECT A FROM T WHERE A > 2")
        db.query("SELECT A FROM T WHERE A > 1")
        db.query("SELECT A FROM T WHERE A  > 2")
        assert _counters(db)["hits"] == 0
        assert _counters(db)["entries"] == 3

    def test_rewrite_flag_is_part_of_the_key(self, db):
        db.query(VIEW_QUERY, rewrite=True)
        db.query(VIEW_QUERY, rewrite=False)
        assert _counters(db)["hits"] == 0
        assert db.plan_cache.peek((VIEW_QUERY, False)).firings == 0
        assert db.plan_cache.peek((VIEW_QUERY, True)).firings > 0

    def test_capacity_is_fixed(self, db):
        assert db.plan_cache.capacity == CAPACITY

    def test_lru_eviction(self):
        cache = PlanCache()
        cache.capacity = 2
        entry = CachedPlan((), None, 0, ())
        cache.put(("a", True), entry)
        cache.put(("b", True), entry)
        assert cache.get(("a", True), ()) is entry  # a is now newest
        cache.put(("c", True), entry)               # evicts b
        assert cache.get(("b", True), ()) is None
        assert cache.get(("a", True), ()) is entry
        stats = cache.stats()
        assert (stats["entries"], stats["evictions"], stats["hits"],
                stats["misses"]) == (2, 1, 2, 1)

    def test_stale_stamp_is_a_miss_and_an_invalidation(self):
        cache = PlanCache()
        cache.put(("a", True), CachedPlan((1,), None, 0, ()))
        assert cache.get(("a", True), (2,)) is None
        assert cache.peek(("a", True)) is None
        stats = cache.stats()
        assert (stats["misses"], stats["invalidations"]) == (1, 1)

    def test_errors_are_not_cached(self, db):
        with pytest.raises(Exception):
            db.query("SELECT Nope FROM T")
        assert _counters(db)["entries"] == 0


class TestWhenTheCacheIsUsed:
    def _no_hits(self, db, **kwargs):
        db.query(QUERY, **kwargs)
        db.query(QUERY, **kwargs)
        return _counters(db)["hits"] == 0

    def test_analyze_always_optimizes(self, db):
        assert self._no_hits(db, analyze=True)

    def test_checked_mode_always_optimizes(self, db):
        assert self._no_hits(db, checked=True)

    def test_dynamic_limits_always_optimize(self):
        database = Database(dynamic_limits=True)
        database.execute(SETUP)
        assert self._no_hits(database)

    def test_a_rewrite_event_subscriber_always_optimizes(self, db):
        bus = EventBus()
        bus.subscribe(lambda event: None, kinds=(RuleFired,))
        assert self._no_hits(db, obs=bus)

    def test_a_phase_subscriber_always_optimizes(self, db):
        bus = EventBus()
        bus.subscribe(lambda event: None, kinds=(PhaseStart,))
        assert self._no_hits(db, obs=bus)

    def test_a_bus_without_optimizer_listeners_may_hit(self, db):
        from repro.obs.events import EvalOp
        seen = []
        bus = EventBus()
        bus.subscribe(seen.append, kinds=(EvalOp,))
        db.query(QUERY, obs=bus)
        db.query(QUERY, obs=bus)
        assert _counters(db)["hits"] == 1
        assert seen  # evaluation events still flow on a hit

    def test_a_deadline_does_not_block_a_hit(self, db):
        db.query(QUERY, deadline_ms=10_000.0)
        db.query(QUERY, deadline_ms=10_000.0)
        assert _counters(db)["hits"] == 1

    def test_a_degraded_rewrite_is_not_stored(self, db):
        db.query(VIEW_QUERY, deadline_ms=0.0)
        assert db.plan_cache.peek((VIEW_QUERY, True)) is None

    def test_a_rewrite_with_a_failed_rule_is_not_stored(self):
        from repro.rules.native import NativeRule

        class Explodes(NativeRule):
            def apply(self, subject, ctx):
                raise RuntimeError("boom")

        database = Database(resilient=True)
        database.execute(SETUP)
        database.optimizer.rewriter.add_rule(
            Explodes("cache_explodes"), block="simplify"
        )
        assert database.query(QUERY).rows == RIGHT
        assert database.plan_cache.peek((QUERY, True)) is None

    @pytest.mark.parametrize("call", [
        lambda db: db.explain(QUERY),
        lambda db: db.explain_json(QUERY, execute=True),
        lambda db: db.optimize(QUERY),
        lambda db: db.query_with_stats(QUERY),
    ])
    def test_explain_optimize_and_stats_always_optimize(self, db, call):
        db.query(QUERY)
        before = _counters(db)
        call(db)
        call(db)
        assert _counters(db) == before


class TestObservers:
    def test_statements_record_zero_rewrite_ms_and_cached_firings(self, db):
        db.query(VIEW_QUERY)
        (first,) = db.query(
            "SELECT Calls, RewriteMs, RuleFirings FROM sys.statements "
            "WHERE Calls = 1 AND RuleFirings > 0"
        ).rows
        db.query(VIEW_QUERY)
        record = db.workload.last(
            next(e.fingerprint for e in db.ledger.entries())
        )
        assert record["rewrite_ms"] == 0.0
        assert record["rule_firings"] == first[2]

    def test_ledger_replays_with_the_current_trace_id(self, db):
        traces = [TraceContext.new(), TraceContext.new()]
        for trace in traces:
            with use_trace(trace):
                db.query(VIEW_QUERY)
        entries = db.ledger.entries()
        assert len(entries) % 2 == 0 and entries
        half = len(entries) // 2
        assert {e.trace_id for e in entries[:half]} == {traces[0].trace_id}
        assert {e.trace_id for e in entries[half:]} == {traces[1].trace_id}
        assert [(e.rule, e.path, e.after_hash) for e in entries[:half]] \
            == [(e.rule, e.path, e.after_hash) for e in entries[half:]]
        assert all(e.fingerprint for e in entries)

    def test_rule_heat_counts_hits(self, db):
        db.query(VIEW_QUERY)
        once = {r["rule"]: r["fired"] for r in db.ledger.heat()}
        db.query(VIEW_QUERY)
        twice = {r["rule"]: r["fired"] for r in db.ledger.heat()}
        assert twice == {rule: 2 * n for rule, n in once.items()}

    def test_sys_plan_cache(self, db):
        db.query(QUERY)
        db.query(QUERY)
        (row,) = db.query(
            "SELECT Capacity, Entries, Hits, Misses, Evictions, "
            "Invalidations FROM sys.plan_cache"
        ).rows
        # the sys.plan_cache query itself was a miss, and its plan is
        # stored before its rows are produced
        assert row == (CAPACITY, 2, 1, 2, 0, 0)


class TestInvalidation:
    def test_table_ddl(self, db):
        assert _cached(db, "SELECT A FROM T WHERE B = 7") == [(3,)]
        db.execute("TABLE U (C : INT)")
        assert _rows_after_invalidation(
            db, "SELECT A FROM T WHERE B = 7") == [(3,)]
        # a recreated table with swapped columns: a stale plan would
        # read the wrong positions
        _cached(db, "SELECT A FROM T WHERE B = 7")
        db.execute("DROP TABLE T")
        db.execute("TABLE T (B : INT, A : INT)")
        db.execute("INSERT INTO T VALUES (7, 30)")
        assert _rows_after_invalidation(
            db, "SELECT A FROM T WHERE B = 7") == [(30,)]

    def test_view_ddl(self, db):
        assert sorted(_cached(db, VIEW_QUERY)) == [(2,), (3,)]
        db.execute("DROP VIEW V")
        db.execute("CREATE VIEW V (A) AS SELECT A FROM T WHERE A > 2")
        assert _rows_after_invalidation(db, VIEW_QUERY) == [(3,)]

    def test_virtual_relation_registration(self, db):
        from repro.adt.types import INT
        catalog = db.catalog
        catalog.register_virtual("sys.cache_probe",
                                 [("X", INT), ("Y", INT)],
                                 lambda: [(1, 2)])
        query = "SELECT X FROM sys.cache_probe"
        assert _cached(db, query) == [(1,)]
        catalog.register_virtual("sys.cache_probe",
                                 [("Y", INT), ("X", INT)],
                                 lambda: [(2, 1)])
        assert _rows_after_invalidation(db, query) == [(1,)]

    def test_type_ddl(self, db):
        _cached(db)
        db.execute("TYPE Color ENUMERATION OF ('red', 'blue')")
        assert _rows_after_invalidation(db) == RIGHT

    def test_function_registration(self, db):
        query = "SELECT A FROM T WHERE TWICE(2) = 4"
        db.catalog.registry.define("TWICE", lambda a, c: a[0] * 2, arity=1)
        assert len(_cached(db, query)) == 3  # folded to true
        db.catalog.registry.define("TWICE", lambda a, c: a[0] * 3,
                                   arity=1, replace=True)
        assert _rows_after_invalidation(db, query) == []

    def test_add_integrity_constraint(self, db):
        _cached(db)
        db.add_integrity_constraint(
            "F(x) / ISA(x, Point) --> F(x) AND ABS(x) > 0 /"
        )
        assert _rows_after_invalidation(db) == RIGHT

    def test_install_extension(self, db):
        _cached(db)
        db.install(Extension("cache_test").rule("simplify", BAD_RULE))
        assert _rows_after_invalidation(db) == FLIPPED

    def test_regenerate_optimizer(self, db):
        _cached(db)
        db.regenerate_optimizer()
        assert _rows_after_invalidation(db) == RIGHT

    def test_add_rule(self, db):
        _cached(db)
        db.optimizer.rewriter.add_rule(rule_from_text(BAD_RULE),
                                       block="simplify")
        assert _rows_after_invalidation(db) == FLIPPED

    def test_add_block(self, db):
        _cached(db)
        db.optimizer.rewriter.add_block(
            Block("cache_extra", [rule_from_text(BAD_RULE)]),
            before="simplify",
        )
        assert _rows_after_invalidation(db) == FLIPPED

    def test_set_block_limit(self, db):
        query = "SELECT A FROM T WHERE A > 2 AND A > 1"
        _cached(db, query)
        assert db.plan_cache.peek((query, True)).firings > 0
        db.optimizer.rewriter.set_block_limit("simplify", 0)
        assert _rows_after_invalidation(db, query) == RIGHT
        assert db.plan_cache.peek((query, True)).firings == 0

    def test_add_method(self, db):
        _cached(db)
        db.optimizer.rewriter.add_method("CACHE_NOOP", 1,
                                         lambda ctx, t: t)
        assert _rows_after_invalidation(db) == RIGHT

    def test_add_predicate(self, db):
        _cached(db)
        db.optimizer.rewriter.add_predicate("CACHE_ALWAYS",
                                            lambda ctx, *args: True)
        assert _rows_after_invalidation(db) == RIGHT

    def test_in_place_edit_of_a_block_rules_list(self, db):
        _cached(db)
        db.optimizer.rewriter.block("simplify").rules.append(
            rule_from_text(BAD_RULE)
        )
        assert _rows_after_invalidation(db) == FLIPPED

    def test_quarantine_changes(self, db):
        db.optimizer.rewriter.add_rule(rule_from_text(BAD_RULE),
                                       block="simplify")
        assert _cached(db) == FLIPPED
        db.quarantine.note("simplify", "cache_bad_flip", "test",
                           source="manual")
        assert _rows_after_invalidation(db) == RIGHT
        _cached(db)
        db.quarantine.lift("cache_bad_flip")
        assert _rows_after_invalidation(db) == FLIPPED

    def test_session_rewrite_toggle(self, db):
        server = Server(db)
        try:
            session = server.open_session()
            server.query(VIEW_QUERY, session=session.id)
            server.query(VIEW_QUERY, session=session.id)
            hits = _counters(db)["hits"]
            assert hits >= 1
            session.settings.rewrite = False
            rows = server.query(VIEW_QUERY, session=session.id).rows
            assert sorted(rows) == [(2,), (3,)]
            assert _counters(db)["hits"] == hits
            assert db.plan_cache.peek((VIEW_QUERY, False)).firings == 0
        finally:
            server.close()

    def test_durable_recovery(self, tmp_path):
        path = str(tmp_path / "data")
        database = Database(path=path)
        database.execute(SETUP)
        assert sorted(_cached(database, VIEW_QUERY)) == [(2,), (3,)]
        database.execute("DROP VIEW V")
        database.execute(
            "CREATE VIEW V (A) AS SELECT A FROM T WHERE A > 2")
        assert _rows_after_invalidation(database, VIEW_QUERY) == [(3,)]
        database.close()
        reopened = Database(path=path)
        try:
            assert reopened.query(VIEW_QUERY).rows == [(3,)]
            assert _cached(reopened, VIEW_QUERY) == [(3,)]
        finally:
            reopened.close()


class TestQueryRefusesDml:
    def test_bare(self, db):
        with pytest.raises(TranslationError, match="not a query"):
            db.query("DELETE FROM T WHERE A = 1")
        assert sorted(db.query("SELECT A FROM T").rows) == \
            [(1,), (2,), (3,)]

    def test_durable_live_and_after_reopen(self, tmp_path):
        path = str(tmp_path / "data")
        database = Database(path=path)
        database.execute(SETUP)
        with pytest.raises(TranslationError, match="not a query"):
            database.query("DELETE FROM T WHERE A = 1")
        live = sorted(database.query("SELECT A FROM T").rows)
        database.close()
        reopened = Database(path=path)
        try:
            assert live == [(1,), (2,), (3,)]
            assert sorted(reopened.query("SELECT A FROM T").rows) == live
        finally:
            reopened.close()

    def test_served(self, db):
        server = Server(db)
        try:
            with pytest.raises(TranslationError, match="not a query"):
                server.query("UPDATE T SET B = 0 WHERE A = 1")
            assert server.query("SELECT B FROM T WHERE A = 1").rows \
                == [(5,)]
        finally:
            server.close()


class TestConcurrency:
    def test_served_readers_never_see_a_stale_plan(self, db):
        """Four served clients query a view while a writer keeps
        redefining it.  A seqlock-style generation counter (odd while
        the DDL runs) tells a reader which definition its query must
        have seen whenever no DDL overlapped it."""
        server = Server(db)
        bounds = [1, 2, 0, 1, 2, 0]
        expected = {k: sorted((a,) for a in (1, 2, 3) if a > k)
                    for k in bounds}
        state = {"gen": 0, "bound": 1, "done": False}
        failures = []
        checked = [0]
        lock = threading.Lock()
        query = "SELECT A FROM V"

        def reader():
            client = server.client()
            try:
                while not state["done"]:
                    gen, bound = state["gen"], state["bound"]
                    if gen % 2:
                        time.sleep(0.001)
                        continue
                    rows = sorted(client.query(query).rows)
                    if state["gen"] == gen and rows != expected[bound]:
                        failures.append((bound, rows))
                    elif state["gen"] == gen:
                        with lock:
                            checked[0] += 1
            except Exception as error:  # surfaced below
                failures.append(repr(error))
            finally:
                client.close()

        def writer():
            try:
                for bound in bounds[1:]:
                    time.sleep(0.05)
                    state["gen"] += 1
                    # one writer-lock hold, so no reader finds V gone
                    with server.guard.write():
                        db.execute(
                            f"DROP VIEW V; CREATE VIEW V (A) AS "
                            f"SELECT A FROM T WHERE A > {bound}")
                    state["bound"] = bound
                    state["gen"] += 1
                time.sleep(0.05)
            except Exception as error:
                failures.append(repr(error))
            finally:
                state["done"] = True

        threads = [threading.Thread(target=reader) for __ in range(4)]
        threads.append(threading.Thread(target=writer))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
            state["done"] = True
            server.close()
        assert not any(thread.is_alive() for thread in threads)
        assert not failures
        assert checked[0] > 0
        assert _counters(db)["hits"] > 0
        assert _counters(db)["invalidations"] > 0
