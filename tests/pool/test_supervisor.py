"""Supervisor tests: boot, log shipping, the retry/no-retry matrix,
hang detection, cancellation escalation and the crash-loop breaker.

Crash injection is deterministic throughout: SIGKILL an *idle* worker
first, then submit -- the supervisor acquires the dead seat, notices
the death in its wait loop, and the failover policy answers.  No
sleep-and-hope timing against an in-flight statement.
"""

import gc
import os
import signal
import threading
import time
import warnings

import pytest

from repro.engine.database import Database
from repro.errors import (ParseError, PoolUnavailable, QueryCancelled,
                          WorkerCrashed)
from repro.pool import PoolConfig, Supervisor
from repro.pool.protocol import send_frame


def _database():
    db = Database()
    db.execute("CREATE TABLE T (A : INT, B : INT)")
    db.execute("INSERT INTO T VALUES (1, 10), (2, 20), (3, 30)")
    return db


def _pool(db, **overrides):
    defaults = dict(workers=1, monitor_interval_s=0.02,
                    restart_backoff_base_s=0.01,
                    restart_backoff_max_s=0.1)
    defaults.update(overrides)
    pool = Supervisor(db, PoolConfig(**defaults))
    db.commit_hooks.append(pool.note_write)
    pool.start()
    assert pool.wait_ready(timeout_s=60.0, workers=1)
    return pool


def _kill_idle(pool):
    """SIGKILL one idle worker; returns its seat."""
    deadline = time.perf_counter() + 30.0
    while time.perf_counter() < deadline:
        for slot in pool._slots:
            if slot.state == "idle" and slot.proc is not None:
                os.kill(slot.proc.pid, signal.SIGKILL)
                return slot
        time.sleep(0.01)
    raise AssertionError("no idle worker to kill")


class TestDispatch:
    def test_boot_and_query(self):
        db = _database()
        pool = _pool(db)
        try:
            result = pool.submit("SELECT A, B FROM T WHERE A > 1")
            assert sorted(result.rows) == [(2, 20), (3, 30)]
            assert [c[0] for c in result.schema] == ["A", "B"]
            assert pool.dispatched == 1
            summary = pool.summary()
            assert summary["state"] == "running"
            assert summary["workers"] == 1
            assert summary["crashes"] == 0
        finally:
            pool.stop()

    def test_log_shipping_keeps_reads_fresh(self):
        db = _database()
        pool = _pool(db)
        try:
            assert len(pool.submit("SELECT A FROM T").rows) == 3
            # committed after the worker booted: the commit hook feeds
            # the shipped log, the next dispatch carries the delta
            db.execute("INSERT INTO T VALUES (4, 40)")
            db.execute("DELETE FROM T WHERE A = 1")
            rows = pool.submit("SELECT A FROM T").rows
            assert sorted(rows) == [(2,), (3,), (4,)]
            assert pool._slots[0].version == pool._version == 2
        finally:
            pool.stop()

    def test_remote_errors_come_back_typed(self):
        db = _database()
        pool = _pool(db)
        try:
            with pytest.raises(ParseError):
                pool.submit("SELECT FROM FROM T")
        finally:
            pool.stop()

    def test_sys_statements_are_not_eligible(self):
        pool = Supervisor(Database())
        assert pool.eligible("SELECT A FROM T")
        assert not pool.eligible("SELECT Name FROM sys.relations")
        assert not pool.eligible("select * from SYS.queries")


class TestFailurePolicy:
    def test_read_retries_transparently_after_kill9(self):
        db = _database()
        pool = _pool(db)
        try:
            _kill_idle(pool)
            # the seat is dead but still marked idle: the submit below
            # lands on it, crashes, and must retry on the respawn
            result = pool.submit("SELECT A FROM T WHERE A = 2")
            assert result.rows == [(2,)]
            assert pool.retries >= 1
            assert pool.crashes >= 1
        finally:
            pool.stop()

    def test_read_retry_budget_is_finite(self):
        db = _database()
        pool = _pool(db, read_retry_limit=0)
        try:
            _kill_idle(pool)
            with pytest.raises(WorkerCrashed) as info:
                pool.submit("SELECT A FROM T")
            assert info.value.attempts == 1
            assert info.value.worker_id == "w1"
        finally:
            pool.stop()

    def test_dml_never_retries(self):
        db = _database()
        pool = _pool(db)
        try:
            _kill_idle(pool)
            with pytest.raises(WorkerCrashed) as info:
                pool.submit("DELETE FROM T WHERE A = 1",
                            request_class="write")
            assert info.value.attempts == 1
            # the parent database was never touched: the write went to
            # the (now dead) worker's private replica only
            assert len(db.query("SELECT A FROM T").rows) == 3
        finally:
            pool.stop()

    def test_dead_worker_respawns_with_fresh_state(self):
        db = _database()
        pool = _pool(db)
        try:
            slot = _kill_idle(pool)
            deadline = time.perf_counter() + 30.0
            while slot.restarts == 0 and time.perf_counter() < deadline:
                time.sleep(0.01)
            assert slot.restarts == 1
            assert pool.wait_ready(timeout_s=60.0, workers=1)
            db.execute("INSERT INTO T VALUES (9, 90)")
            rows = pool.submit("SELECT B FROM T WHERE A = 9").rows
            assert rows == [(90,)]
        finally:
            pool.stop()

    def test_hang_detection_reaps_a_wedged_worker(self):
        db = _database()
        pool = _pool(db, heartbeat_interval_s=0.05,
                     heartbeat_miss_limit=3)
        try:
            slot = pool._slots[0]
            # wedge the worker: heartbeats stop, as if a native call
            # were holding it (the run loop sleeps without beating)
            send_frame(slot.proc.stdin, {"type": "stall",
                                         "seconds": 30.0})
            deadline = time.perf_counter() + 30.0
            while pool.crashes == 0 and time.perf_counter() < deadline:
                time.sleep(0.02)
            assert pool.crashes >= 1
            assert pool.wait_ready(timeout_s=60.0, workers=1)
            assert pool.submit("SELECT A FROM T WHERE A = 1").rows \
                == [(1,)]
        finally:
            pool.stop()


class TestPipes:
    def test_reaped_workers_leave_no_open_pipes(self):
        gc.collect()  # earlier tests' garbage must not be counted here
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            db = _database()
            pool = _pool(db)
            try:
                procs = [pool._slots[0].proc]
                slot = _kill_idle(pool)
                deadline = time.perf_counter() + 30.0
                while slot.restarts == 0 \
                        and time.perf_counter() < deadline:
                    time.sleep(0.01)
                assert pool.wait_ready(timeout_s=60.0, workers=1)
                procs.append(slot.proc)
            finally:
                pool.stop()
            assert procs[0] is not procs[1]
            for proc in procs:
                assert proc.returncode is not None
                assert proc.stdin.closed and proc.stdout.closed
            del pool, slot, procs
            gc.collect()
        leaks = [str(w.message) for w in caught
                 if issubclass(w.category, ResourceWarning)]
        assert leaks == []


class TestCancellation:
    def test_cancel_escalates_to_sigkill(self):
        db = _database()
        db.govern_statements = True
        pool = _pool(db, kill_grace_s=0.2)
        try:
            slot = pool._slots[0]
            # wedge the worker first: the execute frame queues behind
            # the stall, the cancel frame is ignored for longer than
            # the grace period, and the supervisor must escalate
            send_frame(slot.proc.stdin, {"type": "stall",
                                         "seconds": 30.0,
                                         "beat": True})
            failure = {}

            def run():
                with db._statement_context(
                        source="SELECT A FROM T") as context:
                    threading.Timer(0.05,
                                    lambda: context.cancel("kill")
                                    ).start()
                    try:
                        pool.submit("SELECT A FROM T", context=context)
                    except Exception as error:  # noqa: BLE001
                        failure["error"] = error

            thread = threading.Thread(target=run)
            thread.start()
            thread.join(timeout=30.0)
            assert not thread.is_alive()
            # the killed statement surfaces as a cancellation, not as
            # a worker fault
            assert isinstance(failure.get("error"), QueryCancelled)
            assert pool.escalated_kills == 1
        finally:
            pool.stop()


class TestCircuitBreaker:
    def test_crash_loop_opens_then_rearms(self):
        db = _database()
        pool = _pool(db, crash_loop_threshold=2,
                     crash_loop_window_s=30.0,
                     crash_loop_cooldown_s=0.3)
        try:
            for _ in range(2):
                _kill_idle(pool)
                deadline = time.perf_counter() + 30.0
                while (pool._slots[0].state != "dead"
                       and pool.state == "running"
                       and time.perf_counter() < deadline):
                    time.sleep(0.01)
                if pool.state == "broken":
                    break
                pool.wait_ready(timeout_s=60.0, workers=1)
            assert pool.state == "broken"
            with pytest.raises(PoolUnavailable) as info:
                pool.submit("SELECT A FROM T")
            assert info.value.reason == "circuit-open"
            assert info.value.retry_after >= 0.0
            # after the cooldown the monitor re-arms and respawns
            deadline = time.perf_counter() + 30.0
            while pool.state != "running" \
                    and time.perf_counter() < deadline:
                time.sleep(0.02)
            assert pool.state == "running"
            assert pool.wait_ready(timeout_s=60.0, workers=1)
            assert len(pool.submit("SELECT A FROM T").rows) == 3
        finally:
            pool.stop()

    def test_saturated_pool_refuses_with_hint(self):
        db = _database()
        pool = _pool(db)
        try:
            slot = pool._slots[0]
            with pool._lock:
                slot.state = "busy"  # the one seat is taken
            try:
                with pytest.raises(PoolUnavailable) as info:
                    pool.submit("SELECT A FROM T")
            finally:
                with pool._lock:
                    slot.state = "idle"
            assert info.value.reason == "saturated"
            assert info.value.retry_after > 0
        finally:
            pool.stop()

    def test_stopped_pool_refuses(self):
        db = _database()
        pool = _pool(db)
        pool.stop()
        with pytest.raises(PoolUnavailable) as info:
            pool.submit("SELECT A FROM T")
        assert info.value.reason == "stopped"


class TestIntrospection:
    def test_rows_and_summary_shapes(self):
        db = _database()
        pool = _pool(db, workers=2)
        try:
            assert pool.wait_ready(timeout_s=60.0, workers=2)
            pool.submit("SELECT A FROM T")
            rows = pool.rows()
            assert [row[0] for row in rows] == ["w1", "w2"]
            for (worker, pid, state, statements, restarts, query_id,
                 source, beat_age, version) in rows:
                assert pid > 0
                assert state == "idle"
                assert restarts == 0
                assert query_id == "" and source == ""
                assert beat_age >= 0.0
            assert sum(row[3] for row in rows) == 1  # one statement
            summary = pool.summary()
            assert summary == {
                "workers": 2, "busy": 0, "ready": 2,
                "state": "running", "dispatched": 1, "retries": 0,
                "crashes": 0, "restarts": 0, "version": 0,
            }
        finally:
            pool.stop()
