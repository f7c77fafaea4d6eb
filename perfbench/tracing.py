"""Benchmark-side spans around the public entry points of each layer.

Nothing here changes the program: :func:`install` replaces a fixed set
of functions and methods with wrappers that record a span (name,
start, end, parent, request id) around the original call, and
:func:`uninstall` puts the originals back.  Spans stay in memory and
are written out when the run ends.

A span's *self time* is its duration minus the durations of its child
spans.  Every statement the benchmark issues opens a ``client`` root
span, so for each request the self times of all its spans add up to
the client-measured statement time exactly; the root's own self time
is the ``unattributed`` bucket.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
from contextlib import contextmanager
from time import perf_counter

# span name -> layer metric its self time is reported under
SELF_TIME_METRICS = {
    "client": "unattributed_ms",
    "esql.parse": "esql.parse_ms",
    "esql.fingerprint": "esql.fingerprint_ms",
    "esql.translate": "esql.translate_ms",
    "core.optimize": "core.optimize_ms",
    "rules.method": "rules.method_ms",
    "engine.evaluate": "engine.evaluate_ms",
    "engine.database": "engine.database_self_ms",
    "lifecycle.govern": "lifecycle.govern_ms",
    "server.serve": "server.self_ms",
    "server.admission_wait": "server.admission_wait_ms",
    "server.lock_wait": "server.lock_wait_ms",
    "durability.wal_append": "durability.wal_append_ms",
    "pool.submit": "pool.self_ms",
    "obs.record": "obs.record_ms",
}

BLOCKS = ("canonicalize", "merge", "push", "fixpoint", "merge_again",
          "semantic", "simplify", "prune")


class Span:
    __slots__ = ("id", "parent", "request", "name", "start", "end")

    def __init__(self, span_id, parent, request, name, start):
        self.id = span_id
        self.parent = parent
        self.request = request
        self.name = name
        self.start = start
        self.end = start

    def as_dict(self) -> dict:
        return {"id": self.id, "parent": self.parent,
                "request": self.request, "name": self.name,
                "start": self.start, "end": self.end}


class Tracer:
    """Thread-aware span recorder plus the per-layer counters that are
    read at the same boundaries (rewrite blocks, evaluator work, WAL
    bytes, worker time)."""

    def __init__(self, id_prefix: str = ""):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._prefix = id_prefix
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list = []

    # -- spans ---------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, request=None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = parent.request
        span = Span(f"{self._prefix}{next(self._ids)}",
                    parent.id if parent is not None else None,
                    request, name, perf_counter())
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def adopt(self, records: list, parent: Span) -> None:
        """Graft spans recorded in another process (a pool worker)
        under ``parent``; ``perf_counter`` reads the system-wide
        monotonic clock, so the timestamps share one time base."""
        remote_roots = {r["id"] for r in records if r["parent"] is None}
        for r in records:
            span = Span(r["id"], r["parent"], parent.request, r["name"],
                        r["start"])
            span.end = r["end"]
            if r["id"] in remote_roots:
                span.parent = parent.id
            self.spans.append(span)

    # -- wrappers ------------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper;
        ``after(args, kwargs, result, span)`` reads counters at the
        boundary."""
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer.end(span)
                raise
            tracer.end(span)
            if after is not None:
                after(args, kwargs, result, span)
            return result

        self.replace(owner, attr, wrapper)

    def replace(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- output ----------------------------------------------------------------
    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.as_dict()) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap the entry points of esql, core, rules, engine, lifecycle,
    server, durability, pool and obs (the layers of ``src/repro``)."""
    from repro.core.optimizer import Optimizer
    from repro.durability.manager import DurabilityManager
    from repro.engine.database import Database
    from repro.engine.evaluate import Evaluator
    from repro.esql import fingerprint as fingerprint_mod
    from repro.esql import parser as parser_mod
    from repro.esql.translate import Translator
    from repro.lifecycle.registry import StatementRegistry
    from repro.obs.workload import StatementStats
    from repro.pool.supervisor import Supervisor
    from repro.rules.methods import MethodRegistry
    from repro.server.admission import AdmissionController
    from repro.server.locks import ReadWriteLock
    from repro.server.server import Server

    # module-level functions are bound by name in every importer
    for attr, name, home in (
            ("parse_script_with_sources", "esql.parse", parser_mod),
            ("fingerprint_source", "esql.fingerprint", fingerprint_mod)):
        original = getattr(home, attr)
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("repro")
                    and module.__dict__.get(attr) is original):
                tracer.wrap(module, attr, name)

    tracer.wrap(Translator, "execute", "esql.translate")
    _wrap_optimize(tracer, Optimizer)
    tracer.wrap(MethodRegistry, "invoke", "rules.method")
    _wrap_evaluate(tracer, Evaluator)
    tracer.wrap(Database, "query", "engine.database")
    tracer.wrap(Database, "execute", "engine.database")
    tracer.wrap(StatementRegistry, "begin", "lifecycle.govern")
    tracer.wrap(StatementRegistry, "finish", "lifecycle.govern")
    tracer.wrap(Server, "query", "server.serve")
    tracer.wrap(Server, "execute", "server.serve")
    _wrap_admit(tracer, AdmissionController)
    tracer.wrap(ReadWriteLock, "acquire_read", "server.lock_wait")
    tracer.wrap(ReadWriteLock, "acquire_write", "server.lock_wait")
    _wrap_wal(tracer, DurabilityManager)
    tracer.wrap(StatementStats, "record_call", "obs.record")
    _wrap_fsync(tracer)
    tracer.wrap(Supervisor, "submit", "pool.submit")
    _wrap_merge_call(tracer, StatementStats)


def _wrap_optimize(tracer: Tracer, optimizer_cls) -> None:
    """``core.optimize`` with a per-call event bus: its ``BlockEnd``
    events give per-block time; events still reach a caller's bus."""
    from repro.obs.bus import EventBus
    from repro.obs.events import BlockEnd

    def after(args, kwargs, optimized, span):
        result = optimized.rewrite_result
        tracer.count("core.rewrite_checks", result.checks)
        tracer.count("core.rewrite_applications", result.applications)
        tracer.count("core.rewrite_passes", result.passes)

    def on_block(event):
        tracer.count(f"core.block_s.{event.block}", event.duration)

    original = optimizer_cls.__dict__["optimize"]

    @functools.wraps(original)
    def optimize(self, term, *args, obs=None, **kwargs):
        bus = EventBus()
        bus.subscribe(on_block, kinds=(BlockEnd,))
        if obs:
            bus.subscribe(obs.emit)
        return original(self, term, *args, obs=bus, **kwargs)

    tracer.replace(optimizer_cls, "optimize", optimize)
    tracer.wrap(optimizer_cls, "optimize", "core.optimize", after=after)


def _wrap_evaluate(tracer: Tracer, evaluator_cls) -> None:
    original = evaluator_cls.__dict__["evaluate"]

    @functools.wraps(original)
    def evaluate(self, term):
        before = self.stats.snapshot()
        span = tracer.begin("engine.evaluate")
        try:
            result = original(self, term)
        finally:
            tracer.end(span)
        after = self.stats.snapshot()
        for key in ("tuples_scanned", "join_pairs", "fix_iterations"):
            tracer.count(f"engine.{key}", after[key] - before[key])
        tracer.count("engine.rows_out", len(result.rows))
        return result

    tracer.replace(evaluator_cls, "evaluate", evaluate)


def _wrap_admit(tracer: Tracer, controller_cls) -> None:
    """Admission is a context manager: the span covers entry only (the
    queue wait), never the admitted request's execution."""
    original = controller_cls.__dict__["admit"]

    @contextmanager
    def admit(self, request_class):
        manager = original(self, request_class)
        span = tracer.begin("server.admission_wait")
        try:
            ticket = manager.__enter__()
        finally:
            tracer.end(span)
        try:
            yield ticket
        except BaseException:
            if not manager.__exit__(*sys.exc_info()):
                raise
        else:
            manager.__exit__(None, None, None)

    tracer.replace(controller_cls, "admit", admit)


def _wrap_wal(tracer: Tracer, manager_cls) -> None:
    original = manager_cls.__dict__["log_statement"]

    @functools.wraps(original)
    def log_statement(self, sql):
        before = self.wal.position
        span = tracer.begin("durability.wal_append")
        try:
            return original(self, sql)
        finally:
            tracer.end(span)
            tracer.count("durability.wal_bytes", self.wal.position - before)
            tracer.count("durability.wal_appends")

    tracer.replace(manager_cls, "log_statement", log_statement)


def _wrap_fsync(tracer: Tracer) -> None:
    original = os.fsync

    def fsync(fd):
        tracer.count("durability.fsyncs")
        return original(fd)

    tracer.replace(os, "fsync", fsync)


def _wrap_merge_call(tracer: Tracer, stats_cls) -> None:
    """The supervisor folds each worker's per-call ``sys.statements``
    record into the parent: that record is the worker time, and in a
    traced run it also carries the worker's own spans."""
    original = stats_cls.__dict__["merge_call"]

    @functools.wraps(original)
    def merge_call(self, record):
        shipped = record.pop(WORKER_SPANS_KEY, None)
        tracer.count("pool.worker_s",
                     float(record.get("total_ms", 0.0)) / 1e3)
        parent = tracer.current()
        if shipped and parent is not None:
            tracer.adopt(shipped["spans"], parent)
            for name, amount in shipped["counters"].items():
                tracer.count(name, amount)
        return original(self, record)

    tracer.replace(stats_cls, "merge_call", merge_call)


WORKER_SPANS_KEY = "perfbench_spans"


def install_worker() -> Tracer:
    """Inside a pool worker, before its main module runs: trace every
    statement and attach its spans and counters to the statement
    record of the reply frame.  The worker binds ``send_frame`` when
    its main module is imported, which is after this hook ran."""
    from repro.pool import protocol

    tracer = Tracer(id_prefix=f"w{os.getpid()}.")
    install(tracer)
    send_frame = protocol.send_frame

    def traced_send_frame(stream, message):
        if message.get("type") in ("hello", "result", "error"):
            record = message.get("statement")
            if isinstance(record, dict):
                record[WORKER_SPANS_KEY] = {
                    "spans": [s.as_dict() for s in tracer.spans],
                    "counters": dict(tracer.counters),
                }
            tracer.spans.clear()
            tracer.counters.clear()
        return send_frame(stream, message)

    tracer.replace(protocol, "send_frame", traced_send_frame)
    return tracer


def summarize(tracer: Tracer) -> dict:
    """Per-layer metrics, per client statement, from one traced phase.

    Every metric named in :data:`SELF_TIME_METRICS` is a self time, so
    those metrics add up to ``client_ms``; ``unattributed_ms`` is the
    root's share.  ``core.block_ms.*``, ``pool.roundtrip_ms`` and
    ``pool.worker_ms`` are inclusive times that overlap them."""
    spans = [s for s in tracer.spans if s.request is not None]
    child_time: dict = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = (child_time.get(s.parent, 0.0)
                                    + s.end - s.start)
    self_time = dict.fromkeys(SELF_TIME_METRICS, 0.0)
    waits = {"server.admission_wait": {}, "server.lock_wait": {}}
    roots = 0
    client = roundtrip = 0.0
    method_calls = 0
    for s in spans:
        took = s.end - s.start
        self_time[s.name] += took - child_time.get(s.id, 0.0)
        if s.name == "client":
            roots += 1
            client += took
        elif s.name in waits:
            per_request = waits[s.name]
            per_request[s.request] = per_request.get(s.request, 0.0) + took
        elif s.name == "pool.submit":
            roundtrip += took
        elif s.name == "rules.method":
            method_calls += 1
    n = max(1, roots)
    c = tracer.counters.get
    out = {name: (self_time[span] / n * 1e3, "ms")
           for span, name in SELF_TIME_METRICS.items()}
    out["client_ms"] = (client / n * 1e3, "ms")
    for span, per_request in waits.items():
        ordered = sorted(list(per_request.values())
                         + [0.0] * (n - len(per_request)))
        out[f"{span}_p50_ms"] = (ordered[(n - 1) // 2] * 1e3, "ms")
        out[f"{span}_max_ms"] = (ordered[-1] * 1e3, "ms")
    for block in BLOCKS:
        out[f"core.block_ms.{block}"] = (
            c(f"core.block_s.{block}", 0.0) / n * 1e3, "ms")
    checks = c("core.rewrite_checks", 0)
    applications = c("core.rewrite_applications", 0)
    out["core.rewrite_checks"] = (checks / n, "count")
    out["core.rewrite_applications"] = (applications / n, "count")
    out["core.rewrite_fire_ratio"] = (
        applications / checks if checks else 0.0, "frac")
    out["core.rewrite_passes"] = (c("core.rewrite_passes", 0) / n, "count")
    out["rules.method_calls"] = (method_calls / n, "count")
    scanned, pairs = c("engine.tuples_scanned", 0), c("engine.join_pairs", 0)
    out["engine.tuples_scanned"] = (scanned / n, "count")
    out["engine.join_pairs"] = (pairs / n, "count")
    out["engine.fix_iterations"] = (c("engine.fix_iterations", 0) / n,
                                    "count")
    out["engine.work_per_row"] = (
        (scanned + pairs) / max(1, c("engine.rows_out", 0)), "count")
    appends = c("durability.wal_appends", 0)
    out["durability.wal_bytes_per_write"] = (
        c("durability.wal_bytes", 0) / appends if appends else 0.0, "bytes")
    out["durability.fsyncs"] = (c("durability.fsyncs", 0), "count")
    worker = c("pool.worker_s", 0.0)
    out["pool.roundtrip_ms"] = (roundtrip / n * 1e3, "ms")
    out["pool.worker_ms"] = (worker / n * 1e3, "ms")
    out["pool.ipc_ms"] = ((roundtrip - worker) / n * 1e3, "ms")
    return out
