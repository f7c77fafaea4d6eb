"""The ``sys.*`` introspection catalog: the system as relations.

The paper's rewriter lives *inside* an extensible DBMS, so the
system's own telemetry should be just another set of relations --
queryable, rewritable, joinable -- not a pile of bespoke accessors.
:func:`register_introspection` installs a virtual relation (see
:class:`~repro.engine.storage.VirtualRelation`) for every observable
subsystem; a ``SELECT`` against any of them runs through the full
ESQL -> parse -> rewrite -> LERA -> evaluate pipeline, which means
rewrite rules fire on queries *about* the rewriter and those firings
land back in ``sys.rewrites``.

Producers never take the writer lock.  Each one reads only structures
that are safe under concurrent mutation: per-metric locks, the session
manager's own mutex, deque snapshots (``list(deque)`` is atomic under
the GIL), the ledger's guarded ring, and ``scan_wal`` -- which
tolerates torn tails by design, so reading the live WAL file mid-append
degrades to "one statement short", never to an error.

Two registration tiers:

* ``register_introspection(db)`` -- every Database gets this at
  construction.  Every relation exists; the server-backed ones
  (``sys.metrics``, ``sys.histograms``, ``sys.sessions``,
  ``sys.slow_queries``) produce no rows yet.
* ``register_introspection(db, server=server)`` -- the Server re-runs
  registration when it mounts, replacing those producers with ones
  that read its registry, session manager and slow-query ring.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.adt.types import BOOLEAN, CHAR, INT, NUMERIC, REAL

__all__ = ["register_introspection", "SYS_RELATIONS"]

# name -> one-line description, the authoritative inventory (docs and
# the CLI .schema listing read this ordering)
SYS_RELATIONS = {
    "sys.relations": "every catalog relation: tables, views, sys.*",
    "sys.metrics": "counter metrics of the serving registry",
    "sys.histograms": "latency/size distributions with percentiles",
    "sys.sessions": "live server sessions and their settings",
    "sys.slow_queries": "requests that crossed the slow threshold",
    "sys.queries": "in-flight and recent statements: id, phase, cost",
    "sys.workers": "pool worker processes: pid, state, restarts",
    "sys.rewrites": "the rewrite-provenance ring: one row per firing",
    "sys.rule_heat": "cumulative per-rule firing aggregates",
    "sys.statements": "per-fingerprint workload aggregates "
                      "(pg_stat_statements style)",
    "sys.plan_nodes": "per-operator actuals of the last analyzed plans",
    "sys.quarantine": "rules benched for changing query answers",
    "sys.plan_cache": "plan cache counters: capacity, entries, hits, "
                      "misses, evictions, invalidations",
    "sys.wal": "committed statements in the write-ahead log",
    "sys.snapshots": "the durability snapshot file, if any",
}


def register_introspection(db, server=None) -> None:
    """Install (or refresh) the ``sys.*`` catalog on ``db``.

    ``server`` upgrades the four serving-backed relations; passing it
    again is idempotent (registration replaces producers in place).
    """
    catalog = db.catalog

    catalog.register_virtual(
        "sys.relations",
        [("Name", CHAR), ("Kind", CHAR), ("Columns", INT),
         ("Rows", INT)],
        lambda: _relations_rows(catalog),
        SYS_RELATIONS["sys.relations"],
    )

    catalog.register_virtual(
        "sys.queries",
        [("QueryId", CHAR), ("Session", CHAR), ("TraceId", CHAR),
         ("Phase", CHAR), ("Source", CHAR), ("Rows", INT),
         ("Bytes", INT), ("PeakBytes", INT), ("ElapsedMs", REAL),
         ("Cancelled", BOOLEAN), ("Reason", CHAR),
         ("Truncated", BOOLEAN), ("QueueMs", REAL),
         ("Worker", CHAR)],
        lambda: _query_rows(db.lifecycle),
        SYS_RELATIONS["sys.queries"],
    )

    # reads the pool mounted *now* (a closure over server, not over
    # the pool), so .workers on/off is reflected without re-mounting
    catalog.register_virtual(
        "sys.workers",
        [("Worker", CHAR), ("Pid", INT), ("State", CHAR),
         ("Statements", INT), ("Restarts", INT), ("QueryId", CHAR),
         ("Source", CHAR), ("BeatAgeMs", REAL), ("Version", INT)],
        lambda: _worker_rows(server),
        SYS_RELATIONS["sys.workers"],
    )

    catalog.register_virtual(
        "sys.rewrites",
        [("TraceId", CHAR), ("Fingerprint", CHAR), ("Block", CHAR),
         ("Rule", CHAR), ("Iteration", INT), ("Path", CHAR),
         ("BeforeHash", CHAR), ("AfterHash", CHAR),
         ("ComplexityDelta", INT), ("DurationMs", REAL)],
        lambda: _rewrites_rows(db.ledger),
        SYS_RELATIONS["sys.rewrites"],
    )

    catalog.register_virtual(
        "sys.statements",
        [("Fingerprint", CHAR), ("Template", CHAR), ("Calls", INT),
         ("Rows", INT), ("RewriteMs", REAL), ("EvalMs", REAL),
         ("TotalMs", REAL), ("MeanMs", REAL), ("MinMs", REAL),
         ("MaxMs", REAL), ("RuleFirings", INT), ("Shed", INT),
         ("Retries", INT), ("Cancelled", INT), ("Truncated", INT),
         ("Failed", INT)],
        lambda: db.workload.rows(),
        SYS_RELATIONS["sys.statements"],
    )

    catalog.register_virtual(
        "sys.plan_nodes",
        [("Plan", INT), ("Fingerprint", CHAR), ("TraceId", CHAR),
         ("Node", INT), ("Operator", CHAR), ("Hash", CHAR),
         ("Depth", INT), ("Rows", INT), ("Loops", INT),
         ("SelfMs", REAL), ("TotalMs", REAL), ("Bytes", INT)],
        lambda: db.plan_log.rows(),
        SYS_RELATIONS["sys.plan_nodes"],
    )

    catalog.register_virtual(
        "sys.rule_heat",
        [("Block", CHAR), ("Rule", CHAR), ("Fired", INT),
         ("DeltaTotal", INT), ("DeltaMean", REAL),
         ("DurationMsTotal", REAL)],
        lambda: _rule_heat_rows(db.ledger),
        SYS_RELATIONS["sys.rule_heat"],
    )

    catalog.register_virtual(
        "sys.quarantine",
        [("Rule", CHAR), ("Block", CHAR), ("Source", CHAR),
         ("Detail", CHAR), ("BenchedAt", REAL)],
        lambda: _quarantine_rows(db.quarantine),
        SYS_RELATIONS["sys.quarantine"],
    )

    catalog.register_virtual(
        "sys.plan_cache",
        [("Capacity", INT), ("Entries", INT), ("Hits", INT),
         ("Misses", INT), ("Evictions", INT), ("Invalidations", INT)],
        lambda: [tuple(db.plan_cache.stats().values())],
        SYS_RELATIONS["sys.plan_cache"],
    )

    catalog.register_virtual(
        "sys.wal",
        [("Lsn", INT), ("Kind", CHAR), ("Bytes", INT),
         ("Statement", CHAR)],
        lambda: _wal_rows(db),
        SYS_RELATIONS["sys.wal"],
    )

    catalog.register_virtual(
        "sys.snapshots",
        [("Path", CHAR), ("Present", BOOLEAN), ("Bytes", INT),
         ("LastLsn", INT)],
        lambda: _snapshot_rows(db),
        SYS_RELATIONS["sys.snapshots"],
    )

    # the serving-backed four: empty until a Server re-registers them
    registry = server.metrics if server is not None else None
    catalog.register_virtual(
        "sys.metrics",
        [("Name", CHAR), ("Value", NUMERIC)],
        lambda: _metrics_rows(registry),
        SYS_RELATIONS["sys.metrics"],
    )

    catalog.register_virtual(
        "sys.histograms",
        [("Name", CHAR), ("Kind", CHAR), ("Count", INT),
         ("Mean", REAL), ("P50", REAL), ("P95", REAL), ("P99", REAL),
         ("Min", REAL), ("Max", REAL)],
        lambda: _histogram_rows(registry),
        SYS_RELATIONS["sys.histograms"],
    )

    catalog.register_virtual(
        "sys.sessions",
        [("Id", CHAR), ("Statements", INT), ("IdleS", REAL),
         ("Settings", CHAR)],
        lambda: _session_rows(server),
        SYS_RELATIONS["sys.sessions"],
    )

    catalog.register_virtual(
        "sys.slow_queries",
        [("TraceId", CHAR), ("Fingerprint", CHAR), ("Class", CHAR),
         ("Session", CHAR), ("Source", CHAR), ("DurationMs", REAL),
         ("ThresholdMs", REAL)],
        lambda: _slow_query_rows(server),
        SYS_RELATIONS["sys.slow_queries"],
    )


# -- producers ---------------------------------------------------------------

def _relations_rows(catalog):
    rows = []
    for name in catalog.relation_names():
        rel = catalog.table(name)
        rows.append((name, "table", len(rel.schema), len(rel.rows)))
    for name in catalog.view_names():
        view = catalog.view(name)
        kind = "recursive view" if view.recursive else "view"
        # a view's cardinality needs evaluation: report -1, not a lie
        rows.append((name, kind, len(view.schema), -1))
    for name in catalog.virtual_names():
        virtual = catalog.virtual(name)
        rows.append((name, "virtual", len(virtual.schema), -1))
    return rows


_SOURCE_PREVIEW = 80  # sys.queries shows at most this much statement text


def _query_rows(registry):
    """Active statements first (registry order is by id), then the
    done-ring.  Reads the registry's own mutex only -- never the
    database's writer lock, so a wedged writer cannot make the
    monitoring query hang too."""
    rows = []
    for context in registry.active() + registry.recent():
        snap = context.snapshot()
        rows.append((
            snap["query_id"], snap["session"], snap["trace_id"],
            snap["phase"], snap["source"][:_SOURCE_PREVIEW],
            snap["rows_charged"], snap["bytes_reserved"],
            snap["bytes_peak"], snap["elapsed_ms"],
            snap["cancelled"], snap["cancel_reason"] or "",
            snap["truncated"], snap["queue_wait_ms"],
            snap["worker"],
        ))
    return rows


def _worker_rows(server):
    pool = getattr(server, "pool", None) if server is not None else None
    if pool is None:
        return []
    return pool.rows()


def _rewrites_rows(ledger):
    return [
        (e.trace_id, e.fingerprint, e.block, e.rule, e.iteration,
         e.path, e.before_hash, e.after_hash, e.complexity_delta,
         e.duration_ms)
        for e in ledger.entries()
    ]


def _rule_heat_rows(ledger):
    return [
        (r["block"], r["rule"], r["fired"],
         r["complexity_delta_total"], r["complexity_delta_mean"],
         r["duration_ms_total"])
        for r in ledger.heat()
    ]


def _quarantine_rows(registry):
    return [
        (e.rule, e.block, e.source, e.detail, e.benched_at)
        for e in registry.entries()
    ]


def _wal_rows(db):
    if db.durability is None:
        return []
    from repro.durability.wal import scan_wal
    scan = scan_wal(db.durability.wal.path)
    return [
        (int(record.get("lsn", 0)), str(record.get("kind", "")),
         len(str(record.get("sql", ""))), str(record.get("sql", "")))
        for record in scan.records
    ]


def _snapshot_rows(db):
    if db.durability is None:
        return []
    path = db.durability.snapshot_path
    present = os.path.exists(path)
    size = os.path.getsize(path) if present else 0
    return [(path, present, size, db.durability.last_lsn)]


def _metrics_rows(registry):
    if registry is None:
        return []
    counters = registry.snapshot()["counters"]
    return [(name, value) for name, value in counters.items()]


def _histogram_rows(registry):
    if registry is None:
        return []
    rows = []
    for kind, source in (("sampled", registry._histograms),
                         ("bucket", registry._buckets)):
        for name, metric in sorted(list(source.items())):
            rows.append((
                name, kind, metric.count, metric.mean,
                metric.percentile(50), metric.percentile(95),
                metric.percentile(99),
                metric.min if metric.min is not None else 0.0,
                metric.max if metric.max is not None else 0.0,
            ))
    return rows


def _session_rows(server):
    if server is None:
        return []
    return [
        (s.id, s.statements, s.idle_for(), s.settings.describe())
        for s in server.sessions.sessions()
    ]


def _slow_query_rows(server):
    if server is None:
        return []
    return [
        (entry.get("trace_id") or "",
         entry.get("fingerprint") or "", entry["request_class"],
         entry["session"], entry["source"], entry["duration_ms"],
         float(entry.get("threshold_ms") or 0.0))
        for entry in list(server._slow)
    ]
