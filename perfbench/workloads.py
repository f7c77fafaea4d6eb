"""The four benchmark workloads.

Each workload generates its data and statements from the seed with its
own code, builds the program's objects in :meth:`Workload.build` (the
part timed as ``setup_s``), and yields statements one client at a time.
Every read carries the answer it must return, derived by plain Python
from the workload's own model of the data (or, for ``adhoc_cold``,
by the program with rewriting off, before timing starts); every write
updates that model only after it succeeded.
"""

from __future__ import annotations

import shutil
import tempfile
from bisect import bisect_left
from collections import Counter
from random import Random

from perfbench import adhoc


class Op:
    """One statement: ``expect`` is the bag of rows a read must return
    (a Counter, or a callable producing one after the call);
    ``commit`` applies a successful write to the model."""

    __slots__ = ("kind", "sql", "expect", "commit")

    def __init__(self, kind, sql, expect=None, commit=None):
        self.kind = kind
        self.sql = sql
        self.expect = expect
        self.commit = commit

    def check(self, result) -> bool:
        if self.kind == "write":
            return True
        expected = self.expect() if callable(self.expect) else self.expect
        return Counter(map(tuple, result.rows)) == expected


def mixed(rng: Random, mix: dict):
    """Statement kinds in endless shuffled blocks that hold each kind
    exactly ``mix[kind]`` times.  The shares are exact in every block,
    so the statement mix, and with it the latency percentiles, do not
    drift with the seed."""
    block = [kind for kind, count in mix.items() for __ in range(count)]
    while True:
        rng.shuffle(block)
        yield from block


class Workload:
    """Base class: a closed loop of ``clients`` callers."""

    name = ""
    clients = 1
    # builds before and again after the measured run; setup_s is the
    # median of all of them (a cheap build is repeated more)
    setup_reps = 20

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.db = None
        self.server = None
        self.callers: list = []

    def rng(self, purpose: str) -> Random:
        return Random(f"{self.name}:{self.seed}:{purpose}")

    # -- lifecycle ---------------------------------------------------------------
    def build(self) -> None:
        """Create the database, load it through ESQL, build the
        optimizer and start any server and pool (timed as setup)."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed work after the last build (reference answers)."""

    def close(self) -> None:
        for caller in self.callers:
            close = getattr(caller, "close", None)
            if close is not None:
                close()
        self.callers = []
        if self.server is not None:
            self.server.close()
            self.server = None
        if self.db is not None:
            self.db.close()
            self.db = None

    # -- statements --------------------------------------------------------------
    def stream(self, client: int):
        raise NotImplementedError

    def call(self, client: int, op: Op):
        caller = self.callers[client]
        if op.kind == "read":
            return caller.query(op.sql)
        return caller.execute(op.sql)

    def retries(self, client: int) -> int:
        """Attempts beyond the first made by the last call's client."""
        retry = getattr(self.callers[client], "retry", None)
        return max(0, retry.last_attempts - 1) if retry is not None else 0

    # -- reporting ---------------------------------------------------------------
    def counters(self) -> dict:
        """Serving and pool counters (cumulative; the harness diffs)."""
        server = self.server
        if server is None:
            return {"sheds": 0, "fallbacks": 0, "pool_retries": 0}
        pool = server.pool
        return {
            "sheds": server.admission.shed_total,
            "fallbacks": server.metrics.counters_with_prefix(
                "pool.").get("pool.fallbacks", 0),
            "pool_retries": pool.retries if pool is not None else 0,
        }

    def tables(self) -> dict:
        return {}

    def trace_workers(self) -> None:
        """Restart pool workers so they inherit the tracing hook."""


# -- served_oltp -----------------------------------------------------------------

_OLTP_ACCOUNTS = 100   # per client
_OLTP_BRANCHES = 10
_OLTP_SPAN = 1_000_000  # id space owned by one client


class ServedOltp(Workload):
    """Two clients through ``Server.client()`` against a durable
    database (WAL in a directory under the checkout, ``sync=False``)."""

    name = "served_oltp"
    clients = 2

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = self.rng("data")
        self.branches = {b: f"b{b}" for b in range(_OLTP_BRANCHES)}
        # one row model per client: id -> [branch, balance]
        self.models = []
        for c in range(self.clients):
            base = (c + 1) * _OLTP_SPAN
            self.models.append({
                base + i: [rng.randrange(_OLTP_BRANCHES),
                           rng.randrange(1000)]
                for i in range(_OLTP_ACCOUNTS)
            })
        self.load = [
            "TABLE BRANCH (Id : NUMERIC, Name : CHAR, Region : NUMERIC)",
            "TABLE ACCT (Id : NUMERIC, Branch : NUMERIC, "
            "Balance : NUMERIC)",
            "CREATE VIEW RICH (Id, Balance) AS "
            "SELECT Id, Balance FROM ACCT WHERE Balance > 500",
            "INSERT INTO BRANCH VALUES " + ", ".join(
                f"({b}, '{name}', {b % 3})"
                for b, name in self.branches.items()),
            "INSERT INTO ACCT VALUES " + ", ".join(
                f"({i}, {br}, {bal})" for model in self.models
                for i, (br, bal) in model.items()),
        ]
        self.dir = None

    def build(self):
        from repro import Database
        from repro.server import Server
        self.dir = tempfile.mkdtemp(prefix="oltp-", dir=self.workdir)
        db = self.db = Database(path=self.dir, sync=False)
        for sql in self.load:
            db.execute(sql)
        db.optimizer
        self.server = Server(db)
        self.callers = [self.server.client() for __ in range(self.clients)]

    def close(self):
        super().close()
        if self.dir is not None:
            shutil.rmtree(self.dir, ignore_errors=True)
            self.dir = None

    def tables(self):
        return {"ACCT": sum(len(m) for m in self.models),
                "BRANCH": len(self.branches)}

    def stream(self, client):
        rng = self.rng(f"client{client}")
        model = self.models[client]
        base = (client + 1) * _OLTP_SPAN
        fresh = [base + _OLTP_ACCOUNTS]
        branches = self.branches

        def ids():
            return sorted(model)

        def rows_between(lo, hi, pick):
            live = ids()
            return Counter(pick(i) for i in live[bisect_left(live, lo):
                                                 bisect_left(live, hi)])

        # per 30 statements: 24 reads (4 of each shape), 2 UPDATEs, 2
        # INSERTs and 2 DELETEs -- 20% writes, and the table size is
        # back where it started at the end of every block.  Inserts and
        # deletes are shuffled apart, so no write kind systematically
        # follows another and skips the wait for the other client.
        mix = dict.fromkeys(range(6), 4)
        mix.update(update=2, insert=2, delete=2)
        for shape in mixed(rng, mix):
            live = ids()
            k = rng.choice(live)
            if shape == "update":
                value = rng.randrange(1000)

                def commit(k=k, value=value):
                    model[k][1] = value
                yield Op("write", f"UPDATE ACCT SET Balance = {value} "
                                  f"WHERE Id = {k}", commit=commit)
            elif shape == "insert":
                new = fresh[0]
                fresh[0] += 1
                row = [rng.randrange(_OLTP_BRANCHES), rng.randrange(1000)]
                yield Op("write", f"INSERT INTO ACCT VALUES "
                                  f"({new}, {row[0]}, {row[1]})",
                         commit=lambda new=new, row=row:
                         model.__setitem__(new, row))
            elif shape == "delete":
                old = live[0]
                yield Op("write", f"DELETE FROM ACCT WHERE Id = {old}",
                         commit=lambda old=old: model.pop(old))
            else:
                if shape == 0:
                    yield Op("read",
                             f"SELECT Balance FROM ACCT WHERE Id = {k}",
                             lambda k=k: Counter([(model[k][1],)]))
                elif shape == 1:
                    yield Op("read",
                             f"SELECT Id, Balance FROM ACCT "
                             f"WHERE Id >= {k} AND Id < {k + 10}",
                             lambda k=k: rows_between(
                                 k, k + 10, lambda i: (i, model[i][1])))
                elif shape == 2:
                    yield Op("read",
                             f"SELECT A.Id, B.Name FROM ACCT A, BRANCH B "
                             f"WHERE A.Branch = B.Id AND A.Id = {k}",
                             lambda k=k: Counter(
                                 [(k, branches[model[k][0]])]))
                elif shape == 3:
                    br = rng.randrange(_OLTP_BRANCHES)
                    yield Op("read",
                             f"SELECT Id FROM ACCT WHERE Branch = {br} "
                             f"AND Id >= {base} "
                             f"AND Id < {base + _OLTP_SPAN}",
                             lambda br=br: Counter(
                                 (i,) for i, (b, __) in model.items()
                                 if b == br))
                elif shape == 4:
                    def sums(k=k):
                        totals = Counter()
                        for (i,) in rows_between(k, k + 20,
                                                 lambda i: (i,)):
                            totals[model[i][0]] += model[i][1]
                        return Counter(totals.items())
                    yield Op("read",
                             f"SELECT Branch, SUM(Balance) FROM ACCT "
                             f"WHERE Id >= {k} AND Id < {k + 20} "
                             f"GROUP BY Branch", sums)
                else:
                    yield Op("read",
                             f"SELECT Id, Balance FROM RICH "
                             f"WHERE Id >= {k} AND Id < {k + 30}",
                             lambda k=k: Counter(
                                 row for row in rows_between(
                                     k, k + 30, lambda i: (i, model[i][1]))
                                 if row[1] > 500))


# -- analytic_scan -----------------------------------------------------------------

_FACT_ROWS = 3000
_DIMS = 10
_TAGS = 20


class AnalyticScan(Workload):
    """One client on a bare ``Database``: scans, a nested-loop join, a
    view with GROUP BY and a collection-membership predicate."""

    name = "analytic_scan"
    setup_reps = 4

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = self.rng("data")
        # Id -> [dim, amount, qty, tags]
        self.fact = [[rng.randrange(_DIMS), rng.randrange(1000),
                      rng.randrange(50), rng.sample(range(_TAGS), 3)]
                     for __ in range(_FACT_ROWS)]
        self.dims = {d: f"d{d}" for d in range(_DIMS)}
        self.load = [
            "TYPE TagSet SET OF NUMERIC",
            "TABLE FACT (Id : NUMERIC, Dim : NUMERIC, Amount : NUMERIC, "
            "Qty : NUMERIC, Tags : TagSet)",
            "TABLE DIM (Id : NUMERIC, Name : CHAR, Region : NUMERIC)",
            "CREATE VIEW BIGF (Dim, Amount) AS "
            "SELECT Dim, Amount FROM FACT WHERE Amount > 100",
            "INSERT INTO DIM VALUES " + ", ".join(
                f"({d}, '{name}', {d % 3})"
                for d, name in self.dims.items()),
        ]
        for lo in range(0, _FACT_ROWS, 500):
            self.load.append("INSERT INTO FACT VALUES " + ", ".join(
                f"({i}, {dim}, {amount}, {qty}, "
                f"SET({', '.join(map(str, tags))}))"
                for i, (dim, amount, qty, tags)
                in enumerate(self.fact[lo:lo + 500], start=lo)))

    def build(self):
        from repro import Database
        db = self.db = Database()
        for sql in self.load:
            db.execute(sql)
        db.optimizer
        self.callers = [db]

    def tables(self):
        return {"FACT": _FACT_ROWS, "DIM": _DIMS}

    def stream(self, client):
        rng = self.rng("client0")
        fact, dims = self.fact, self.dims
        # per 18 statements: 16 reads (4 of each shape), 2 UPDATEs.
        # Every shape draws its constants stratified: each tenth of its
        # range comes up once in every ten draws, so every run sees the
        # same spread of result sizes and statement costs, and a
        # percentile does not move with the seed's luck.  The UPDATEs
        # reflect Amount (999 - Amount), which keeps it uniform over
        # 0..999, so selectivities do not drift during the run either.
        mix = dict.fromkeys(range(4), 4)
        mix.update(update=2)
        tenths = {shape: mixed(rng, dict.fromkeys(range(10), 1))
                  for shape in mix}
        for shape in mixed(rng, mix):
            i = next(tenths[shape])
            if shape == "update":
                width = 20 * i + rng.randint(1, 20)
                k = rng.randrange(_FACT_ROWS - width)

                def commit(k=k, width=width):
                    for row in fact[k:k + width]:
                        row[1] = 999 - row[1]
                yield Op("write",
                         f"UPDATE FACT SET Amount = 999 - Amount "
                         f"WHERE Id >= {k} AND Id < {k + width}",
                         commit=commit)
            elif shape == 0:
                lo = 100 * i + rng.randrange(100)
                q = 5 * (3 * i % 10) + rng.randint(1, 5)
                yield Op("read",
                         f"SELECT Id, Amount FROM FACT "
                         f"WHERE Amount > {lo} AND Qty < {q}",
                         lambda lo=lo, q=q: Counter(
                             (i, r[1]) for i, r in enumerate(fact)
                             if r[1] > lo and r[2] < q))
            elif shape == 1:
                lo = 700 + 30 * i + rng.randrange(30)
                yield Op("read",
                         f"SELECT F.Id, D.Name FROM FACT F, DIM D "
                         f"WHERE F.Dim = D.Id AND F.Amount > {lo}",
                         lambda lo=lo: Counter(
                             (i, dims[r[0]]) for i, r in enumerate(fact)
                             if r[1] > lo))
            elif shape == 2:
                top = i + 1

                def sums(top=top):
                    totals = Counter()
                    for dim, amount, __, __ in fact:
                        if amount > 100 and dim < top:
                            totals[dim] += amount
                    return Counter(totals.items())
                yield Op("read",
                         f"SELECT Dim, SUM(Amount) FROM BIGF "
                         f"WHERE Dim < {top} GROUP BY Dim", sums)
            else:
                tag, q = rng.randrange(_TAGS), 5 * i + rng.randint(1, 5)
                yield Op("read",
                         f"SELECT Id FROM FACT "
                         f"WHERE MEMBER({tag}, Tags) AND Qty < {q}",
                         lambda tag=tag, q=q: Counter(
                             (i,) for i, r in enumerate(fact)
                             if tag in r[3] and r[2] < q))


# -- recursive_pool ----------------------------------------------------------------

_NODES = 40
_EXTRA_EDGES = 20


class RecursivePool(Workload):
    """One client through ``Server`` with a one-worker process pool:
    bound-source reachability over a chain plus random edges."""

    name = "recursive_pool"
    setup_reps = 4

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        # one fixed graph shape, its nodes relabelled by the seed: every
        # seed does the same fixpoint work, so the seeds' figures differ
        # by measurement noise, not by how deep their graphs happen to
        # be.  Extra edges point forward, so the graph is acyclic and a
        # source's reachable set shrinks along the chain: reads range
        # from cheap to the whole closure.
        shape = Random("recursive_pool:shape")
        edges = {(i, i + 1) for i in range(1, _NODES)}
        while len(edges) < _NODES - 1 + _EXTRA_EDGES:
            a, b = sorted(shape.sample(range(1, _NODES + 1), 2))
            edges.add((a, b))
        rng = self.rng("data")
        label = list(range(1, _NODES + 1))
        rng.shuffle(label)
        self.edges = sorted((label[a - 1], label[b - 1]) for a, b in edges)
        self.load = [
            "TABLE EDGE (Src : NUMERIC, Dst : NUMERIC, Cost : NUMERIC)",
            "INSERT INTO EDGE VALUES " + ", ".join(
                f"({a}, {b}, {rng.randrange(100)})" for a, b in self.edges),
            "CREATE VIEW REACH (Src, Dst) AS "
            "( SELECT Src, Dst FROM EDGE UNION "
            "SELECT R.Src, E.Dst FROM REACH R, EDGE E WHERE R.Dst = E.Src )",
        ]
        # Cost updates never change reachability: answer by BFS once
        succ: dict[int, list] = {}
        for a, b in self.edges:
            succ.setdefault(a, []).append(b)
        self.reach = {}
        for s in range(1, _NODES + 1):
            seen, todo = set(), list(succ.get(s, ()))
            while todo:
                n = todo.pop()
                if n not in seen:
                    seen.add(n)
                    todo.extend(succ.get(n, ()))
            self.reach[s] = Counter((n,) for n in seen)

    def build(self):
        from repro import Database
        from repro.server import Server
        db = self.db = Database()
        for sql in self.load:
            db.execute(sql)
        db.optimizer
        self.server = Server(db)
        self._start_pool()
        self.callers = [self.server.client()]

    def _start_pool(self):
        pool = self.server.enable_pool(1)
        if not pool.wait_ready(timeout_s=60.0):
            raise RuntimeError("the pool worker did not come up")

    def trace_workers(self):
        self._start_pool()

    def tables(self):
        return {"EDGE": len(self.edges), "nodes": _NODES}

    def stream(self, client):
        rng = self.rng("client0")
        # per 47 statements: one read from every source node and 7
        # UPDATEs -- 15% writes
        mix = dict.fromkeys(range(1, _NODES + 1), 1)
        mix.update(update=7)
        for source in mixed(rng, mix):
            if source == "update":
                a, b = rng.choice(self.edges)
                yield Op("write", f"UPDATE EDGE SET Cost = "
                                  f"{rng.randrange(100)} "
                                  f"WHERE Src = {a} AND Dst = {b}")
            else:
                yield Op("read",
                         f"SELECT Dst FROM REACH WHERE Src = {source}",
                         self.reach[source])


# -- adhoc_cold --------------------------------------------------------------------

_ADHOC_STATEMENTS = 4000


class AdhocCold(Workload):
    """One client on a bare ``Database`` issuing generated ad-hoc
    shapes: almost every statement is a template never seen before."""

    name = "adhoc_cold"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.data = adhoc.table_rows(self.rng("data"))
        self.load = [adhoc.table_ddl()] + [
            adhoc.insert_sql(name, rows) for name, rows in self.data.items()
        ]
        self.ops: list[Op] = []

    def build(self):
        from repro import Database
        db = self.db = Database()
        for sql in self.load:
            db.execute(sql)
        db.optimizer
        self.callers = [db]

    def prepare(self):
        """Answer every generated read with rewriting off, on a twin
        database and below the fingerprint memo, before timing."""
        from repro import Database
        from repro.engine.evaluate import Evaluator
        from repro.errors import ReproError
        twin = Database()
        for sql in self.load:
            twin.execute(sql)
        rng = self.rng("client0")
        gen = adhoc.QueryGenerator(rng)
        # per 23 statements: 20 reads and one INSERT/UPDATE/DELETE run
        # over 1-20 scratch rows that no read sees (three write kinds of
        # varying size, so the write median falls inside a spread, not
        # in a gap between two kinds).  Every 20 runs cover each size
        # once, so the write percentiles do not move with the seed.
        mix = dict(adhoc.SHAPES, scratch_rows=1)
        shapes = mixed(rng, mix)
        sizes = mixed(rng, dict.fromkeys(range(1, 21), 1))
        while len(self.ops) < _ADHOC_STATEMENTS:
            shape = next(shapes)
            if shape == "scratch_rows":
                key = 1000 + len(self.ops)
                rows = range(key, key + next(sizes))
                self.ops += [
                    Op("write", adhoc.insert_sql(
                        "R", [(k, k % 7, "z") for k in rows])),
                    Op("write", f"UPDATE R SET RB = {key % 5} "
                                f"WHERE RA >= {key}"),
                    Op("write", f"DELETE FROM R WHERE RA >= {key}"),
                ]
                continue
            while True:
                sql = gen.query(shape)
                try:
                    plan = twin.optimize(sql, rewrite=False)
                    rows = Evaluator(twin.catalog).evaluate(plan.final).rows
                except ReproError:
                    continue  # outside the supported grammar: redraw
                break
            self.ops.append(Op("read", sql, Counter(map(tuple, rows))))

    def tables(self):
        return {name: len(rows) for name, rows in self.data.items()}

    def stream(self, client):
        while True:
            yield from self.ops


WORKLOADS = {w.name: w for w in (ServedOltp, AnalyticScan, RecursivePool,
                                 AdhocCold)}
