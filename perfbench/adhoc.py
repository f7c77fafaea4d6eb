"""The ad-hoc query generator behind the ``adhoc_cold`` workload.

A seeded stream of SELECT shapes over three small tables: filters
with comparison, OR-chain and IN-list conjuncts, two- and three-way
joins, DISTINCT, IN / EXISTS / NOT EXISTS subqueries, UNION and
GROUP BY.  Projections, operators, conjunct counts and table choices
are drawn independently, so almost every statement is a new template
(the constants are drawn too, but they do not make new templates).

The generator is the benchmark's own: it shares no code with the
program's fuzzer, so a change to the fuzzer cannot change the
workload.
"""

from __future__ import annotations

from random import Random

# name -> [(column, kind)]; kind "n" is NUMERIC, "c" is CHAR
TABLES = {
    "R": [("RA", "n"), ("RB", "n"), ("RC", "c")],
    "S": [("SB", "n"), ("SD", "n"), ("SE", "c")],
    "T": [("TA", "n"), ("TF", "n")],
}
ROWS = {"R": 40, "S": 25, "T": 15}
# equi-join columns between table pairs
JOINS = {
    ("R", "S"): ("RB", "SB"),
    ("R", "T"): ("RA", "TA"),
    ("S", "T"): ("SD", "TF"),
}
_NUM_DOMAIN = 10
_CHARS = "abcde"


def table_ddl() -> str:
    kinds = {"n": "NUMERIC", "c": "CHAR"}
    return "; ".join(
        f"TABLE {name} ("
        + ", ".join(f"{col} : {kinds[kind]}" for col, kind in cols) + ")"
        for name, cols in TABLES.items()
    )


def table_rows(rng: Random) -> dict:
    data = {}
    for name, cols in TABLES.items():
        data[name] = [
            tuple(_value(rng, kind) for __, kind in cols)
            for __ in range(ROWS[name])
        ]
    return data


def insert_sql(name: str, rows) -> str:
    return f"INSERT INTO {name} VALUES " + ", ".join(
        "(" + ", ".join(_literal(v) for v in row) + ")" for row in rows
    )


def _value(rng: Random, kind: str):
    if kind == "c":
        return rng.choice(_CHARS)
    return rng.randrange(_NUM_DOMAIN)


def _literal(value) -> str:
    return f"'{value}'" if isinstance(value, str) else str(value)


# shape -> statements of that shape in every block of 20 reads
SHAPES = {"filter": 5, "join2": 4, "join3": 2, "subquery": 4, "union": 3,
          "group": 2}


class QueryGenerator:
    """Draws one SELECT text at a time from a seeded random stream."""

    def __init__(self, rng: Random):
        self.rng = rng

    def query(self, shape: str) -> str:
        """One SELECT of ``shape``, one of the keys of :data:`SHAPES`."""
        return getattr(self, f"_{shape}")()

    # -- pieces ----------------------------------------------------------------
    def _columns(self, tables):
        return [c for t in tables for c in TABLES[t]]

    def _projection(self, tables) -> list[str]:
        cols = [c for c, __ in self._columns(tables)]
        return self.rng.sample(cols, self.rng.randint(1, min(3, len(cols))))

    def _conjunct(self, tables) -> str:
        rng = self.rng
        col, kind = rng.choice(self._columns(tables))
        form = rng.random()
        if kind == "c":
            if form < 0.5:
                return f"{col} {rng.choice(['=', '<>'])} {_literal(_value(rng, kind))}"
            arms = rng.randint(2, 4)
            return "(" + " OR ".join(
                f"{col} = {_literal(_value(rng, kind))}"
                for __ in range(arms)) + ")"
        if form < 0.45:
            op = rng.choice(["=", "<", ">", "<=", ">=", "<>"])
            return f"{col} {op} {_value(rng, kind)}"
        if form < 0.65:
            arms = rng.randint(2, 5)
            return "(" + " OR ".join(
                f"{col} = {_value(rng, kind)}" for __ in range(arms)) + ")"
        if form < 0.85:
            values = ", ".join(str(_value(rng, kind))
                               for __ in range(rng.randint(2, 4)))
            negated = "NOT " if rng.random() < 0.3 else ""
            return f"{col} {negated}IN ({values})"
        low = _value(rng, kind)
        return f"{col} >= {low} AND {col} < {low + rng.randint(1, 5)}"

    def _select(self, tables, conjuncts, distinct=None) -> str:
        rng = self.rng
        if distinct is None:
            distinct = rng.random() < 0.35
        head = "SELECT DISTINCT" if distinct else "SELECT"
        text = f"{head} {', '.join(self._projection(tables))} " \
               f"FROM {', '.join(tables)}"
        if conjuncts:
            text += " WHERE " + " AND ".join(conjuncts)
        return text

    # -- shapes ----------------------------------------------------------------
    def _filter(self) -> str:
        table = self.rng.choice(list(TABLES))
        conjuncts = [self._conjunct([table])
                     for __ in range(self.rng.randint(1, 3))]
        return self._select([table], conjuncts)

    def _join(self, width: int) -> str:
        rng = self.rng
        tables = rng.sample(list(TABLES), width)
        conjuncts = []
        for i, a in enumerate(tables):
            for b in tables[i + 1:]:
                pair = JOINS.get((a, b)) or JOINS.get((b, a))
                conjuncts.append(f"{pair[0]} = {pair[1]}")
        conjuncts = conjuncts[:width - 1]
        conjuncts += [self._conjunct(tables)
                      for __ in range(rng.randint(0, 2))]
        return self._select(tables, conjuncts)

    def _join2(self) -> str:
        return self._join(2)

    def _join3(self) -> str:
        return self._join(3)

    def _subquery(self) -> str:
        rng = self.rng
        outer, inner = rng.sample(list(TABLES), 2)
        pair = JOINS.get((outer, inner)) or JOINS.get((inner, outer))
        outer_col, inner_col = (pair if (outer, inner) in JOINS
                                else (pair[1], pair[0]))
        inner_where = [self._conjunct([inner])
                       for __ in range(rng.randint(0, 1))]
        form = rng.random()
        if form < 0.5:
            sub = f"SELECT {inner_col} FROM {inner}"
            if inner_where:
                sub += " WHERE " + " AND ".join(inner_where)
            negated = "NOT " if rng.random() < 0.25 else ""
            test = f"{outer_col} {negated}IN ({sub})"
        else:
            sub = (f"SELECT {inner_col} FROM {inner} WHERE "
                   + " AND ".join([f"{inner_col} = {outer_col}"]
                                  + inner_where))
            negated = "NOT " if form > 0.8 else ""
            test = f"{negated}EXISTS ({sub})"
        conjuncts = [test] + [self._conjunct([outer])
                              for __ in range(rng.randint(0, 1))]
        rng.shuffle(conjuncts)
        return self._select([outer], conjuncts)

    def _union(self) -> str:
        rng = self.rng
        table = rng.choice(list(TABLES))
        projection = self._projection([table])
        arms = []
        for __ in range(2):
            conjuncts = [self._conjunct([table])
                         for __ in range(rng.randint(1, 2))]
            arms.append(f"SELECT {', '.join(projection)} FROM {table} "
                        f"WHERE {' AND '.join(conjuncts)}")
        return " UNION ".join(arms)

    def _group(self) -> str:
        rng = self.rng
        table = rng.choice(list(TABLES))
        cols = TABLES[table]
        key, __ = rng.choice(cols)
        measure = rng.choice([c for c, __ in cols if c != key])
        conjuncts = [self._conjunct([table])
                     for __ in range(rng.randint(0, 2))]
        text = f"SELECT {key}, COUNT({measure}) FROM {table}"
        if conjuncts:
            text += " WHERE " + " AND ".join(conjuncts)
        return text + f" GROUP BY {key}"
