"""The rewrite fast path changes no plan.

The engine offers each position only the rules indexed under its root
functor and remembers, per rewrite, where no rule of a block applies.
Both are pure speedups: over the committed qa corpus plus a fixed-seed
set of generated statements, the saturated standard blocks must give
the same final plan, trace and application count as the same blocks
counted by checks, which keeps no memo.
"""

from pathlib import Path
from random import Random

import pytest

from repro import Database
from repro.lera.typecheck import typecheck
from repro.qa.corpus import load_corpus
from repro.qa.oracle import memo_divergence
from repro.qa.query_gen import random_query
from repro.qa.schema_gen import Case, random_schema
from repro.rules.antipattern import antipattern_block
from repro.rules.control import Block, RewriteEngine, Seq
from repro.rules.library import standard_seq
from repro.terms.term import Fun, walk

CORPUS_DIR = Path(__file__).resolve().parent.parent / "qa_corpus"

SEED = 20261017
SCHEMAS = 10
QUERIES_PER_SCHEMA = 50

REACH_SETUP = (
    "TABLE EDGE (Src : NUMERIC, Dst : NUMERIC, Cost : NUMERIC); "
    "CREATE VIEW REACH (Src, Dst) AS "
    "( SELECT Src, Dst FROM EDGE UNION "
    "SELECT R.Src, E.Dst FROM REACH R, EDGE E WHERE R.Dst = E.Src )"
)
REACH_QUERIES = (
    "SELECT Dst FROM REACH WHERE Src = 3",
    "SELECT Src FROM REACH WHERE Dst = 7 AND Src > 1",
    "SELECT R.Dst FROM REACH R, EDGE E WHERE R.Src = E.Dst AND E.Cost < 5",
)


def _workload():
    """(database, [typed query terms]) groups: the corpus, recursive
    views, then the generated statements."""
    groups = []

    def add(db, queries):
        terms = []
        for query in queries:
            term = db._translate_single(query)
            terms.append(typecheck(term, db.catalog)[0])
        groups.append((db, terms))

    for __, case in load_corpus(CORPUS_DIR):
        db = Database(antipattern=True)
        db.execute(case.setup_script())
        add(db, [case.query])

    db = Database(antipattern=True)
    db.execute(REACH_SETUP)
    add(db, REACH_QUERIES)

    rng = Random(SEED)
    for __ in range(SCHEMAS):
        tables = random_schema(rng, max_rows=2)
        db = Database(antipattern=True)
        db.execute(Case(tables=tables, query="").setup_script())
        add(db, [random_query(rng, tables).sql()
                 for __ in range(QUERIES_PER_SCHEMA)])
    return groups


@pytest.fixture(scope="module")
def workload():
    return _workload()


def test_workload_size(workload):
    generated = sum(len(terms) for __, terms in workload)
    assert generated >= SCHEMAS * QUERIES_PER_SCHEMA + len(REACH_QUERIES)


def test_memo_changes_no_plan(workload):
    problems = []
    for db, terms in workload:
        rewriter = db.optimizer.rewriter
        for typed in terms:
            problem = memo_divergence(rewriter, typed)
            if problem is not None:
                problems.append(problem)
    assert problems == []


def test_memo_skips_checks(workload):
    """The memo does work: saturating the standard blocks evaluates
    fewer rule conditions with it than without it."""
    db, terms = workload[-1]
    rewriter = db.optimizer.rewriter
    totals = []
    for count in ("applications", "checks"):
        seq = Seq([Block(b.name, b.rules, None, count)
                   for b in rewriter.seq.blocks],
                  passes=rewriter.seq.passes)
        engine = RewriteEngine(seq)
        totals.append(sum(engine.rewrite(t, rewriter.context()).checks
                          for t in terms))
    memoized, plain = totals
    assert memoized < plain


def _subterms(workload):
    seen = set()
    for db, terms in workload:
        rewriter = db.optimizer.rewriter
        for typed in terms:
            result = rewriter.rewrite(typed)
            roots = [typed, result.term]
            for entry in result.trace:
                roots.extend((entry.before, entry.after))
            for root in roots:
                seen.update(walk(root))
    return seen


def test_index_offers_every_quick_applicable_rule(workload):
    """The root-functor index only drops rules whose quick check could
    never accept: for every standard rule and every subterm of the
    workload's plans, quick_applicable implies candidacy."""
    blocks = standard_seq().blocks + [antipattern_block()]
    misses = []
    for sub in _subterms(workload):
        key = sub.name if isinstance(sub, Fun) else None
        for block in blocks:
            candidates = block.rule_index()[key]
            for rule in block.rules:
                if rule.quick_applicable(sub) and rule not in candidates:
                    misses.append((block.name, rule.name, key))
    assert misses == []


def test_index_follows_rule_edits():
    block = standard_seq().blocks[0]
    before = block.rule_index()
    extra = antipattern_block().rules[0]
    block.rules.append(extra)
    after = block.rule_index()
    assert after is not before
    assert extra in after[extra.lhs.name]


def test_memo_key_includes_enclosing_relations():
    """One qualification term under two inputs of different types: a
    domain constraint applies under one of them only, so a memo hit
    must not carry over between them.  (The UNION's SET sorts the
    CODES branch first, so it is scanned and memoized first.)"""
    db = Database()
    db.execute("TYPE Category ENUMERATION OF ('A', 'B')")
    db.execute("TABLE ITEM (Id : NUMERIC, Cat : Category)")
    db.execute("TABLE CODES (Id : NUMERIC, Code : CHAR)")
    db.add_integrity_constraint(
        "ic: F(x) / ISA(x, Category) "
        "--> F(x) AND MEMBER(x, MAKESET('A', 'B')) /"
    )
    db.execute("INSERT INTO CODES VALUES (1, 'Z')")
    query = ("SELECT Id FROM ITEM WHERE Cat = 'Z' "
             "UNION SELECT Id FROM CODES WHERE Code = 'Z'")
    typed = typecheck(db._translate_single(query), db.catalog)[0]
    assert memo_divergence(db.optimizer.rewriter, typed) is None
    result = db.optimizer.rewriter.rewrite(typed)
    assert "ic" in result.rules_fired()
    assert db.query(query).rows == [(1,)]
