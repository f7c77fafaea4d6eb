"""The plan cache: a repeated statement text reuses its optimized plan.

The paper's rewriter runs at compile time, and section 7 warns that
rewrite time is time a query pays before it runs.  A statement text
seen before -- under the same rewrite flag, against the same catalog
and rule set -- rewrites to the same plan, so
:meth:`Database.query <repro.engine.database.Database.query>` keeps
the final plans of recent texts in this bounded LRU and skips parse,
translate, both typechecks and the rewrite on a hit.

Each entry carries the *stamp* it was optimized under (optimizer
identity, catalog epoch, rewriter stamp, quarantine version); a lookup
whose current stamp differs drops the entry and counts a miss plus an
invalidation.  Entries are slim: the final plan, the number of rule
firings, and the provenance entries the rewrite ledger recorded on the
miss -- enough to replay what observers see (``sys.statements``,
``sys.rewrites``, ``sys.rule_heat``) without keeping the whole
:class:`~repro.core.optimizer.OptimizedQuery` alive.

The key is the exact source text, not its ``$n`` template: a plan
rewritten with placeholders equals the rewrite of the concrete
statement only for rules whose firing never depends on a constant's
value, and several standard rules (``gt_tighten``, ``eq_neq_clash``,
``EVALUATE`` folding) do depend on it.

Thread-safe: served readers look up and fill the cache concurrently
under the database's shared guard.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from repro.terms.term import Term

__all__ = ["PlanCache", "CachedPlan", "CAPACITY"]

# entries kept; the least recently used one is evicted past this
CAPACITY = 256


@dataclass(frozen=True)
class CachedPlan:
    """One cached optimization: the final (typechecked) plan, the
    number of rule firings, and the rewrite ledger's provenance
    entries for them."""

    stamp: tuple
    plan: Term
    firings: int
    provenance: tuple


class PlanCache:
    """A bounded, thread-safe LRU of :class:`CachedPlan` entries keyed
    on ``(source text, rewrite flag)``."""

    def __init__(self):
        self.capacity = CAPACITY
        self._lock = threading.Lock()
        self._entries: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def get(self, key: tuple, stamp: tuple) -> Optional[CachedPlan]:
        """The entry under ``key`` when it was stored under ``stamp``;
        None (a miss) otherwise.  A stale entry is dropped."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                if entry.stamp == stamp:
                    self._entries.move_to_end(key)
                    self.hits += 1
                    return entry
                del self._entries[key]
                self.invalidations += 1
            self.misses += 1
            return None

    def put(self, key: tuple, entry: CachedPlan) -> None:
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def peek(self, key: tuple) -> Optional[CachedPlan]:
        """The entry under ``key``, stale or not, without touching the
        counters or the LRU order (for checks and tests)."""
        with self._lock:
            return self._entries.get(key)

    def stats(self) -> dict:
        """The counters of ``sys.plan_cache``, in its column order."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
            }
