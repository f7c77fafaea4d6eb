"""Persistent rule quarantine: unsound rules stay benched.

The per-rewrite :class:`~repro.resilience.policy.ResilienceRuntime`
already quarantines a rule *within one rewrite* (crashes past the
failure threshold, checked-mode blame).  This registry is the layer
above: owned by the :class:`~repro.engine.database.Database`, it
outlives individual statements and optimizer regenerations, and every
subsequent rewrite starts with its rules pre-quarantined -- so once a
rule is caught changing an answer, *no* later statement lets it fire
again, checked or not.

Entries carry provenance (who benched the rule and why) and surface as
the ``sys.quarantine`` introspection relation.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

__all__ = ["QuarantineEntry", "QuarantineRegistry"]


@dataclass(frozen=True)
class QuarantineEntry:
    """One benched rule and the evidence that benched it."""

    rule: str
    block: str
    source: str   # "checked" | "fuzz" | "manual"
    detail: str
    benched_at: float

    def as_dict(self) -> dict:
        return {
            "rule": self.rule, "block": self.block,
            "source": self.source, "detail": self.detail,
            "benched_at": self.benched_at,
        }


class QuarantineRegistry:
    """Thread-safe set of rule names banned from rewriting.

    ``note`` is the callback shape the resilience policy's
    ``quarantine_sink`` expects, so a registry can be handed to a
    policy directly.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._entries: dict[str, QuarantineEntry] = {}
        # bumped whenever the benched set changes (plan caches compare it)
        self.version = 0

    def note(self, block: str, rule: str, detail: str,
             source: str = "checked") -> None:
        """Bench ``rule``; later notes for the same rule are ignored
        (the first confirmed divergence is the evidence that counts)."""
        with self._lock:
            if rule in self._entries:
                return
            self._entries[rule] = QuarantineEntry(
                rule=rule, block=block, source=source, detail=detail,
                benched_at=time.time(),
            )
            self.version += 1

    def lift(self, rule: str) -> bool:
        """Un-bench a rule (operator override); True when it was benched."""
        with self._lock:
            if self._entries.pop(rule, None) is None:
                return False
            self.version += 1
            return True

    def rules(self) -> frozenset:
        with self._lock:
            return frozenset(self._entries)

    def entries(self) -> list[QuarantineEntry]:
        with self._lock:
            return sorted(self._entries.values(), key=lambda e: e.rule)

    def __contains__(self, rule: str) -> bool:
        with self._lock:
            return rule in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __bool__(self) -> bool:
        return len(self) > 0
