"""EventBus: subscription, filtering, the null-sink fast path, and
misbehaving-subscriber quarantine."""

import pytest

from repro.obs.bus import MAX_SUBSCRIBER_ERRORS, EventBus
from repro.obs.events import (BlockStart, PassEnd, RuleAttempt,
                              RuleFired, SubscriberDetached)
from repro.obs.metrics import MetricsRegistry


def fired(rule="r", block="b"):
    return RuleFired(block, rule, (), 3, 2, 0.001)


class TestSubscription:
    def test_delivery(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        event = fired()
        bus.emit(event)
        assert seen == [event]

    def test_kind_filter(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append, kinds=[RuleFired])
        bus.emit(BlockStart("b", 0, None, "applications"))
        bus.emit(fired())
        assert [type(e).__name__ for e in seen] == ["RuleFired"]

    def test_unsubscribe_by_handler(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        bus.unsubscribe(seen.append)
        bus.emit(fired())
        assert seen == []
        assert not bus.active

    def test_cancel_via_subscription_handle(self):
        bus = EventBus()
        seen = []
        sub = bus.subscribe(seen.append)
        sub.cancel()
        bus.emit(fired())
        assert seen == []

    def test_multiple_subscribers_all_called(self):
        bus = EventBus()
        a, b = [], []
        bus.subscribe(a.append)
        bus.subscribe(b.append)
        bus.emit(fired())
        assert len(a) == len(b) == 1


class TestNullSinkFastPath:
    def test_empty_bus_is_falsy(self):
        bus = EventBus()
        assert not bus
        assert not bus.active

    def test_bus_with_subscriber_is_truthy(self):
        bus = EventBus()
        bus.subscribe(lambda e: None)
        assert bus
        assert bus.active

    def test_engine_treats_empty_bus_as_none(self):
        """RewriteEngine normalises a subscriber-less bus to None, so
        the hot loop never constructs events."""
        from repro.rules.control import Block, RewriteEngine, Seq
        from repro.rules.rule import RuleContext
        from repro.terms.parser import parse_term

        engine = RewriteEngine(Seq([Block("empty", [])]), obs=EventBus())
        result = engine.rewrite(parse_term("F(1)"), RuleContext())
        assert result.applications == 0


class TestAccepts:
    def test_empty_bus_accepts_nothing(self):
        assert not EventBus().accepts([RuleFired])

    def test_union_of_subscriber_kinds(self):
        bus = EventBus()
        bus.subscribe(lambda e: None, kinds=[RuleFired])
        bus.subscribe(lambda e: None, kinds=[PassEnd])
        assert bus.accepts([RuleFired])
        assert bus.accepts([BlockStart, PassEnd])
        assert not bus.accepts([RuleAttempt, BlockStart])

    def test_unfiltered_subscriber_accepts_everything(self):
        bus = EventBus()
        bus.subscribe(lambda e: None, kinds=[RuleFired])
        sub = bus.subscribe(lambda e: None)
        assert bus.accepts([RuleAttempt])
        sub.cancel()
        assert not bus.accepts([RuleAttempt])

    def test_unsubscribe_shrinks_the_union(self):
        bus = EventBus()
        handler = [].append
        bus.subscribe(handler, kinds=[RuleAttempt])
        assert bus.accepts([RuleAttempt])
        bus.unsubscribe(handler)
        assert not bus.accepts([RuleAttempt])

    def test_engine_ignores_bus_without_rewrite_subscribers(self):
        """A bus whose only subscriber wants non-rewrite kinds is
        treated as absent: no rule events, no clock reads."""
        from repro.obs.events import RequestCompleted
        from repro.rules.control import Block, RewriteEngine, Seq
        from repro.rules.rule import RuleContext, rule_from_text
        from repro.terms.parser import parse_term

        bus = EventBus()
        seen = []
        bus.subscribe(seen.append, kinds=[RequestCompleted])
        block = Block("b", [rule_from_text("shrink: P(P(x)) --> P(x)")])
        result = RewriteEngine(Seq([block]), obs=bus).rewrite(
            parse_term("P(P(P(1)))"), RuleContext())
        assert result.applications == 2
        assert [e.duration for e in result.trace] == [0.0, 0.0]
        assert seen == []


class TestQuarantine:
    def test_failing_subscriber_dropped_after_threshold(self):
        bus = EventBus()

        def bad(event):
            raise RuntimeError("sink bug")

        seen = []
        bus.subscribe(bad)
        bus.subscribe(seen.append)
        for __ in range(MAX_SUBSCRIBER_ERRORS + 2):
            bus.emit(fired())
        # the good subscriber kept receiving every RuleFired; the bad
        # one was dropped, which the survivor was told about
        rule_events = [e for e in seen if isinstance(e, RuleFired)]
        assert len(rule_events) == MAX_SUBSCRIBER_ERRORS + 2
        assert len(bus._subscriptions) == 1

    def test_detachment_is_observable(self):
        metrics = MetricsRegistry()
        bus = EventBus(metrics=metrics)

        def bad(event):
            raise RuntimeError("sink bug")

        seen = []
        bus.subscribe(bad)
        bus.subscribe(seen.append)
        for __ in range(MAX_SUBSCRIBER_ERRORS):
            bus.emit(fired())
        detached = [e for e in seen if isinstance(e, SubscriberDetached)]
        assert len(detached) == 1
        assert detached[0].errors == MAX_SUBSCRIBER_ERRORS
        assert "bad" in detached[0].handler
        assert metrics.value("obs.subscribers.detached") == 1

    def test_detached_counter_without_remaining_subscribers(self):
        metrics = MetricsRegistry()
        bus = EventBus(metrics=metrics)

        def bad(event):
            raise RuntimeError("sink bug")

        bus.subscribe(bad)
        for __ in range(MAX_SUBSCRIBER_ERRORS):
            bus.emit(fired())
        assert not bus.active
        assert metrics.value("obs.subscribers.detached") == 1

    def test_success_resets_error_count(self):
        bus = EventBus()
        calls = []

        def flaky(event):
            calls.append(event)
            if isinstance(event, PassEnd):
                raise RuntimeError("only passes fail")

        bus.subscribe(flaky)
        for __ in range(MAX_SUBSCRIBER_ERRORS * 3):
            bus.emit(PassEnd(0, True, 0.0))  # fails
            bus.emit(fired())                # succeeds, resets
        assert bus.active


class TestEventSurface:
    def test_as_dict_includes_event_name(self):
        data = fired().as_dict()
        assert data["event"] == "RuleFired"
        assert data["size_before"] == 3

    def test_attempt_fields(self):
        event = RuleAttempt("merge", "search_merge", (1, 2), True, 0.5)
        assert event.field_names() == (
            "block", "rule", "path", "matched", "duration"
        )

    def test_events_are_frozen(self):
        with pytest.raises(Exception):
            fired().rule = "other"
