"""TenantQueues fairness properties with an injectable fake clock.

These are pure data-structure tests — no planner, no processes. The
fleet's determinism and starvation guarantees reduce to invariants
here: per-baseline submission order outranks fairness, stride passes
equalize dispatch rates, aged items win outright, and cheap items are
preferred within a tenant (the preemption contract).
"""

import pytest

from repro.errors import ConfigurationError, QueueFullError
from repro.service import TenantQueues


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def make(clock=None, **kwargs):
    kwargs.setdefault("aging_threshold", 30.0)
    return TenantQueues(clock=clock or FakeClock(), **kwargs)


class TestValidation:
    def test_rejects_bad_capacity(self):
        with pytest.raises(ConfigurationError):
            make(max_per_tenant=0)

    def test_rejects_bad_aging(self):
        with pytest.raises(ConfigurationError):
            make(aging_threshold=0)


class TestBoundedQueue:
    def test_sheds_at_capacity(self):
        q = make(max_per_tenant=2)
        q.push("a", 0, "j1")
        q.push("a", 0, "j2")
        with pytest.raises(QueueFullError):
            q.push("a", 0, "j3")
        # Other tenants are unaffected by one tenant's full queue.
        q.push("b", 0, "j4")
        assert len(q) == 3
        assert q.depths() == {"a": 2, "b": 1}

    def test_push_front_skips_shed_check(self):
        q = make(max_per_tenant=1)
        item = q.push("a", 0, "j1")
        assert q.pop_for_shard(0) is item
        q.push("a", 0, "j2")
        # Requeueing the dispatched item must not shed even though the
        # tenant is nominally full again.
        q.push_front(item)
        assert q.depth("a") == 2
        assert q.pop_for_shard(0) is item


class TestBaselineOrder:
    def test_only_oldest_per_baseline_is_eligible(self):
        q = make()
        first = q.push("a", 0, "d1", baseline="b0")
        second = q.push("b", 0, "d2", baseline="b0")
        # Tenant b has the lower pass? Both are fresh (pass 0); ties go
        # by name, so tenant a wins anyway — but even if b were
        # preferred, its item is ineligible while first is queued.
        assert q.pop_for_shard(0) is first
        assert q.pop_for_shard(0) is second

    def test_cross_tenant_baseline_order_beats_fairness(self):
        q = make()
        # Both passes are 0 and ties go by name, so fairness alone would
        # pick tenant "a"; the older job for the baseline goes first.
        older = q.push("b", 0, "d1", baseline="b0")
        newer = q.push("a", 0, "d2", baseline="b0")
        assert q.pop_for_shard(0) is older
        assert q.pop_for_shard(0) is newer

    def test_shard_pinning(self):
        q = make()
        other = q.push("a", 1, "j1")
        mine = q.push("a", 0, "j2")
        assert q.pop_for_shard(0) is mine
        assert q.pop_for_shard(0) is None
        assert q.pop_for_shard(1) is other


class TestStrideFairness:
    def test_flooding_tenant_does_not_crowd_out_trickle(self):
        q = make()
        for i in range(10):
            q.push("flood", 0, f"f{i}", baseline=f"bf{i}")
        q.push("trickle", 0, "t0", baseline="bt0")
        order = [q.pop_for_shard(0).tenant for _ in range(3)]
        # After one flood dispatch its pass rises, so
        # the trickle job goes no later than second.
        assert "trickle" in order[:2]

    def test_vtime_resync_blocks_banked_credit(self):
        q = make()
        for i in range(4):
            q.push("busy", 0, f"b{i}", baseline=f"bb{i}")
        for _ in range(4):
            assert q.pop_for_shard(0).tenant == "busy"
        # "idle" never queued while busy advanced the virtual clock; on
        # arrival its pass is forwarded, so it cannot claim the next 4
        # slots as "owed".
        q.push("idle", 0, "i0", baseline="bi0")
        q.push("idle", 0, "i1", baseline="bi1")
        q.push("busy", 0, "b4", baseline="bb4")
        picks = [q.pop_for_shard(0).tenant for _ in range(3)]
        assert picks.count("idle") == 2
        assert picks.count("busy") == 1
        # But not all-idle-first: busy is served within the window.
        assert picks[2] == "busy" or "busy" in picks[:2]


class TestAging:
    def test_aged_item_wins_outright(self):
        clock = FakeClock()
        q = make(clock=clock, aging_threshold=5.0)
        starved = q.push("pleb", 0, "p0", baseline="bp")
        clock.advance(6.0)
        # Equal passes, and "fresh" wins the tie by name: only aging
        # puts the starved job first.
        for i in range(3):
            q.push("fresh", 0, f"v{i}", baseline=f"bv{i}")
        assert q.pop_for_shard(0) is starved
        assert q.aged_promotions == 1
        assert q.stats()["aged_promotions"] == 1

    def test_fresh_items_do_not_age(self):
        clock = FakeClock()
        q = make(clock=clock, aging_threshold=5.0)
        q.push("a", 0, "a0", baseline="ba")
        clock.advance(1.0)
        q.pop_for_shard(0)
        assert q.aged_promotions == 0

    def test_aged_picks_oldest_first(self):
        clock = FakeClock()
        q = make(clock=clock, aging_threshold=2.0)
        first = q.push("a", 0, "a0", baseline="ba")
        second = q.push("b", 0, "b0", baseline="bb")
        clock.advance(3.0)
        assert q.pop_for_shard(0) is first
        assert q.pop_for_shard(0) is second
        assert q.aged_promotions == 2


class TestCheapPreference:
    def test_cheap_item_jumps_heavy_within_tenant(self):
        q = make()
        q.push("a", 0, "full", baseline="b-heavy")
        cheap = q.push("a", 0, "incr", baseline="b-cheap")
        cheap.cost_class = "cheap"
        assert q.peek_eligible(0) is cheap
        assert q.pop_for_shard(0) is cheap

    def test_cheap_preference_respects_baseline_order(self):
        q = make()
        older = q.push("a", 0, "incr-1", baseline="b0")
        newer = q.push("a", 0, "incr-2", baseline="b0")
        older.cost_class = "cheap"
        newer.cost_class = "cheap"
        # Same baseline: only the oldest is eligible, cheap or not.
        assert q.pop_for_shard(0) is older
        assert q.pop_for_shard(0) is newer

    def test_peek_does_not_mutate(self):
        q = make()
        item = q.push("a", 0, "j", baseline="b0")
        assert q.peek_eligible(0) is item
        assert q.peek_eligible(0) is item
        assert len(q) == 1
        assert q.aged_promotions == 0
        assert q.pop_for_shard(0) is item
