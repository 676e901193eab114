"""TenantQueues fairness properties.

These are pure data-structure tests — no planner, no processes. The
fleet's determinism and fairness guarantees reduce to invariants here:
per-baseline submission order outranks fairness, and stride passes
equalize dispatch rates.
"""

import pytest

from repro.errors import ConfigurationError, QueueFullError
from repro.service import TenantQueues


class TestValidation:
    def test_rejects_bad_capacity(self):
        with pytest.raises(ConfigurationError):
            TenantQueues(max_per_tenant=0)


class TestBoundedQueue:
    def test_sheds_at_capacity(self):
        q = TenantQueues(max_per_tenant=2)
        q.push("a", 0, "j1")
        q.push("a", 0, "j2")
        with pytest.raises(QueueFullError):
            q.push("a", 0, "j3")
        # Other tenants are unaffected by one tenant's full queue.
        q.push("b", 0, "j4")
        assert len(q) == 3
        assert q.depths() == {"a": 2, "b": 1}


class TestBaselineOrder:
    def test_only_oldest_per_baseline_is_eligible(self):
        q = TenantQueues()
        first = q.push("a", 0, "d1", baseline="b0")
        second = q.push("b", 0, "d2", baseline="b0")
        # Tenant b has the lower pass? Both are fresh (pass 0); ties go
        # by name, so tenant a wins anyway — but even if b were
        # preferred, its item is ineligible while first is queued.
        assert q.pop_for_shard(0) is first
        assert q.pop_for_shard(0) is second

    def test_cross_tenant_baseline_order_beats_fairness(self):
        q = TenantQueues()
        # Both passes are 0 and ties go by name, so fairness alone would
        # pick tenant "a"; the older job for the baseline goes first.
        older = q.push("b", 0, "d1", baseline="b0")
        newer = q.push("a", 0, "d2", baseline="b0")
        assert q.pop_for_shard(0) is older
        assert q.pop_for_shard(0) is newer

    def test_shard_pinning(self):
        q = TenantQueues()
        other = q.push("a", 1, "j1")
        mine = q.push("a", 0, "j2")
        assert q.pop_for_shard(0) is mine
        assert q.pop_for_shard(0) is None
        assert q.pop_for_shard(1) is other


class TestStrideFairness:
    def test_flooding_tenant_does_not_crowd_out_trickle(self):
        q = TenantQueues()
        for i in range(10):
            q.push("flood", 0, f"f{i}", baseline=f"bf{i}")
        q.push("trickle", 0, "t0", baseline="bt0")
        order = [q.pop_for_shard(0).tenant for _ in range(3)]
        # After one flood dispatch its pass rises, so
        # the trickle job goes no later than second.
        assert "trickle" in order[:2]

    def test_vtime_resync_blocks_banked_credit(self):
        q = TenantQueues()
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
