"""Per-tenant bounded queues with weighted fair selection and aging.

The planning scheduler's front end. Each tenant owns a bounded FIFO deque;
selection across tenants is *stride scheduling*: every tenant carries a
``pass`` value, dispatching a tenant's job advances its pass by
``1 / weight``, and the eligible tenant with the smallest pass goes
next. A tenant submitting twice the jobs therefore gets served at the
same *rate* as its peers (per unit weight), not twice as often — the
flooding tenant queues behind itself, the trickle tenant's jobs are
picked almost immediately.

Two fairness escape hatches:

* **Starvation aging** — any job older than ``aging_threshold`` seconds
  is promoted to absolute priority (oldest first, by submission
  sequence), bounding worst-case wait even under adversarial weights.
* **Virtual-time resync** — a tenant going idle and returning has its
  pass forwarded to the current virtual time, so it cannot bank credit
  while idle and then monopolize the workers.

The structure is deliberately *pure*: no locks (the owning service
serializes access under its own condition variable) and an injectable
clock, so fairness properties are unit-testable with a fake clock.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional

from repro.errors import ConfigurationError, QueueFullError


@dataclass
class QueuedItem:
    """One queued unit of work, annotated for shard-aware selection.

    ``baseline`` keys the determinism constraint: among queued items
    sharing a baseline, only the oldest (smallest ``seq``) is eligible,
    so a baseline's deltas always execute in submission order no matter
    how fair selection interleaves tenants. ``None`` opts out (internal
    ops like checkpoints).
    """

    seq: int
    tenant: str
    shard: int
    enqueued_at: float
    baseline: Optional[str] = None
    payload: Any = None
    #: "cheap" (incremental delta) or "heavy" (full plan). Within a
    #: tenant the oldest *cheap* eligible item is preferred over heavy
    #: ones — the preemption mechanism depends on the next-up item
    #: actually being the cheap job that triggered the preemption.
    cost_class: str = "heavy"

    def age(self, now: float) -> float:
        return max(0.0, now - self.enqueued_at)


@dataclass
class TenantState:
    """One tenant's queue plus its stride-scheduling pass value."""

    name: str
    weight: float
    items: Deque[QueuedItem] = field(default_factory=deque)
    pass_value: float = 0.0
    dispatched: int = 0

    @property
    def stride(self) -> float:
        return 1.0 / self.weight


class TenantQueues:
    """Bounded per-tenant FIFOs with weighted fair, shard-aware pop.

    ``pop_for_shard`` only considers items pinned to the asking shard
    (every job for a baseline runs on that baseline's shard, preserving
    per-baseline submission order); fairness is arbitrated *across*
    tenants among those eligible items.
    """

    def __init__(
        self,
        max_per_tenant: int = 256,
        weights: "Dict[str, float] | None" = None,
        aging_threshold: float = 30.0,
        clock: "Callable[[], float] | None" = None,
    ) -> None:
        if max_per_tenant < 1:
            raise ConfigurationError("max_per_tenant must be >= 1")
        if aging_threshold <= 0:
            raise ConfigurationError("aging_threshold must be > 0")
        for tenant, weight in (weights or {}).items():
            if weight <= 0:
                raise ConfigurationError(
                    f"tenant {tenant!r} weight must be > 0, got {weight}"
                )
        self.max_per_tenant = max_per_tenant
        self.aging_threshold = aging_threshold
        self._weights = dict(weights or {})
        self._clock = clock or time.monotonic
        self._tenants: Dict[str, TenantState] = {}
        self._seq = 0
        self._vtime = 0.0
        self.aged_promotions = 0

    # -- introspection --------------------------------------------------- #

    def __len__(self) -> int:
        return sum(len(t.items) for t in self._tenants.values())

    def depth(self, tenant: str) -> int:
        state = self._tenants.get(tenant)
        return len(state.items) if state is not None else 0

    def depths(self) -> Dict[str, int]:
        return {
            name: len(state.items)
            for name, state in sorted(self._tenants.items())
            if state.items
        }

    def tenants(self) -> List[str]:
        return sorted(self._tenants)

    # -- mutation -------------------------------------------------------- #

    def _state(self, tenant: str) -> TenantState:
        state = self._tenants.get(tenant)
        if state is None:
            state = TenantState(
                name=tenant, weight=self._weights.get(tenant, 1.0)
            )
            self._tenants[tenant] = state
        return state

    def push(
        self,
        tenant: str,
        shard: int,
        payload: Any,
        baseline: Optional[str] = None,
    ) -> QueuedItem:
        """Enqueue at the tenant's tail; sheds when the tenant is full."""
        state = self._state(tenant)
        if len(state.items) >= self.max_per_tenant:
            raise QueueFullError(
                f"tenant {tenant!r} queue full "
                f"({self.max_per_tenant} jobs); shed"
            )
        if not state.items:
            # Re-entering tenant: forward its pass to the current virtual
            # time so idle periods do not accumulate scheduling credit.
            state.pass_value = max(state.pass_value, self._vtime)
        self._seq += 1
        item = QueuedItem(
            seq=self._seq,
            tenant=tenant,
            shard=shard,
            enqueued_at=self._clock(),
            baseline=baseline,
        )
        item.payload = payload
        state.items.append(item)
        return item

    def push_front(self, item: QueuedItem) -> None:
        """Requeue a preempted item at its tenant's head (no shed check).

        The item was already the oldest queued work for its baseline
        when it was dispatched, so head insertion preserves per-baseline
        FIFO order; capacity is not re-checked because the slot it
        vacated on dispatch is being returned, not newly claimed.
        """
        self._state(item.tenant).items.appendleft(item)

    def _select(self, shard: int) -> "Tuple[Optional[QueuedItem], bool]":
        """The item ``pop_for_shard`` would dispatch next (no mutation).

        Returns ``(item, aged)``. An item is eligible only when it is
        the oldest queued item for its baseline — per-baseline
        submission order is the scheduler's determinism contract and
        outranks fairness. Within a tenant, the oldest eligible *cheap*
        item is preferred over older heavy ones (reordering across
        baselines only, so signature-neutral) — otherwise a preempted
        full plan requeued at the tenant's head would immediately
        out-queue the cheap job that preempted it, and preemption would
        livelock. Aged items (older than ``aging_threshold``) win
        outright, oldest first; else the eligible tenant with the
        smallest stride pass (ties by name) goes next.
        """
        now = self._clock()
        oldest_for_baseline: Dict[str, int] = {}
        for state in self._tenants.values():
            for item in state.items:
                if item.baseline is None:
                    continue
                prev = oldest_for_baseline.get(item.baseline)
                if prev is None or item.seq < prev:
                    oldest_for_baseline[item.baseline] = item.seq
        aged_pick: Optional[QueuedItem] = None
        fair_pick: Optional[QueuedItem] = None
        fair_state: Optional[TenantState] = None
        for name in sorted(self._tenants):
            state = self._tenants[name]
            first_any: Optional[QueuedItem] = None
            first_cheap: Optional[QueuedItem] = None
            for i in state.items:
                if i.shard != shard or (
                    i.baseline is not None
                    and oldest_for_baseline[i.baseline] != i.seq
                ):
                    continue
                if first_any is None:
                    first_any = i
                if i.cost_class == "cheap":
                    first_cheap = i
                    break
            if first_any is None:
                continue
            # The starvation bound applies to the *oldest* eligible item
            # even when cheap preference would bypass it.
            if first_any.age(now) > self.aging_threshold and (
                aged_pick is None or first_any.seq < aged_pick.seq
            ):
                aged_pick = first_any
            candidate = first_cheap if first_cheap is not None else first_any
            if fair_state is None or state.pass_value < fair_state.pass_value:
                fair_pick, fair_state = candidate, state
        if aged_pick is not None:
            return aged_pick, True
        return fair_pick, False

    def peek_eligible(self, shard: int) -> Optional[QueuedItem]:
        """What ``pop_for_shard`` would return, without dispatching it.

        The scheduler's preemption trigger: a running full plan is only
        aborted when the very next item its shard would execute is a
        cheap incremental job.
        """
        pick, _ = self._select(shard)
        return pick

    def pop_for_shard(self, shard: int) -> Optional[QueuedItem]:
        """Dispatch the next item for this shard, or None (see
        :meth:`_select` for the selection policy)."""
        pick, aged = self._select(shard)
        if pick is None:
            return None
        if aged:
            self.aged_promotions += 1
        state = self._tenants[pick.tenant]
        state.items.remove(pick)
        state.pass_value += state.stride
        state.dispatched += 1
        self._vtime = max(self._vtime, state.pass_value)
        return pick

    def stats(self) -> Dict[str, Any]:
        return {
            "depths": self.depths(),
            "aged_promotions": self.aged_promotions,
            "dispatched": {
                name: state.dispatched
                for name, state in sorted(self._tenants.items())
                if state.dispatched
            },
        }
