"""Per-tenant bounded FIFO queues with fair selection.

The planning scheduler's front end. Each tenant owns a bounded FIFO deque;
selection across tenants is *stride scheduling* with equal strides:
every tenant carries a ``pass`` value, dispatching a tenant's job
advances its pass by 1, and the eligible tenant with the smallest pass
goes next. A tenant submitting twice the jobs therefore gets served at
the same *rate* as its peers, not twice as often — the flooding tenant
queues behind itself, the trickle tenant's jobs are picked almost
immediately. Within a tenant the oldest eligible job leaves first.

A tenant going idle and returning has its pass forwarded to the current
virtual time (*virtual-time resync*), so it cannot bank credit while
idle and then monopolize the workers.

The structure is deliberately *pure*: no locks (the owning service
serializes access under its own condition variable), so fairness
properties are unit-testable without a service.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Optional

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
    baseline: Optional[str] = None
    payload: Any = None


@dataclass
class TenantState:
    """One tenant's queue plus its stride-scheduling pass value."""

    name: str
    items: Deque[QueuedItem] = field(default_factory=deque)
    pass_value: int = 0


class TenantQueues:
    """Bounded per-tenant FIFOs with fair, shard-aware pop.

    ``pop_for_shard`` only considers items pinned to the asking shard
    (every job for a baseline runs on that baseline's shard, preserving
    per-baseline submission order); fairness is arbitrated *across*
    tenants among those eligible items.
    """

    def __init__(self, max_per_tenant: int = 256) -> None:
        if max_per_tenant < 1:
            raise ConfigurationError("max_per_tenant must be >= 1")
        self.max_per_tenant = max_per_tenant
        self._tenants: Dict[str, TenantState] = {}
        self._seq = 0
        self._vtime = 0

    # -- introspection --------------------------------------------------- #

    def __len__(self) -> int:
        return sum(len(t.items) for t in self._tenants.values())

    def depths(self) -> Dict[str, int]:
        return {
            name: len(state.items)
            for name, state in sorted(self._tenants.items())
            if state.items
        }

    # -- mutation -------------------------------------------------------- #

    def _state(self, tenant: str) -> TenantState:
        state = self._tenants.get(tenant)
        if state is None:
            state = self._tenants[tenant] = TenantState(name=tenant)
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
            seq=self._seq, tenant=tenant, shard=shard, baseline=baseline, payload=payload
        )
        state.items.append(item)
        return item

    def pop_for_shard(self, shard: int) -> Optional[QueuedItem]:
        """Dispatch the next item for this shard, or None.

        An item is eligible only when it is the oldest queued item for
        its baseline — per-baseline submission order is the scheduler's
        determinism contract and outranks fairness. Each tenant offers
        its oldest eligible item; the tenant with the smallest pass
        (ties by name) goes next.
        """
        oldest_for_baseline: Dict[str, int] = {}
        for state in self._tenants.values():
            for item in state.items:
                if item.baseline is None:
                    continue
                prev = oldest_for_baseline.get(item.baseline)
                if prev is None or item.seq < prev:
                    oldest_for_baseline[item.baseline] = item.seq
        pick: Optional[QueuedItem] = None
        pick_state: Optional[TenantState] = None
        for name in sorted(self._tenants):
            state = self._tenants[name]
            if pick_state is not None and state.pass_value >= pick_state.pass_value:
                continue
            for item in state.items:
                if item.shard == shard and (
                    item.baseline is None
                    or oldest_for_baseline[item.baseline] == item.seq
                ):
                    pick, pick_state = item, state
                    break
        if pick is None:
            return None
        pick_state.items.remove(pick)
        pick_state.pass_value += 1
        self._vtime = max(self._vtime, pick_state.pass_value)
        return pick
