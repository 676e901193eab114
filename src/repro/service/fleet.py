"""The sharded multi-process planning fleet.

``FleetPlanningService`` fans planning out over N forked worker
processes (:class:`repro.parallel.pool.PoolWorker` — the same
pipe/kill/respawn containment the sweep executor's pool uses), each
owning a *shard* of baselines. The parent process is authoritative only
for cheap, replayable metadata per baseline — the chain-root
:class:`~repro.service.jobs.ScenarioSpec`, the incremental deltas
committed since that root, and the committed signature — while the
materialized :class:`~repro.service.engine.PlanState` lives in the
shard worker's memory. A worker that loses its state (fresh fork after
a respawn, a preempted rebuild) re-materializes it deterministically:
full-plan the root, replay the chain, verify the committed signature.
Job replies carry only signatures and small stat dicts; no plan crosses
the pipe.

Scheduling (:class:`repro.service.tenant.TenantQueues`): per-tenant
bounded queues, stride-weighted fair selection, starvation aging, and
cooperative preemption — when the next eligible item for a shard is a
cheap incremental delta and the shard is mid-way through a long full
plan, the parent raises the shard's byte in a control array every
shard inherits at fork (respawns included); the engine's
``abort_check`` notices between nets, the attempt unwinds (nothing was
committed), and the job is requeued at the head of its tenant queue.

Determinism contract: jobs against one baseline execute in submission
order on that baseline's shard, and every plan/replan call is the same
deterministic engine code the single-process scheduler runs — so final
baseline signatures are byte-identical to a :class:`PlanningService`
run (and to any other worker count), absent faults. After a worker
crash exhausts its retries, the in-process fallback re-plans the
evolved scenario from scratch; that plan is the engine's reference
result, adopted as the new chain root.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.rabid import RabidConfig
from repro.errors import (
    CheckpointError,
    ConfigurationError,
    ServiceError,
    ShuttingDownError,
    UnknownJobError,
)
from repro.obs import NULL_TRACER
from repro.parallel.pool import PoolWorker
from repro.service.engine import full_plan
from repro.service.incremental import incremental_replan
from repro.service.jobs import (
    DeltaSpec,
    Job,
    JobRecord,
    JobStatus,
    ScenarioSpec,
    apply_delta,
)
from repro.service.tenant import QueuedItem, TenantQueues

_TERMINAL = (JobStatus.DONE, JobStatus.FAILED, JobStatus.TIMEOUT, JobStatus.SHED)

#: Handler spec resolved inside shard workers (pool protocol).
FLEET_HANDLER = "repro.service.fleet:fleet_handler"


@dataclass
class FleetOptions:
    """Knobs for :class:`FleetPlanningService`.

    Attributes:
        workers: shard worker processes (baselines are round-robin
            assigned; all jobs for a baseline run on its shard).
        max_queue_per_tenant: queued-job cap per tenant before sheds.
        job_timeout: per-attempt wall-clock budget (a hung worker is
            killed and respawned past it).
        retries: extra worker attempts after a crash/timeout before the
            in-process fallback plans the job in the parent.
        tenant_weights: stride-scheduling weights (default 1.0).
        aging_threshold: seconds after which a queued job is promoted to
            absolute priority (starvation bound).
        preempt_after: minimum seconds a full plan must have run before
            a waiting cheap job may preempt it.
        max_preemptions: preemption cap per job, after which it runs to
            completion (forward-progress bound).
        fallback_in_process: plan the job in the parent after the retry
            budget is gone (True) or fail it (False).
    """

    workers: int = 2
    max_queue_per_tenant: int = 256
    job_timeout: float = 300.0
    retries: int = 1
    tenant_weights: Dict[str, float] = field(default_factory=dict)
    aging_threshold: float = 30.0
    preempt_after: float = 0.2
    max_preemptions: int = 2
    fallback_in_process: bool = True

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigurationError("fleet workers must be >= 1")
        if self.max_queue_per_tenant < 1:
            raise ConfigurationError("max_queue_per_tenant must be >= 1")
        if self.job_timeout <= 0:
            raise ConfigurationError("job_timeout must be > 0")
        if self.retries < 0:
            raise ConfigurationError("retries must be >= 0")
        if self.aging_threshold <= 0:
            raise ConfigurationError("aging_threshold must be > 0")
        if self.preempt_after < 0:
            raise ConfigurationError("preempt_after must be >= 0")
        if self.max_preemptions < 0:
            raise ConfigurationError("max_preemptions must be >= 0")
        for tenant, weight in self.tenant_weights.items():
            if weight <= 0:
                raise ConfigurationError(
                    f"tenant {tenant!r} weight must be > 0, got {weight}"
                )


@dataclass
class FleetBaseline:
    """Parent-side authoritative metadata for one sharded baseline.

    ``root`` is the scenario of the last from-scratch plan; ``chain``
    the incremental deltas committed since. Together they *are* the
    checkpoint: any process can re-materialize the exact plan by
    full-planning the root and replaying the chain.
    """

    baseline_id: str
    shard: int
    root: ScenarioSpec
    scenario: ScenarioSpec
    chain: Tuple[DeltaSpec, ...] = ()
    signature: Optional[str] = None
    config: Optional[Dict[str, Any]] = None
    version: int = 0
    dirty: bool = False
    summary: Optional[Dict[str, Any]] = None


@dataclass
class FleetJobRecord(JobRecord):
    """A :class:`JobRecord` plus fleet-specific lifecycle fields."""

    shard: int = 0
    preemptions: int = 0
    rebuilt: bool = False
    fallback: bool = False

    def summary(self) -> Dict[str, Any]:
        out = super().summary()
        out["tenant"] = self.job.tenant
        out["shard"] = self.shard
        if self.preemptions:
            out["preemptions"] = self.preemptions
        if self.fallback:
            out["fallback"] = True
        return out


# --------------------------------------------------------------------- #
# Worker side                                                            #
# --------------------------------------------------------------------- #


def _config_from_payload(payload: Dict[str, Any]) -> RabidConfig:
    cfg = payload.get("config")
    return RabidConfig.from_dict(cfg) if cfg else RabidConfig()


def _fold_scenario(root: ScenarioSpec, chain) -> ScenarioSpec:
    scenario = root
    for delta in chain:
        scenario = apply_delta(scenario, delta)
    return scenario


def _abort_check_from(payload: Dict[str, Any], ctx) -> "Callable[[], bool] | None":
    if not payload.get("preemptible"):
        return None
    ctl = ctx.context["ctl"]
    shard = ctx.context["shard"]

    def check() -> bool:
        return bool(ctl[shard])

    return check


def _materialize(payload: Dict[str, Any], ctx, abort_check):
    """The shard's cached PlanState for this baseline, rebuilt if lost.

    Returns ``(state, rebuilt)``. A rebuild full-plans the chain root
    and replays every committed delta; the result must reproduce the
    parent's committed signature exactly or the attempt errors (the
    parent then falls back to a from-scratch reference plan).
    """
    plans: Dict[str, Any] = ctx.scratch.setdefault("fleet_plans", {})
    baseline_id = payload["baseline_id"]
    expected = payload["expected_signature"]
    state = plans.get(baseline_id)
    if state is not None and state.signature == expected:
        return state, False
    plans.pop(baseline_id, None)
    config = _config_from_payload(payload)
    root = ScenarioSpec.from_dict(payload["root"])
    state = full_plan(root, config, abort_check=abort_check)
    for delta_dict in payload["chain"]:
        incremental_replan(state, DeltaSpec.from_dict(delta_dict))
    if state.signature != expected:
        raise ServiceError(
            f"rebuild of baseline {baseline_id!r} diverged: expected "
            f"{expected[:12]}..., got {state.signature[:12]}..."
        )
    plans[baseline_id] = state
    return state, True


def fleet_handler(payload: Dict[str, Any], ctx) -> Dict[str, Any]:
    """The shard worker's single entry point (runs in the forked child).

    Ops:

    * ``plan`` — run one job (baseline / incremental delta / full-mode
      delta) against the shard's cached state, rebuild first if needed.
      Replies ``{"status": "preempted"}`` when the control byte aborted
      a preemptible attempt; nothing was committed.
    * ``checkpoint`` — serialize the named baselines' current plans.
    """
    from repro.errors import PreemptedError

    op = payload.get("op")
    if op == "checkpoint":
        from repro.service.checkpoint import checkpoint_to_dict

        checkpoints = {}
        for entry in payload["baselines"]:
            state, _ = _materialize(entry, ctx, None)
            checkpoints[entry["baseline_id"]] = checkpoint_to_dict(
                entry["baseline_id"], state
            )
        return {"status": "ok", "checkpoints": checkpoints}
    if op != "plan":
        raise ServiceError(f"unknown fleet op {op!r}")

    plans: Dict[str, Any] = ctx.scratch.setdefault("fleet_plans", {})
    baseline_id = payload["baseline_id"]
    abort_check = _abort_check_from(payload, ctx)
    config = _config_from_payload(payload)
    kind = payload["kind"]
    start = time.perf_counter()
    try:
        if kind == "baseline":
            scenario = ScenarioSpec.from_dict(payload["root"])
            state = full_plan(scenario, config, abort_check=abort_check)
            plans[baseline_id] = state
            return {
                "status": "ok",
                "signature": state.signature,
                "result": {"baseline_id": baseline_id, **state.summary()},
                "rebuilt": False,
                "seconds": time.perf_counter() - start,
            }
        delta = DeltaSpec.from_dict(payload["delta"])
        if payload["mode"] == "full":
            evolved = _fold_scenario(
                ScenarioSpec.from_dict(payload["root"]),
                [DeltaSpec.from_dict(d) for d in payload["chain"]] + [delta],
            )
            state = full_plan(evolved, config, abort_check=abort_check)
            plans[baseline_id] = state
            return {
                "status": "ok",
                "signature": state.signature,
                "result": {
                    "baseline_id": baseline_id,
                    "mode": "full",
                    **state.summary(),
                },
                "rebuilt": False,
                "seconds": time.perf_counter() - start,
            }
        state, rebuilt = _materialize(payload, ctx, abort_check)
        stats = incremental_replan(state, delta)
        return {
            "status": "ok",
            "signature": stats.signature,
            "result": {
                "baseline_id": baseline_id,
                "mode": "incremental",
                **stats.as_dict(),
            },
            "rebuilt": rebuilt,
            "seconds": time.perf_counter() - start,
        }
    except PreemptedError:
        # The partial plan was built on a fresh graph and never cached:
        # dropping it is the whole rollback.
        return {"status": "preempted"}


# --------------------------------------------------------------------- #
# Parent side                                                            #
# --------------------------------------------------------------------- #


class _ShardRunner:
    """One shard: a forked planner worker plus its dispatcher thread.

    The thread pops work for its shard index from the shared tenant
    queues, ships it to the worker over the pipe, and polls for the
    reply under the job deadline — checking, while it waits, whether
    the scheduler wants the running job preempted.
    """

    def __init__(self, service: "FleetPlanningService", index: int) -> None:
        self.service = service
        self.index = index
        self.worker = self._spawn()
        self.thread = threading.Thread(
            target=self._loop, name=f"fleet-shard-{index}", daemon=True
        )
        # Running-job state, guarded by the service condition.
        self.running: Optional[FleetJobRecord] = None
        self.running_since = 0.0
        self.running_preemptible = False
        self.preempt_requested = False

    def start(self) -> None:
        self.thread.start()

    def _spawn(self) -> PoolWorker:
        svc = self.service
        return PoolWorker(svc._mp_ctx, {"shard": self.index, "ctl": svc._ctl})

    def respawn(self) -> None:
        self.worker.kill()
        self.worker = self._spawn()
        self.service._count("fleet.respawns")

    # -- dispatcher loop ------------------------------------------------- #

    def _loop(self) -> None:
        svc = self.service
        while True:
            with svc._cond:
                item = None
                while not svc._stopping:
                    item = svc._queues.pop_for_shard(self.index)
                    if item is not None:
                        break
                    svc._cond.wait(timeout=0.05)
                if item is None:
                    return
            try:
                self._execute(item)
            finally:
                with svc._cond:
                    if self.running is not None:
                        self.running = None
                        self.running_preemptible = False
                        self.preempt_requested = False
                        svc._ctl[self.index] = 0
                    svc._cond.notify_all()

    def _execute(self, item: QueuedItem) -> None:
        payload = item.payload
        if payload["type"] == "checkpoint":
            self._execute_checkpoint(payload)
            return
        record: FleetJobRecord = payload["record"]
        svc = self.service
        now = time.monotonic()
        with svc._cond:
            if record.started_at == 0.0:
                record.started_at = now
            record.status = JobStatus.RUNNING
            try:
                job_payload = svc._job_payload(record)
            except ServiceError as exc:
                record.status = JobStatus.FAILED
                record.error = str(exc)
                record.finished_at = time.monotonic()
                svc._counters["failed"] += 1
                return
            self.running = record
            self.running_since = now
            self.running_preemptible = (
                record.job.kind == "baseline" or record.job.mode == "full"
            ) and record.preemptions < svc.options.max_preemptions
            self.preempt_requested = False
        svc._observe_stage(record, queue_wait=True)
        self._run_attempts(item, record, job_payload)

    def _run_attempts(self, item, record, job_payload) -> None:
        svc = self.service
        options = svc.options
        last_error = "unknown"
        last_status = "crashed"
        for attempt in range(options.retries + 1):
            with svc._cond:
                record.attempts += 1
            status, value = self._dispatch(job_payload, options.job_timeout)
            if status == "ok" and isinstance(value, dict):
                if value.get("status") == "preempted":
                    svc._requeue_preempted(item, record, self.index)
                    return
                if value.get("status") == "ok":
                    svc._commit(record, value)
                    return
                status, value = "error", f"malformed fleet reply: {value!r}"
            if status == "error":
                last_error, last_status = str(value), "error"
            else:  # crashed / timeout: the worker's state is suspect
                last_error, last_status = str(value), status
                self.respawn()
            if svc._stopping:
                break
            if attempt < options.retries:
                svc._count("fleet.retries")
                continue
        if options.fallback_in_process and not svc._stopping:
            svc._fallback(record, self.index)
            return
        with svc._cond:
            record.status = (
                JobStatus.TIMEOUT if last_status == "timeout" else JobStatus.FAILED
            )
            record.error = (
                f"{last_status} after {record.attempts} attempt(s): {last_error}"
            )
            record.finished_at = time.monotonic()
            svc._counters["timeout" if last_status == "timeout" else "failed"] += 1
            svc._cond.notify_all()

    def _dispatch(self, job_payload, timeout_s: float):
        """Ship one attempt; returns ``(status, value)`` pool-style."""
        svc = self.service
        try:
            self.worker.send(FLEET_HANDLER, job_payload)
        except (OSError, ValueError):
            return ("crashed", "worker pipe closed")
        svc._count("fleet.dispatches")
        deadline = time.monotonic() + timeout_s
        while True:
            try:
                ready = self.worker.conn.poll(0.05)
            except (OSError, ValueError):
                return ("crashed", "worker pipe closed")
            if ready:
                try:
                    return self.worker.recv()
                except Exception:
                    return ("crashed", "worker died or replied garbage")
            now = time.monotonic()
            if now > deadline:
                return ("timeout", f"attempt exceeded {timeout_s}s")
            if not self.worker.proc.is_alive():
                return ("crashed", "worker process died")
            svc._maybe_preempt(self, now)

    def _execute_checkpoint(self, payload) -> None:
        svc = self.service
        sink = payload["sink"]
        with svc._cond:
            entries = [
                svc._rebuild_payload(bid)
                for bid in payload["baseline_ids"]
                if bid in svc._baselines
                and svc._baselines[bid].signature is not None
            ]
        status, value = self._dispatch(
            {"op": "checkpoint", "baselines": entries},
            svc.options.job_timeout,
        )
        if status == "ok" and isinstance(value, dict) and value.get("status") == "ok":
            sink["checkpoints"] = value["checkpoints"]
        else:
            if status in ("crashed", "timeout"):
                self.respawn()
            sink["error"] = f"{status}: {value}"
        sink["event"].set()


class FleetPlanningService:
    """Sharded multi-process front end; same job surface as
    :class:`repro.service.scheduler.PlanningService`.

    Thread model: ``submit``/``record``/``stats`` run on the caller's
    thread (event loop); one dispatcher thread per shard executes jobs;
    every shared structure is guarded by one condition variable. The
    asyncio surface (``start``/``stop``/``wait``/``drain``) is a thin
    polling wrapper so :class:`repro.service.protocol.ProtocolServer`
    can serve either scheduler unchanged.
    """

    def __init__(
        self,
        config: "RabidConfig | None" = None,
        options: "FleetOptions | None" = None,
        tracer=None,
    ) -> None:
        self.config = config or RabidConfig()
        self.options = options or FleetOptions()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._cond = threading.Condition()
        self._queues = TenantQueues(
            max_per_tenant=self.options.max_queue_per_tenant,
            weights=self.options.tenant_weights,
            aging_threshold=self.options.aging_threshold,
        )
        self._records: Dict[str, FleetJobRecord] = {}
        self._baselines: Dict[str, FleetBaseline] = {}
        self._mp_ctx = multiprocessing.get_context("fork")
        self._shards: List[_ShardRunner] = []
        # Per-shard preemption bytes, created before the first fork so
        # every shard worker (respawns included) inherits the mapping.
        self._ctl = None
        self._next_shard = 0
        self._started = False
        self._stopping = False
        self._shutting_down = False
        self._counters = {
            "submitted": 0,
            "shed": 0,
            "done": 0,
            "failed": 0,
            "timeout": 0,
            "preemptions": 0,
            "rebuilds": 0,
            "fallbacks": 0,
            "respawns": 0,
        }
        # The per-baseline RabidConfig shipped to workers.
        self._config_dict = self.config.as_dict()

    # -- counters --------------------------------------------------------- #

    def _count(self, name: str, value: int = 1) -> None:
        if not value:
            return
        short = name.split(".", 1)[1] if name.startswith("fleet.") else name
        if short in self._counters:
            self._counters[short] += value
        if self.tracer.enabled:
            self.tracer.count(name, value)

    def _observe_stage(self, record: FleetJobRecord, queue_wait: bool) -> None:
        if not self.tracer.enabled:
            return
        if queue_wait:
            self.tracer.observe("service.queue_wait_seconds", record.queue_wait)
        else:
            mode = (
                "baseline"
                if record.job.kind == "baseline"
                else record.job.mode
            )
            elapsed = record.finished_at - record.started_at
            self.tracer.observe("service.exec_seconds", elapsed)
            self.tracer.observe(f"service.exec_seconds.{mode}", elapsed)

    # -- lifecycle -------------------------------------------------------- #

    def start_sync(self) -> None:
        if self._started:
            return
        self._started = True
        self._ctl = self._mp_ctx.RawArray("b", self.options.workers)
        self._shards = [
            _ShardRunner(self, i) for i in range(self.options.workers)
        ]
        for shard in self._shards:
            shard.start()

    async def start(self) -> None:
        self.start_sync()

    def stop_sync(self) -> None:
        if not self._started:
            return
        with self._cond:
            self._stopping = True
            self._cond.notify_all()
        for shard in self._shards:
            shard.thread.join(timeout=self.options.job_timeout + 10.0)
        for shard in self._shards:
            shard.worker.shutdown()
        self._shards = []
        self._started = False
        self._stopping = False

    async def stop(self) -> None:
        await __import__("asyncio").to_thread(self.stop_sync)

    # -- submission / inspection ------------------------------------------ #

    @property
    def shutting_down(self) -> bool:
        return self._shutting_down

    def begin_shutdown(self) -> None:
        """Reject all further submissions (drain + checkpoint follow)."""
        self._shutting_down = True

    def submit(self, job: Job) -> FleetJobRecord:
        with self._cond:
            if self._shutting_down:
                raise ShuttingDownError(
                    "service is shutting down; submission rejected"
                )
            if not self._started:
                raise ServiceError("fleet not started")
            existing = self._records.get(job.job_id)
            if existing is not None and existing.status is not JobStatus.SHED:
                raise ServiceError(f"duplicate job id {job.job_id!r}")
            if job.kind == "baseline":
                if job.job_id in self._baselines:
                    raise ServiceError(
                        f"baseline {job.job_id!r} already exists"
                    )
                shard = self._next_shard % self.options.workers
                baseline_id = job.job_id
            else:
                baseline = self._baselines.get(job.baseline_id)
                if baseline is None:
                    raise UnknownJobError(
                        f"unknown baseline {job.baseline_id!r}"
                    )
                shard = baseline.shard
                baseline_id = job.baseline_id
            record = FleetJobRecord(
                job=job, submitted_at=time.monotonic(), shard=shard
            )
            self._counters["submitted"] += 1
            cheap = job.kind == "delta" and job.mode == "incremental"
            try:
                item = self._queues.push(
                    job.tenant, shard, None, baseline=baseline_id
                )
            except Exception:
                record.status = JobStatus.SHED
                record.error = (
                    f"tenant {job.tenant!r} queue full "
                    f"({self.options.max_queue_per_tenant} jobs); shed"
                )
                self._counters["shed"] += 1
                self._records[job.job_id] = record
                if self.tracer.enabled:
                    self.tracer.count("service.jobs_shed")
                raise
            item.payload = {"type": "job", "record": record}
            item.cost_class = "cheap" if cheap else "heavy"
            if job.kind == "baseline":
                # Reserve the shard up front so delta jobs submitted
                # behind this one resolve.
                self._next_shard += 1
                config = dict(self._config_dict)
                if job.config:
                    config = RabidConfig.from_dict(job.config).as_dict()
                self._baselines[job.job_id] = FleetBaseline(
                    baseline_id=job.job_id,
                    shard=shard,
                    root=job.scenario,
                    scenario=job.scenario,
                    config=config,
                )
            self._records[job.job_id] = record
            if self.tracer.enabled:
                self.tracer.count("service.jobs_submitted")
                self.tracer.gauge("service.queue_depth", len(self._queues))
            self._cond.notify_all()
            return record

    def record(self, job_id: str) -> FleetJobRecord:
        try:
            return self._records[job_id]
        except KeyError:
            raise UnknownJobError(f"unknown job {job_id!r}") from None

    def baseline(self, baseline_id: str) -> FleetBaseline:
        try:
            return self._baselines[baseline_id]
        except KeyError:
            raise UnknownJobError(f"unknown baseline {baseline_id!r}") from None

    def install_baseline(self, baseline_id: str, state) -> None:
        """Adopt a restored plan (checkpoint restore / warm restart).

        The parent keeps only the replayable metadata, with the restored
        scenario as the chain root. The shard worker rebuilds the plan
        on first use and refuses it unless it reproduces
        ``state.signature``. Works before :meth:`start`.
        """
        with self._cond:
            if baseline_id in self._baselines:
                raise ServiceError(f"baseline {baseline_id!r} already exists")
            shard = self._next_shard % self.options.workers
            self._next_shard += 1
            self._baselines[baseline_id] = FleetBaseline(
                baseline_id=baseline_id,
                shard=shard,
                root=state.scenario,
                scenario=state.scenario,
                signature=state.signature,
                config=state.config.as_dict(),
                version=1,
                summary=state.summary(),
            )

    @property
    def baseline_ids(self) -> List[str]:
        return sorted(self._baselines)

    @property
    def dirty_baseline_ids(self) -> List[str]:
        with self._cond:
            return sorted(
                bid for bid, b in self._baselines.items() if b.dirty
            )

    def stats(self) -> Dict[str, Any]:
        with self._cond:
            queues = self._queues.stats()
            return {
                **self._counters,
                "aged_promotions": self._queues.aged_promotions,
                "queue_depth": len(self._queues),
                "queue_depths": queues["depths"],
                "baselines": len(self._baselines),
                "workers": self.options.workers,
            }

    async def wait(self, job_id: str, poll: float = 0.01) -> FleetJobRecord:
        import asyncio

        record = self.record(job_id)
        while record.status not in _TERMINAL:
            await asyncio.sleep(poll)
        return record

    async def drain(self) -> None:
        import asyncio

        while True:
            with self._cond:
                busy = any(s.running is not None for s in self._shards)
                if not len(self._queues) and not busy:
                    return
            await asyncio.sleep(0.01)

    async def drain_until(self, deadline_s: "float | None") -> Dict[str, Any]:
        """Drain with a bound; returns ``{"drained": bool, "pending": n}``."""
        import asyncio

        limit = (
            time.monotonic() + deadline_s if deadline_s is not None else None
        )
        while True:
            with self._cond:
                pending = len(self._queues) + sum(
                    1 for s in self._shards if s.running is not None
                )
            if not pending:
                return {"drained": True, "pending": 0}
            if limit is not None and time.monotonic() > limit:
                return {"drained": False, "pending": pending}
            await asyncio.sleep(0.01)

    # -- scheduling internals (runner threads) ----------------------------- #

    def _job_payload(self, record: FleetJobRecord) -> Dict[str, Any]:
        """Build the wire payload for one attempt (under the condition)."""
        job = record.job
        if job.kind == "baseline":
            baseline = self._baselines[job.job_id]
            payload = {
                "op": "plan",
                "kind": "baseline",
                "mode": "full",
                "baseline_id": job.job_id,
                "root": baseline.root.to_dict(),
                "chain": [],
                "delta": None,
                "expected_signature": None,
                "config": baseline.config,
            }
        else:
            baseline = self._baselines[job.baseline_id]
            if baseline.signature is None:
                raise ServiceError(
                    f"baseline {job.baseline_id!r} has no committed plan"
                )
            payload = self._rebuild_payload(job.baseline_id)
            payload.update(
                op="plan",
                kind="delta",
                mode=job.mode,
                delta=job.delta.to_dict(),
            )
        payload["preemptible"] = (
            job.kind == "baseline" or job.mode == "full"
        ) and record.preemptions < self.options.max_preemptions
        return payload

    def _rebuild_payload(self, baseline_id: str) -> Dict[str, Any]:
        baseline = self._baselines[baseline_id]
        return {
            "baseline_id": baseline_id,
            "root": baseline.root.to_dict(),
            "chain": [d.to_dict() for d in baseline.chain],
            "expected_signature": baseline.signature,
            "config": baseline.config,
        }

    def _maybe_preempt(self, runner: _ShardRunner, now: float) -> None:
        """Raise the shard's control byte when a cheap job is next up."""
        with self._cond:
            if (
                runner.running is None
                or runner.preempt_requested
                or not runner.running_preemptible
                or now - runner.running_since < self.options.preempt_after
            ):
                return
            nxt = self._queues.peek_eligible(runner.index)
            if nxt is None or nxt.cost_class != "cheap":
                return
            runner.preempt_requested = True
            self._ctl[runner.index] = 1

    def _requeue_preempted(
        self, item: QueuedItem, record: FleetJobRecord, shard: int
    ) -> None:
        with self._cond:
            record.preemptions += 1
            record.status = JobStatus.QUEUED
            self._counters["preemptions"] += 1
            if self.tracer.enabled:
                self.tracer.count("fleet.preemptions")
            self._ctl[shard] = 0
            self._queues.push_front(item)
            self._cond.notify_all()

    def _commit(self, record: FleetJobRecord, reply: Dict[str, Any]) -> None:
        job = record.job
        with self._cond:
            if reply.get("rebuilt"):
                record.rebuilt = True
                self._counters["rebuilds"] += 1
                if self.tracer.enabled:
                    self.tracer.count("fleet.rebuilds")
            baseline = self._baselines[
                job.job_id if job.kind == "baseline" else job.baseline_id
            ]
            if job.kind == "baseline":
                baseline.signature = reply["signature"]
                baseline.version = 1
            else:
                evolved = apply_delta(baseline.scenario, job.delta)
                if job.mode == "full":
                    baseline.root, baseline.chain = evolved, ()
                else:
                    baseline.chain = baseline.chain + (job.delta,)
                baseline.scenario = evolved
                baseline.signature = reply["signature"]
                baseline.version += 1
            baseline.dirty = True
            baseline.summary = reply["result"]
            record.result = reply["result"]
            record.status = JobStatus.DONE
            record.finished_at = time.monotonic()
            self._counters["done"] += 1
            self._cond.notify_all()
        self._observe_stage(record, queue_wait=False)

    def _fallback(self, record: FleetJobRecord, shard: int) -> None:
        """Plan the job in the parent after the worker retry budget.

        The from-scratch plan of the evolved scenario is the engine's
        reference result; it becomes the new chain root (so the next
        worker rebuild reproduces it exactly).
        """
        job = record.job
        try:
            with self._cond:
                baseline = self._baselines[
                    job.job_id if job.kind == "baseline" else job.baseline_id
                ]
                scenario = (
                    baseline.root
                    if job.kind == "baseline"
                    else apply_delta(baseline.scenario, job.delta)
                )
                config_dict = baseline.config
            state = full_plan(
                scenario,
                RabidConfig.from_dict(config_dict)
                if config_dict
                else RabidConfig(),
            )
        except Exception as exc:  # noqa: BLE001 - report, don't kill the shard
            with self._cond:
                record.status = JobStatus.FAILED
                record.error = f"in-process fallback failed: {exc}"
                record.finished_at = time.monotonic()
                self._counters["failed"] += 1
                self._cond.notify_all()
            return
        bid = baseline.baseline_id
        with self._cond:
            baseline.root = scenario
            baseline.chain = ()
            baseline.scenario = scenario
            baseline.signature = state.signature
            baseline.version += 1
            baseline.dirty = True
            baseline.summary = state.summary()
            record.fallback = True
            record.result = {
                "baseline_id": bid,
                "fallback": True,
                **state.summary(),
            }
            record.status = JobStatus.DONE
            record.finished_at = time.monotonic()
            self._counters["done"] += 1
            self._counters["fallbacks"] += 1
            if self.tracer.enabled:
                self.tracer.count("fleet.fallbacks")
            self._cond.notify_all()
        self._observe_stage(record, queue_wait=False)

    # -- checkpoints ------------------------------------------------------- #

    def checkpoint_to(
        self, directory, only_dirty: bool = False
    ) -> List[str]:
        """Persist baselines via their shard workers; returns paths.

        Each shard serializes its own baselines (rebuilding any it
        lost), so the files capture exactly the committed chain state;
        the parent only writes bytes to disk.
        """
        import json
        from pathlib import Path

        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        sinks = []
        with self._cond:
            by_shard: Dict[int, List[str]] = {}
            for bid, baseline in sorted(self._baselines.items()):
                if baseline.signature is None:
                    continue
                if only_dirty and not baseline.dirty:
                    continue
                by_shard.setdefault(baseline.shard, []).append(bid)
            for shard, bids in sorted(by_shard.items()):
                sink = {"event": threading.Event(), "error": None,
                        "checkpoints": {}, "bids": bids}
                self._queues.push(
                    "__fleet__", shard,
                    {"type": "checkpoint", "baseline_ids": bids, "sink": sink},
                    baseline=None,
                )
                sinks.append(sink)
            self._cond.notify_all()
        written: List[str] = []
        budget = self.options.job_timeout * 2 + 30.0
        for sink in sinks:
            if not sink["event"].wait(timeout=budget):
                raise CheckpointError(
                    f"checkpoint of baselines {sink['bids']} timed out"
                )
            if sink["error"]:
                raise CheckpointError(
                    f"checkpoint of baselines {sink['bids']} failed: "
                    f"{sink['error']}"
                )
            for bid, payload in sorted(sink["checkpoints"].items()):
                path = directory / f"{bid}.ckpt.json"
                path.write_text(json.dumps(payload))
                written.append(str(path))
        with self._cond:
            for sink in sinks:
                for bid in sink["checkpoints"]:
                    if bid in self._baselines:
                        self._baselines[bid].dirty = False
        return written

    # -- context manager ---------------------------------------------------- #

    def __enter__(self) -> "FleetPlanningService":
        self.start_sync()
        return self

    def __exit__(self, *exc) -> None:
        with contextlib.suppress(Exception):
            self.stop_sync()
