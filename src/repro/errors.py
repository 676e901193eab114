"""Exception hierarchy for the repro library.

All library-specific failures derive from :class:`ReproError` so callers can
catch one base class. Subclasses separate user errors (bad configuration,
malformed inputs) from algorithmic infeasibility (a net that cannot satisfy
its length rule with the available buffer sites).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """An invalid parameter or inconsistent configuration was supplied."""


class UnknownBufferKindError(ConfigurationError):
    """A buffer payload named a kind the active buffer library lacks.

    Raised when deserializing routes or plans against a library that does
    not define the recorded kind. Legacy payloads that carry no kind at
    all are *not* an error — they load as the library default.
    """


class NetlistError(ReproError):
    """A netlist is structurally invalid (e.g., a net without a driver)."""


class FloorplanError(ReproError):
    """A floorplan is invalid (overlapping blocks, block outside the die)."""


class RoutingError(ReproError):
    """A route could not be produced (e.g., disconnected tile graph)."""


class ObservabilityError(ReproError):
    """The observability layer was misused or a traced invariant failed.

    Raised on metric-type conflicts (e.g., counting into a name already
    registered as a gauge), unknown event kinds, and — when a tracer's
    debug checks are on — violated buffer-site invariants observed at an
    event hook.
    """


class InfeasibleError(ReproError):
    """No solution satisfies the stated constraints.

    Raised only by APIs documented to be strict; the RABID planner itself
    prefers best-effort fallbacks and counts failures instead of raising.
    """


class ServiceError(ReproError):
    """Base class for planning-service failures (see ``repro.service``)."""


class QueueFullError(ServiceError):
    """The scheduler's bounded queue is at capacity; the job was shed.

    Backpressure is explicit: callers are expected to catch this, back
    off, and resubmit rather than pile work onto a saturated service.
    """


class UnknownJobError(ServiceError):
    """A job or baseline id was referenced that the service does not hold."""


class CheckpointError(ServiceError):
    """A service checkpoint could not be written or restored."""


class ShuttingDownError(ServiceError):
    """The service is draining for shutdown and rejects new submissions.

    Typed so the protocol layer reports ``SHUTTING_DOWN`` distinctly from
    backpressure: a shed job invites an immediate resubmit, a shutdown
    rejection tells the client to find another replica (or wait for the
    restart).
    """


class DeadlineError(ServiceError):
    """A planning attempt passed its deadline and stopped mid-run.

    Raised by the engine when an ``abort_check`` callback reports that
    the attempt's deadline has passed. The partial plan is discarded:
    the service ends the job ``TIMEOUT`` and a sweep records the
    scenario as ``timeout``.
    """


class ProtocolError(ServiceError):
    """A malformed or unsupported JSON-lines service request."""
