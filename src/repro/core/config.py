"""Configuration surface for the Raha analyzer and the sweep runner."""

from __future__ import annotations

import hashlib
import os
from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.exceptions import ModelingError
from repro.network.demand import Pair

#: Objectives Raha can analyze (Section 5 / Appendix A).
OBJECTIVES = ("total_flow", "mlu", "maxmin")

#: Cap on the *default* sweep worker count: MILP solves are memory-heavy
#: (each worker holds a full model), so auto-scaling stops here even on
#: very wide machines.  Explicit ``--jobs`` can exceed it.
MAX_DEFAULT_WORKERS = 8


def default_num_workers(cap: int = MAX_DEFAULT_WORKERS) -> int:
    """The sweep runner's default parallelism: ``cpu_count - 1``, capped.

    One core is left for the parent (journal/cache/progress bookkeeping
    and the OS); the result is clamped to ``[1, cap]``.
    """
    return max(1, min((os.cpu_count() or 2) - 1, cap))


@dataclass
class RunnerConfig:
    """Knobs for the sweep-execution subsystem (:mod:`repro.runner`).

    Attributes:
        num_workers: Worker processes; ``None`` means
            :func:`default_num_workers`.  ``1`` runs jobs in-process
            (no pool), which is also the deterministic-debugging mode.
        retries: How many times a failed/timed-out/crashed job is
            re-attempted before it settles with a structured error.
        backoff_seconds: Base of the exponential retry backoff: the
            delay before re-attempting after the n-th failure is
            ``backoff_seconds * backoff_factor**(n-1)``, jittered and
            capped (see :meth:`backoff_delay`).
        backoff_factor: Exponential growth per retry (``>= 1``).
        backoff_max_seconds: Ceiling on any single backoff delay.
        backoff_jitter: Fraction of deterministic jitter added on top of
            the exponential delay (``delay * (1 + u * jitter)`` with
            ``u in [0, 1)`` hashed from the job key + attempt).  Must
            satisfy ``jitter <= backoff_factor - 1`` so delays stay
            monotone nondecreasing; jitter decorrelates retry storms
            without sacrificing reproducibility.
        failure_budget_seconds: Per-job cap on wall time spent in
            *failed* attempts; once exceeded the job settles with a
            structured error even if retries remain (``None`` = no
            budget).  This bounds how long one poisonous job can stall
            a campaign.
        wall_timeout_factor / wall_timeout_margin: Per-job wall-clock
            timeout, derived from the job's solver ``time_limit`` as
            ``time_limit * factor + margin`` -- the margin covers
            instance rebuild + encode time outside the solver.  Jobs
            without a ``time_limit`` get no wall timeout.
    """

    num_workers: int | None = None
    retries: int = 1
    backoff_seconds: float = 0.25
    backoff_factor: float = 2.0
    backoff_max_seconds: float = 30.0
    backoff_jitter: float = 0.5
    failure_budget_seconds: float | None = None
    wall_timeout_factor: float = 3.0
    wall_timeout_margin: float = 30.0

    def __post_init__(self):
        if self.num_workers is not None and self.num_workers < 1:
            raise ModelingError(
                f"num_workers must be >= 1, got {self.num_workers}"
            )
        if self.retries < 0:
            raise ModelingError(f"retries must be >= 0, got {self.retries}")
        if self.backoff_seconds < 0:
            raise ModelingError(
                f"backoff_seconds must be >= 0, got {self.backoff_seconds}"
            )
        if self.backoff_factor < 1.0:
            raise ModelingError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.backoff_max_seconds < 0:
            raise ModelingError(
                f"backoff_max_seconds must be >= 0, got "
                f"{self.backoff_max_seconds}"
            )
        if not (0.0 <= self.backoff_jitter <= self.backoff_factor - 1.0):
            raise ModelingError(
                f"backoff_jitter must be in [0, backoff_factor - 1] so "
                f"jittered delays stay monotone, got {self.backoff_jitter} "
                f"with factor {self.backoff_factor}"
            )
        if self.failure_budget_seconds is not None \
                and self.failure_budget_seconds < 0:
            raise ModelingError(
                f"failure_budget_seconds must be >= 0, got "
                f"{self.failure_budget_seconds}"
            )
        if self.wall_timeout_factor <= 0 or self.wall_timeout_margin < 0:
            raise ModelingError(
                "wall_timeout_factor must be > 0 and wall_timeout_margin "
                f">= 0, got ({self.wall_timeout_factor}, "
                f"{self.wall_timeout_margin})"
            )

    def resolved_workers(self) -> int:
        """The effective worker count."""
        return self.num_workers if self.num_workers is not None \
            else default_num_workers()

    def wall_timeout_for(self, time_limit: float | None) -> float | None:
        """Wall-clock budget for a job with the given solver budget."""
        if time_limit is None:
            return None
        return time_limit * self.wall_timeout_factor + self.wall_timeout_margin

    def backoff_delay(self, attempt: int, key: str = "") -> float:
        """Seconds to wait before re-attempting after the n-th failure.

        Exponential in the attempt number with deterministic jitter
        hashed from ``(key, attempt)``, capped at
        ``backoff_max_seconds``.  Because the jitter fraction is bounded
        by ``backoff_factor - 1``, the sequence is monotone
        nondecreasing in ``attempt`` -- retries never come back *sooner*
        after more failures.
        """
        if attempt < 1:
            raise ModelingError(f"attempt must be >= 1, got {attempt}")
        raw = self.backoff_seconds * self.backoff_factor ** (attempt - 1)
        if self.backoff_jitter > 0.0:
            digest = hashlib.sha256(
                f"{key}\0{attempt}".encode("utf-8")
            ).digest()
            unit = int.from_bytes(digest[:8], "big") / float(1 << 64)
            raw *= 1.0 + unit * self.backoff_jitter
        return min(raw, self.backoff_max_seconds)


@dataclass
class MonteCarloConfig:
    """Knobs for the Monte Carlo availability engine
    (:mod:`repro.failures.availability`).

    Attributes:
        samples: Scenario draws per sampling round (and the total when
            adaptive stopping is off).
        seed: RNG seed.  It alone fixes the scenario sequence: the
            sampler draws the same stream at any worker count (and the
            same stream as the scalar reference ``sample_scenario``).
        degradation_threshold: Threshold of the exceedance statistic
            (same units as demands).
        num_workers: Worker processes for chunk evaluation; ``None``
            means :func:`default_num_workers`, ``1`` evaluates
            in-process (no pool).
        chunk_size: Distinct scenarios per worker chunk.  Fixed --
            deliberately *not* derived from the worker count -- so the
            chunk partition (and with it every retry/chaos/cache
            decision) is identical at any ``--jobs``.
        ci_width: Optional adaptive-stopping target: keep sampling in
            rounds of ``samples`` until the normal-approximation
            confidence interval on availability is at most this wide
            (``None`` = fixed sample count).
        ci_confidence: Confidence level of that interval.
        max_samples: Hard cap on total draws under adaptive stopping;
            ``None`` defaults to ``20 * samples``.
    """

    samples: int = 200
    seed: int = 0
    degradation_threshold: float = 0.0
    num_workers: int | None = None
    chunk_size: int = 32
    ci_width: float | None = None
    ci_confidence: float = 0.95
    max_samples: int | None = None

    def __post_init__(self):
        if self.samples < 1:
            raise ModelingError(
                f"need at least one sample, got {self.samples}"
            )
        if self.num_workers is not None and self.num_workers < 1:
            raise ModelingError(
                f"num_workers must be >= 1, got {self.num_workers}"
            )
        if self.chunk_size < 1:
            raise ModelingError(
                f"chunk_size must be >= 1, got {self.chunk_size}"
            )
        if self.ci_width is not None and self.ci_width <= 0:
            raise ModelingError(
                f"ci_width must be > 0, got {self.ci_width}"
            )
        if not (0.0 < self.ci_confidence < 1.0):
            raise ModelingError(
                f"ci_confidence must be in (0, 1), got {self.ci_confidence}"
            )
        if self.max_samples is not None and self.max_samples < self.samples:
            raise ModelingError(
                f"max_samples ({self.max_samples}) must be >= samples "
                f"({self.samples})"
            )

    def resolved_workers(self) -> int:
        """The effective worker count."""
        return self.num_workers if self.num_workers is not None \
            else default_num_workers()

    def resolved_max_samples(self) -> int:
        """The adaptive-stopping draw cap."""
        return self.max_samples if self.max_samples is not None \
            else 20 * self.samples


@dataclass
class SupervisionConfig:
    """Self-healing supervision policy for the analysis service.

    Governs the lease/heartbeat/reaper machinery that recovers hung
    workers *while the service runs* (not just at restart), and the
    poison-job quarantine that stops crash-looping jobs from eating the
    worker pool forever (:mod:`repro.service.scheduler`).  The lease
    knobs drive every claim loop (:mod:`repro.service.claims`): the
    coordinator's local pool and each remote ``repro worker`` agent.

    Attributes:
        lease_seconds: How long one claim owns a job.  A worker renews
            its lease via heartbeats while the job runs; a lease that
            expires un-renewed means the worker is hung or dead, and
            the reaper requeues the job (same exactly-once audit
            transitions as startup recovery).
        heartbeat_interval_seconds: How often a busy worker renews its
            lease; ``None`` derives ``lease_seconds / 3`` so two missed
            beats still leave slack before expiry.
        reap_interval_seconds: How often the reaper scans for expired
            leases, exhausted poison jobs, and missed deadlines;
            ``None`` derives ``lease_seconds / 2`` (a hung job is
            recovered within one lease period).
        max_job_attempts: Store-level claim budget per job.  A job
            whose claims (counted across crashes, restarts, and reaps)
            reach this is **quarantined** -- a terminal state with the
            last error preserved -- instead of crash-looping; operators
            inspect and requeue via ``POST /v1/analyses/<id>/retry``.
        max_lease_renewal_seconds: Hard cap on how long one claim's
            heartbeat may keep renewing its lease.  Heartbeats run on
            the claiming slot's thread, so they outlive a solve wedged
            inside the worker process; without a renewal bound such a
            claim would hold its lease forever.  For jobs with a
            derivable wall timeout the claim loop already stops
            renewing past the worst-case retry budget -- this cap
            additionally bounds jobs *without* one (``None``, the
            default, leaves those unbounded: the reaper then only
            covers dropped heartbeats and dead processes for them).
    """

    lease_seconds: float = 60.0
    heartbeat_interval_seconds: float | None = None
    reap_interval_seconds: float | None = None
    max_job_attempts: int = 5
    max_lease_renewal_seconds: float | None = None

    def __post_init__(self):
        if self.lease_seconds <= 0:
            raise ModelingError(
                f"lease_seconds must be > 0, got {self.lease_seconds}"
            )
        if self.heartbeat_interval_seconds is not None \
                and self.heartbeat_interval_seconds <= 0:
            raise ModelingError(
                f"heartbeat_interval_seconds must be > 0, got "
                f"{self.heartbeat_interval_seconds}"
            )
        if self.reap_interval_seconds is not None \
                and self.reap_interval_seconds <= 0:
            raise ModelingError(
                f"reap_interval_seconds must be > 0, got "
                f"{self.reap_interval_seconds}"
            )
        if self.max_job_attempts < 1:
            raise ModelingError(
                f"max_job_attempts must be >= 1, got "
                f"{self.max_job_attempts}"
            )
        if self.max_lease_renewal_seconds is not None \
                and self.max_lease_renewal_seconds <= 0:
            raise ModelingError(
                f"max_lease_renewal_seconds must be > 0, got "
                f"{self.max_lease_renewal_seconds}"
            )

    def resolved_heartbeat_interval(self) -> float:
        """The effective heartbeat period (defaults to a third of the
        lease, so a lease survives two missed beats)."""
        if self.heartbeat_interval_seconds is not None:
            return self.heartbeat_interval_seconds
        return self.lease_seconds / 3.0

    def resolved_reap_interval(self) -> float:
        """The effective reaper period (defaults to half the lease)."""
        if self.reap_interval_seconds is not None:
            return self.reap_interval_seconds
        return self.lease_seconds / 2.0


@dataclass
class DistribConfig:
    """Knobs for one worker agent of the distributed fleet
    (:mod:`repro.distrib`): ``python -m repro worker`` pulling jobs from
    the coordinator over HTTP.

    Attributes:
        num_workers: Worker slots (concurrent claims) in one agent.
            The agent's lease knobs are a :class:`SupervisionConfig`,
            the same one the coordinator's local pool uses.
        poll_interval_seconds: The longest wait of one claim request:
            an idle slot long-polls the coordinator, which answers as
            soon as a job becomes claimable (or after this long, capped
            by the coordinator and at half ``request_timeout_seconds``),
            and an empty answer is followed straight by the next claim.
        drain_timeout_seconds: On SIGINT/SIGTERM, how long the agent
            waits for in-flight jobs before giving up the join
            (abandoned claims are left to lapse and be reaped).
        request_timeout_seconds: Per-HTTP-request timeout.
        retries: Transient-failure retry budget per fleet request
            (connection refused, resets, injected ``distrib.*`` drops).
            Claim/heartbeat/release replays are safe by construction
            (leases + fencing); a settle whose response was lost
            surfaces as a refused (409) replay the agent treats as
            already-settled.
        retry_backoff_seconds: Base backoff between retries, scaled
            ``2**attempt`` with deterministic per-key jitter and capped
            at ``retry_backoff_max_seconds``.
        retry_backoff_max_seconds: Backoff ceiling.
    """

    num_workers: int = 2
    poll_interval_seconds: float = 0.5
    drain_timeout_seconds: float = 30.0
    request_timeout_seconds: float = 30.0
    retries: int = 3
    retry_backoff_seconds: float = 0.25
    retry_backoff_max_seconds: float = 5.0

    def __post_init__(self):
        if self.num_workers < 1:
            raise ModelingError(
                f"num_workers must be >= 1, got {self.num_workers}"
            )
        if self.poll_interval_seconds <= 0:
            raise ModelingError(
                f"poll_interval_seconds must be > 0, got "
                f"{self.poll_interval_seconds}"
            )
        if self.drain_timeout_seconds < 0:
            raise ModelingError(
                f"drain_timeout_seconds must be >= 0, got "
                f"{self.drain_timeout_seconds}"
            )
        if self.request_timeout_seconds <= 0:
            raise ModelingError(
                f"request_timeout_seconds must be > 0, got "
                f"{self.request_timeout_seconds}"
            )
        if self.retries < 0:
            raise ModelingError(
                f"retries must be >= 0, got {self.retries}"
            )
        if self.retry_backoff_seconds < 0:
            raise ModelingError(
                f"retry_backoff_seconds must be >= 0, got "
                f"{self.retry_backoff_seconds}"
            )
        if self.retry_backoff_max_seconds < self.retry_backoff_seconds:
            raise ModelingError(
                f"retry_backoff_max_seconds must be >= "
                f"retry_backoff_seconds, got "
                f"{self.retry_backoff_max_seconds}"
            )


@dataclass
class ServiceConfig:
    """Knobs for the persistent analysis service (:mod:`repro.service`).

    Attributes:
        host / port: HTTP bind address.  ``port=0`` binds an ephemeral
            port (the chosen one lands in the workdir's ``service.json``
            state file), which is what tests and the smoke CI use.
        num_workers: Scheduler worker threads draining the job queue.
        local_workers: Whether to run that local pool at all.  ``False``
            (``serve --no-local-workers``) turns the service into a pure
            coordinator: it accepts submissions, runs the reaper and
            supervision loops, and leaves execution entirely to remote
            ``repro worker`` agents claiming over HTTP.
        poll_interval_seconds: The longest single wait for work inside
            one claim.  An idle worker is woken as soon as a job becomes
            claimable in this process (one worker per job) and claims
            again straight after an empty claim; the interval only
            bounds the wait, as the fallback for jobs queued by another
            process sharing the store.
        max_queue_depth: Admission control: submissions that would push
            the number of queued+running jobs past this are shed with
            HTTP 429 + ``Retry-After`` instead of being accepted and
            dropped later.
        max_inflight_per_client: Admission control: cap on one client's
            queued+running jobs (clients identify via the ``X-Client``
            header; unidentified traffic shares one bucket).
        retry_after_seconds: Floor for the ``Retry-After`` hint on shed
            responses; the actual hint scales with queue depth and the
            observed per-job service time when history exists.
        result_ttl_seconds: Evict cached results older than this
            (``None`` = keep forever).
        result_max_bytes: Cap the result store's on-disk size; the
            oldest-mtime entries are evicted first (``None`` = no cap).
            Entries referenced by live (queued/running) jobs are never
            evicted by either rule.
        eviction_interval_seconds: How often the background eviction
            pass runs (only when a TTL or size cap is configured).
        drain_timeout_seconds: How long ``stop(drain=True)`` waits for
            in-flight jobs before giving up the join (the jobs stay
            ``running`` and are recovered to ``queued`` on restart).
        isolate_jobs: Run each claimed job in a worker *process* (the
            executor's pooled path), so a crashing or wedged solve
            cannot take the service down and per-job wall timeouts
            apply.  Each scheduler worker keeps one warm process,
            forked on its first claim and reused by later jobs; it is
            retired (and a fresh one forked on the next claim) after a
            crash, any attempt that did not return ok, including a wall
            timeout, or a cancel that abandons the attempt, and shut
            down when the worker stops.  ``False`` runs jobs in the
            scheduler thread, used by tests.
        max_body_bytes: Reject request bodies larger than this with
            HTTP 413 *before* reading them -- an advertised
            ``Content-Length`` is not an invitation to buffer it.
        supervision: The self-healing policy: job leases + heartbeats,
            the reaper that requeues expired leases, and poison-job
            quarantine (:class:`SupervisionConfig`).
        max_claims_per_second: Claim-rate shed for the remote fleet: a
            token bucket refilled at this rate (burst of one second's
            worth) 429s claim requests beyond it, keeping an
            over-scaled fleet from stampeding the store.  ``None``
            disables shedding.
    """

    host: str = "127.0.0.1"
    port: int = 8080
    num_workers: int = 2
    local_workers: bool = True
    poll_interval_seconds: float = 0.2
    max_queue_depth: int = 1024
    max_inflight_per_client: int = 64
    retry_after_seconds: float = 5.0
    result_ttl_seconds: float | None = None
    result_max_bytes: int | None = None
    eviction_interval_seconds: float = 60.0
    drain_timeout_seconds: float = 30.0
    isolate_jobs: bool = True
    max_body_bytes: int = 64 * 1024 * 1024
    supervision: SupervisionConfig = field(
        default_factory=SupervisionConfig)
    max_claims_per_second: float | None = None

    def __post_init__(self):
        if self.num_workers < 1:
            raise ModelingError(
                f"num_workers must be >= 1, got {self.num_workers}"
            )
        if self.max_claims_per_second is not None \
                and self.max_claims_per_second <= 0:
            raise ModelingError(
                f"max_claims_per_second must be > 0, got "
                f"{self.max_claims_per_second}"
            )
        if self.max_body_bytes < 1:
            raise ModelingError(
                f"max_body_bytes must be >= 1, got {self.max_body_bytes}"
            )
        if self.poll_interval_seconds <= 0:
            raise ModelingError(
                f"poll_interval_seconds must be > 0, got "
                f"{self.poll_interval_seconds}"
            )
        if self.max_queue_depth < 0:
            raise ModelingError(
                f"max_queue_depth must be >= 0, got {self.max_queue_depth}"
            )
        if self.max_inflight_per_client < 1:
            raise ModelingError(
                f"max_inflight_per_client must be >= 1, got "
                f"{self.max_inflight_per_client}"
            )
        if self.retry_after_seconds < 0:
            raise ModelingError(
                f"retry_after_seconds must be >= 0, got "
                f"{self.retry_after_seconds}"
            )
        if self.result_ttl_seconds is not None \
                and self.result_ttl_seconds <= 0:
            raise ModelingError(
                f"result_ttl_seconds must be > 0, got "
                f"{self.result_ttl_seconds}"
            )
        if self.result_max_bytes is not None and self.result_max_bytes < 0:
            raise ModelingError(
                f"result_max_bytes must be >= 0, got {self.result_max_bytes}"
            )
        if self.eviction_interval_seconds <= 0:
            raise ModelingError(
                f"eviction_interval_seconds must be > 0, got "
                f"{self.eviction_interval_seconds}"
            )
        if self.drain_timeout_seconds < 0:
            raise ModelingError(
                f"drain_timeout_seconds must be >= 0, got "
                f"{self.drain_timeout_seconds}"
            )


@dataclass
class ResilienceConfig:
    """Graceful-degradation policy for a single analysis.

    Governs the analyzer's *solver fallback ladder* when a MILP hits its
    time limit without ever finding an incumbent (so there is no usable
    bound at all):

    1. retry the solve with an escalated ``time_limit``
       (``x time_limit_escalation``, up to ``max_escalations`` rungs);
    2. if every rung expires incumbent-free and ``allow_partial`` is
       set, solve the LP *relaxation* of the MILP and report its
       objective as a structured
       :class:`~repro.core.degradation.PartialResult` -- a provably
       valid (if loose) bound on the worst-case degradation -- instead
       of raising :class:`~repro.exceptions.SolverError`;
    3. without ``allow_partial``, raise as before.

    Attributes:
        allow_partial: Return a :class:`PartialResult` carrying the
            LP-relaxation bound instead of raising when the ladder is
            exhausted.  Off by default: partial answers must be opted
            into (``analyze --allow-partial`` on the CLI).
        time_limit_escalation: Multiplier applied to ``time_limit`` per
            escalation rung (``> 1``).
        max_escalations: Escalated re-solves to attempt before falling
            through to the relaxation (``0`` disables escalation).
        relaxation_time_limit: Solver budget for the LP-relaxation
            solve; ``None`` reuses the last escalated limit.
    """

    allow_partial: bool = False
    time_limit_escalation: float = 2.0
    max_escalations: int = 1
    relaxation_time_limit: float | None = None

    def __post_init__(self):
        if self.time_limit_escalation <= 1.0:
            raise ModelingError(
                f"time_limit_escalation must be > 1, got "
                f"{self.time_limit_escalation}"
            )
        if self.max_escalations < 0:
            raise ModelingError(
                f"max_escalations must be >= 0, got {self.max_escalations}"
            )
        if self.relaxation_time_limit is not None \
                and self.relaxation_time_limit <= 0:
            raise ModelingError(
                f"relaxation_time_limit must be > 0, got "
                f"{self.relaxation_time_limit}"
            )

    def escalated_limits(self, time_limit: float | None) -> list[float]:
        """The ladder of escalated time limits to try after a failure."""
        if time_limit is None:
            return []
        return [
            time_limit * self.time_limit_escalation ** i
            for i in range(1, self.max_escalations + 1)
        ]


@dataclass
class RahaConfig:
    """All analysis knobs in one place.

    Exactly one of ``fixed_demands`` / ``demand_bounds`` must be set:

    * ``fixed_demands`` -- the fast mode (Section 6): the healthy
      network's optimum is a constant, Raha only searches failures.
    * ``demand_bounds`` -- the joint mode: per-pair ``(lower, upper)``
      intervals the adversary may choose demands from (build them with
      :func:`repro.network.demand.demand_envelope`).  Upper bounds must be
      finite (they double as big-M values).

    Attributes:
        objective: ``"total_flow"`` (Eq. 2, default), ``"mlu"`` or
            ``"maxmin"`` (Appendix A).
        probability_threshold: Only consider failure scenarios at least
            this likely (``T``); requires link failure probabilities.
            ``None`` disables the constraint (any failure combination).
        max_failures: Only consider scenarios with at most this many
            failed links (the prior-work ``k``); ``None`` = unlimited.
        connected_enforced: Forbid scenarios that take down every path of
            some demand (Section 5.1's CE constraint; forced on for MLU).
        naive_failover: Model the naive fail-over reaction (Section 5.1):
            the r-th backup's flow may not exceed the healthy flow of the
            r-th primary (only meaningful in joint mode with the
            total-flow objective).
        exact_path_down: Add the tightening ``u_kp <= sum u_e`` so a path
            is marked down *iff* one of its LAGs is down.  The paper's
            Eq. 4 only forces the "if" direction (sound because a
            spuriously-down path never helps the adversary); the exact
            form keeps reported scenarios canonical.
        time_limit: Solver budget in seconds (MetaOpt's ``timeout``).
        mip_rel_gap: Optional relative MIP gap.
        minimize_performance: Optimize the *naive* objective of prior work
            (QARC [38] / Robust [9], Figure 3's baselines): minimize the
            failed network's performance instead of maximizing the gap to
            the design point.  The healthy value and degradation are then
            computed post hoc for the found (demand, scenario).  Only
            supported with the total-flow objective.
        verify: Re-solve the inner problems at the found solution and
            error out on mismatch (recommended; costs two LP solves).
        maxmin_bins / maxmin_alpha: Binner shape for
            ``objective="maxmin"``.
        maxmin_binner: ``"geometric"`` (default) or ``"equidepth"`` --
            the two single-shot max-min approximations the paper names
            (Section 3 / Appendix A).
        resilience: Graceful-degradation policy
            (:class:`ResilienceConfig`): the solver fallback ladder and
            whether an exhausted ladder may return a
            :class:`~repro.core.degradation.PartialResult`.
    """

    objective: str = "total_flow"
    fixed_demands: Mapping[Pair, float] | None = None
    demand_bounds: Mapping[Pair, tuple[float, float]] | None = None
    probability_threshold: float | None = None
    max_failures: int | None = None
    connected_enforced: bool = False
    naive_failover: bool = False
    exact_path_down: bool = True
    minimize_performance: bool = False
    time_limit: float | None = 1000.0
    mip_rel_gap: float | None = None
    verify: bool = True
    maxmin_bins: int = 5
    maxmin_alpha: float = 2.0
    maxmin_binner: str = "geometric"
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)
    extra_outer_constraints: list = field(default_factory=list)
    #: Callbacks ``(model, encoding, demand_exprs) -> None`` invoked after
    #: the failure encoding is built; they may post arbitrary linear
    #: constraints on the outer variables (Section 5.1: "we discuss
    #: example constraints but users can add others").  See
    #: tests/core/test_custom_constraints.py for examples.
    constraint_builders: list = field(default_factory=list)

    def __post_init__(self):
        if self.resilience is None:
            self.resilience = ResilienceConfig()
        if self.objective not in OBJECTIVES:
            raise ModelingError(
                f"unknown objective {self.objective!r}; pick from {OBJECTIVES}"
            )
        has_fixed = self.fixed_demands is not None
        has_bounds = self.demand_bounds is not None
        if has_fixed == has_bounds:
            raise ModelingError(
                "set exactly one of fixed_demands / demand_bounds"
            )
        if has_bounds:
            for pair, (lo, hi) in self.demand_bounds.items():
                if not (0 <= lo <= hi):
                    raise ModelingError(
                        f"demand bounds for {pair} must satisfy 0 <= lo <= hi, "
                        f"got ({lo}, {hi})"
                    )
                if hi == float("inf"):
                    raise ModelingError(
                        f"demand upper bound for {pair} must be finite (it is "
                        "also the big-M of the backup-activation product)"
                    )
        if has_fixed:
            for pair, volume in self.fixed_demands.items():
                if volume < 0:
                    raise ModelingError(f"negative fixed demand for {pair}")
        if self.probability_threshold is not None and not (
            0.0 < self.probability_threshold < 1.0
        ):
            raise ModelingError(
                f"probability threshold must be in (0, 1), got "
                f"{self.probability_threshold}"
            )
        if self.max_failures is not None and self.max_failures < 0:
            raise ModelingError(
                f"max_failures must be nonnegative, got {self.max_failures}"
            )
        if self.naive_failover and self.fixed_demands is not None:
            # With fixed demands the healthy solve happens outside the
            # MILP, so there is no healthy flow variable to couple to.
            raise ModelingError(
                "naive_failover requires the joint (demand_bounds) mode"
            )
        if self.maxmin_binner not in ("geometric", "equidepth"):
            raise ModelingError(
                f"unknown maxmin binner {self.maxmin_binner!r}"
            )
        if self.minimize_performance and self.objective != "total_flow":
            raise ModelingError(
                "minimize_performance is only supported with total_flow"
            )
        if self.objective == "mlu" and not self.connected_enforced:
            # Appendix A: MLU models are infeasible under disconnection.
            self.connected_enforced = True

    @property
    def pairs(self) -> list[Pair]:
        """The demand pairs this analysis covers."""
        source = self.fixed_demands if self.fixed_demands is not None \
            else self.demand_bounds
        return list(source.keys())

    def demand_upper(self, pair: Pair) -> float:
        """Finite upper bound on a pair's demand (fixed value or interval)."""
        if self.fixed_demands is not None:
            return float(self.fixed_demands[pair])
        return float(self.demand_bounds[pair][1])
