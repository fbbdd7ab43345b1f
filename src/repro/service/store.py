"""Durable SQLite-backed job queue for the analysis service.

The store is the service's source of truth: every accepted job is a row
whose lifecycle walks a crash-safe state machine

    queued -> running -> done | failed | cancelled
    queued -> cancelled | quarantined
    queued -> failed             (missed end-to-end deadline)
    running -> queued            (recovery, lease reap, release)
    quarantined -> queued        (operator retry via the API)

with each transition a single committed SQLite transaction (WAL mode),
so a ``kill -9`` at any instant leaves a consistent database.  On
restart, :meth:`JobStore.recover` requeues anything left ``running`` --
an accepted job is never lost, and because the executor's
content-addressed result cache answers re-runs of already-solved work,
recovery never recomputes (or double-reports) a finished result.

Supervision (the self-healing layer on top of the state machine):

* **Leases** -- :meth:`JobStore.claim` stamps ``lease_expires_at``;
  busy workers renew it via :meth:`heartbeat`.  A lease that expires
  un-renewed means the worker is hung or dead, and
  :meth:`reap_expired` requeues the job with the same exactly-once
  audit transitions as startup recovery.
* **Fencing** -- every claim also stamps a fresh ``claim_token``, and
  :meth:`settle`, :meth:`heartbeat`, and :meth:`release` only act when
  presented with the token of the claim they belong to.  Without the
  token, a presumed-dead worker that wakes *after* its job was reaped
  and re-claimed could settle (or keep renewing) against the new
  claim; with it, every late write from a superseded claim is refused
  no matter what state the job has since reached.
* **Quarantine** -- a job whose store-level claims (attempts carried
  across crashes, restarts, and reaps) exhaust the supervision budget
  is moved by :meth:`quarantine_exhausted` to the terminal
  ``quarantined`` state with its last recorded error preserved,
  instead of crash-looping the pool.  :meth:`retry_quarantined`
  requeues it with a fresh attempt budget.
* **Deadlines** -- jobs may carry an absolute ``deadline_at``; queued
  jobs past it fail fast via :meth:`expire_deadlines` with a
  ``deadline_exceeded`` error, and the scheduler clamps the running
  wall timeout to the time remaining.
* **Cancellation** -- ``DELETE`` on an analysis cancels queued jobs
  outright and raises ``cancel_requested`` on running ones; the
  executor polls that flag cooperatively between dispatches.
* **Worker identity** -- consumers of the claim path (the local
  scheduler pool and remote ``repro worker`` agents alike) register in
  a ``workers`` table and stamp their id on each claim's
  ``claimed_by`` column, so :meth:`fleet` and :meth:`running_claims`
  can report fleet size and per-worker in-flight counts.  Identity is
  bookkeeping only; *fencing* is always the per-claim token.
* **Wake-up** -- every transition that makes a job claimable (submit,
  release, recovery and reap requeues, :meth:`retry_quarantined`) bumps
  a generation counter and wakes one waiter per claimable job, so an
  idle consumer blocked in :meth:`wait_for_work` claims it at once
  instead of sleeping out a poll interval.  The counter closes the
  lost-wakeup race: a waiter passes the generation it read *before*
  its empty claim, and returns at once if anything became claimable in
  between.  Writers in other processes are invisible to it; the
  caller's bounded wait is the fallback for those.

Identity and idempotence:

* A *job* is keyed by the runner's content address
  (:func:`repro.runner.cache.job_key` over the payload), so submitting
  the same work twice -- same topology, demands, paths, parameters --
  dedupes to the same row.
* An *analysis* (the HTTP resource) groups the jobs of one submitted
  sweep spec, keyed by the spec's content hash.  Resubmitting a spec
  returns the existing analysis unchanged.

Every state change is also appended to a ``transitions`` audit table,
which is what lets the crash-recovery tests assert "every job reached a
terminal state *exactly once*" rather than trusting the final snapshot.

Chaos: the ``store.crash_commit`` fault site fires immediately *after*
a claim commits -- inside a real server process it hard-exits
(``kill -9`` semantics, enabled by :data:`HARD_FAULTS`); in-process it
raises :class:`InjectedServiceCrash` so a test can kill one scheduler
worker without killing the test runner.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
import uuid

from repro.exceptions import ServiceError
from repro.resilience.faults import maybe_fire

#: Job states.  ``queued`` and ``running`` are the *live* states (their
#: cache entries are protected from eviction); the rest are terminal.
#: ``quarantined`` is terminal for the scheduler (never claimed) but
#: retriable by an operator via :meth:`JobStore.retry_quarantined`.
LIVE_STATES = ("queued", "running")
TERMINAL_STATES = ("done", "failed", "cancelled", "quarantined")
STATES = LIVE_STATES + TERMINAL_STATES

#: When True (set by the ``repro serve`` entry point), injected
#: ``store.*``/``service.*`` crash faults hard-exit the process --
#: genuine ``kill -9`` semantics for crash-recovery tests.  In-process
#: (the default) they raise :class:`InjectedServiceCrash` instead.
HARD_FAULTS = False

#: Exit code of a hard-fault crash, distinguishable from clean exits.
CRASH_EXIT_CODE = 23


class InjectedServiceCrash(Exception):
    """An injected service crash, degraded to an exception in-process."""


def service_crash(site: str, key: str = "") -> None:
    """Chaos hook for the service's crash sites (free with no plan)."""
    if maybe_fire(site, key=key):
        if HARD_FAULTS:
            os._exit(CRASH_EXIT_CODE)
        raise InjectedServiceCrash(f"chaos: injected service crash at {site}")


_SCHEMA = """
CREATE TABLE IF NOT EXISTS analyses (
    id           TEXT PRIMARY KEY,
    name         TEXT NOT NULL,
    client       TEXT NOT NULL,
    priority     INTEGER NOT NULL DEFAULT 0,
    total_jobs   INTEGER NOT NULL,
    submitted_at REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS jobs (
    analysis_id  TEXT NOT NULL,
    key          TEXT NOT NULL,
    label        TEXT NOT NULL,
    payload      TEXT NOT NULL,
    client       TEXT NOT NULL,
    priority     INTEGER NOT NULL DEFAULT 0,
    state        TEXT NOT NULL DEFAULT 'queued',
    status       TEXT,
    error        TEXT,
    attempts     INTEGER NOT NULL DEFAULT 0,
    submitted_at REAL NOT NULL,
    started_at   REAL,
    finished_at  REAL,
    lease_expires_at REAL,
    heartbeat_at REAL,
    claim_token  TEXT,
    deadline_at  REAL,
    cancel_requested INTEGER NOT NULL DEFAULT 0,
    claimed_by   TEXT,
    PRIMARY KEY (analysis_id, key)
);
CREATE INDEX IF NOT EXISTS jobs_by_state
    ON jobs (state, priority DESC, submitted_at ASC);
CREATE TABLE IF NOT EXISTS workers (
    id              TEXT PRIMARY KEY,
    kind            TEXT NOT NULL DEFAULT 'remote',
    host            TEXT,
    pid             INTEGER,
    capacity        INTEGER NOT NULL DEFAULT 1,
    registered_at   REAL NOT NULL,
    last_seen_at    REAL NOT NULL,
    deregistered_at REAL
);
CREATE TABLE IF NOT EXISTS transitions (
    analysis_id  TEXT NOT NULL,
    key          TEXT NOT NULL,
    from_state   TEXT NOT NULL,
    to_state     TEXT NOT NULL,
    at           REAL NOT NULL
);
"""


class JobStore:
    """The service's durable queue + bookkeeping, one SQLite file.

    Thread-safe: HTTP handler threads and scheduler workers share one
    instance (a single connection guarded by a lock; WAL journal mode
    keeps readers and the writer from blocking each other on disk).
    """

    def __init__(self, path: str | os.PathLike):
        self.path = str(path)
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._lock = threading.RLock()
        #: Bumped (under ``_work``) whenever a job becomes claimable.
        self._generation = 0
        self._work = threading.Condition(threading.Lock())
        self._conn = sqlite3.connect(
            self.path, check_same_thread=False, timeout=30.0)
        self._conn.row_factory = sqlite3.Row
        with self._lock:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=FULL")
            self._conn.executescript(_SCHEMA)
            self._migrate()
            self._conn.commit()

    def _migrate(self) -> None:
        """Bring a pre-supervision database up to the current schema.

        ``CREATE TABLE IF NOT EXISTS`` leaves an existing ``jobs`` table
        untouched, so the lease/deadline/cancellation columns are added
        here with ``ALTER TABLE`` when missing (idempotent; NULL/0
        defaults mean old rows behave exactly as before).
        """
        have = {row["name"] for row in self._conn.execute(
            "PRAGMA table_info(jobs)")}
        for column, decl in (
            ("lease_expires_at", "REAL"),
            ("heartbeat_at", "REAL"),
            ("claim_token", "TEXT"),
            ("deadline_at", "REAL"),
            ("cancel_requested", "INTEGER NOT NULL DEFAULT 0"),
            ("claimed_by", "TEXT"),
        ):
            if column not in have:
                self._conn.execute(
                    f"ALTER TABLE jobs ADD COLUMN {column} {decl}")

    def close(self) -> None:
        """Close the underlying connection (idempotent)."""
        with self._lock:
            try:
                self._conn.close()
            except sqlite3.Error:
                pass

    # -- wake-up -------------------------------------------------------

    @property
    def generation(self) -> int:
        """A counter that moves whenever a job becomes claimable here.

        Read it *before* claiming and hand it to :meth:`wait_for_work`
        after an empty claim.
        """
        with self._work:
            return self._generation

    def wait_for_work(self, generation: int, timeout: float) -> bool:
        """Block until a job became claimable after ``generation``.

        Returns at once when the generation already moved on (a job
        landed between the caller's read and now).  Otherwise it waits
        for a wake-up or for ``timeout`` seconds.

        Returns:
            Whether the generation moved (False on timeout).
        """
        with self._work:
            return self._work.wait_for(
                lambda: self._generation != generation, timeout)

    def wake_waiters(self) -> None:
        """Wake every :meth:`wait_for_work` caller (shutdown)."""
        with self._work:
            self._generation += 1
            self._work.notify_all()

    def _announce(self, claimable: int) -> None:
        """Bump the generation; wake one waiter per claimable job."""
        if claimable:
            with self._work:
                self._generation += 1
                self._work.notify(claimable)

    # -- submission ----------------------------------------------------

    def submit(self, analysis_id: str, name: str, client: str,
               jobs: list[tuple[str, str, dict]],
               priority: int = 0,
               deadline_seconds: float | None = None) -> dict:
        """Accept an analysis and its jobs; idempotent by content.

        Args:
            analysis_id: Content hash of the submitted spec.
            name: Human-readable campaign name.
            client: Submitting client identity (admission bookkeeping).
            jobs: ``(job_key, label, payload)`` triples, in sweep order.
            priority: Larger numbers are claimed first.
            deadline_seconds: Optional end-to-end budget; each job gets
                an absolute ``deadline_at`` of now + this.  Queued jobs
                past it fail fast (:meth:`expire_deadlines`); running
                jobs get their wall timeout clamped to the remainder.

        Returns:
            ``{"id", "deduped", "total_jobs"}`` -- ``deduped`` is True
            when the analysis already existed (the resubmission changed
            nothing; the caller gets the original resource).
        """
        if not jobs:
            raise ServiceError("an analysis needs at least one job",
                               status=400)
        now = time.time()
        deadline_at = None
        if deadline_seconds is not None:
            if deadline_seconds <= 0:
                raise ServiceError(
                    f"deadline_seconds must be > 0, got "
                    f"{deadline_seconds}", status=400)
            deadline_at = now + float(deadline_seconds)
        with self._lock:
            existing = self._conn.execute(
                "SELECT id FROM analyses WHERE id = ?", (analysis_id,)
            ).fetchone()
            if existing is not None:
                return {"id": analysis_id, "deduped": True,
                        "total_jobs": self._total_jobs(analysis_id)}
            self._conn.execute(
                "INSERT INTO analyses (id, name, client, priority, "
                "total_jobs, submitted_at) VALUES (?, ?, ?, ?, ?, ?)",
                (analysis_id, name, client, priority, len(jobs), now),
            )
            for key, label, payload in jobs:
                self._conn.execute(
                    "INSERT INTO jobs (analysis_id, key, label, payload, "
                    "client, priority, state, submitted_at, deadline_at) "
                    "VALUES (?, ?, ?, ?, ?, ?, 'queued', ?, ?)",
                    (analysis_id, key, label,
                     json.dumps(payload, sort_keys=True), client, priority,
                     now, deadline_at),
                )
            self._conn.commit()
        self._announce(len(jobs))
        service_crash("store.crash_commit", key=analysis_id)
        return {"id": analysis_id, "deduped": False,
                "total_jobs": len(jobs)}

    def _total_jobs(self, analysis_id: str) -> int:
        row = self._conn.execute(
            "SELECT total_jobs FROM analyses WHERE id = ?", (analysis_id,)
        ).fetchone()
        return int(row["total_jobs"]) if row is not None else 0

    # -- the queue -----------------------------------------------------

    def claim(self, lease_seconds: float | None = None,
              worker_id: str | None = None) -> dict | None:
        """Atomically move the best queued job to ``running``.

        Claim order: priority (descending), then submission time, then
        key -- deterministic, so two stores replaying the same
        submissions drain identically.

        Args:
            lease_seconds: Time-bound the claim: the job's
                ``lease_expires_at`` is stamped now + this, and unless
                the worker renews it via :meth:`heartbeat` the reaper
                (:meth:`reap_expired`) requeues the job once it lapses.
                ``None`` grants an unbounded claim (legacy behavior).
            worker_id: Identity of the claiming worker (local pool or a
                remote agent), stamped on the job's ``claimed_by``
                column so :meth:`fleet` and :meth:`running_claims` can
                attribute in-flight work.  Also refreshes the worker's
                ``last_seen_at`` when it is registered.

        Every claim -- leased or not -- also mints a fresh
        ``claim_token`` (the fencing token): subsequent
        :meth:`heartbeat`, :meth:`settle`, and :meth:`release` calls
        that present the token only act on *this* claim, so a
        presumed-dead worker whose job was reaped and re-claimed can
        neither settle over nor keep alive the new claim.

        Returns:
            The claimed job row as a dict (``payload`` parsed,
            ``claim_token`` included), or ``None`` when the queue is
            empty.
        """
        now = time.time()
        lease_expires_at = None if lease_seconds is None \
            else now + float(lease_seconds)
        claim_token = uuid.uuid4().hex
        with self._lock:
            row = self._conn.execute(
                "SELECT analysis_id, key, label, payload, attempts, "
                "deadline_at, cancel_requested "
                "FROM jobs WHERE state = 'queued' "
                "ORDER BY priority DESC, submitted_at ASC, key ASC LIMIT 1"
            ).fetchone()
            if row is None:
                return None
            self._conn.execute(
                "UPDATE jobs SET state = 'running', started_at = ?, "
                "attempts = attempts + 1, lease_expires_at = ?, "
                "heartbeat_at = ?, claim_token = ?, claimed_by = ? "
                "WHERE analysis_id = ? AND key = ?",
                (now, lease_expires_at, now, claim_token, worker_id,
                 row["analysis_id"], row["key"]),
            )
            self._record_transition(row["analysis_id"], row["key"],
                                    "queued", "running", now)
            if worker_id is not None:
                self._touch_worker_locked(worker_id, now)
            self._conn.commit()
        service_crash("store.crash_commit", key=row["key"])
        return {
            "analysis_id": row["analysis_id"],
            "key": row["key"],
            "label": row["label"],
            "payload": json.loads(row["payload"]),
            "attempts": int(row["attempts"]) + 1,
            "deadline_at": (None if row["deadline_at"] is None
                            else float(row["deadline_at"])),
            "cancel_requested": bool(row["cancel_requested"]),
            "lease_expires_at": lease_expires_at,
            "claim_token": claim_token,
        }

    def heartbeat(self, analysis_id: str, key: str,
                  lease_seconds: float, token: str) -> str:
        """Renew a running job's lease (called by the worker's
        heartbeat thread while ``run_sweep`` executes).

        The renewal is fenced on ``token`` (the ``claim_token`` handed
        out by :meth:`claim`): a beat from a superseded claim -- the
        job was reaped and re-claimed by another worker -- never
        extends the new claim's lease, so a genuinely hung re-claim
        still gets reaped even while the old worker's heartbeat thread
        is alive.

        The ``lease.heartbeat`` chaos site models a stalled heartbeat:
        when it fires, the renewal is silently dropped -- the lease
        keeps aging and, if enough beats are dropped, the reaper
        requeues a job whose worker is in fact still computing.  (The
        stale worker's eventual settle is then refused by the fencing
        guard and discarded by the scheduler.)

        Returns:
            ``"renewed"`` when the lease was extended, ``"dropped"``
            when the chaos site swallowed the beat (worth retrying),
            or ``"lost"`` when this claim no longer owns the job --
            it was reaped, settled, or re-claimed -- and the caller
            should stop beating.
        """
        if maybe_fire("lease.heartbeat", key=key):
            return "dropped"
        now = time.time()
        with self._lock:
            updated = self._conn.execute(
                "UPDATE jobs SET lease_expires_at = ?, heartbeat_at = ? "
                "WHERE analysis_id = ? AND key = ? AND state = 'running' "
                "AND claim_token = ?",
                (now + float(lease_seconds), now, analysis_id, key, token),
            ).rowcount
            if updated:
                row = self._conn.execute(
                    "SELECT claimed_by FROM jobs "
                    "WHERE analysis_id = ? AND key = ?", (analysis_id, key)
                ).fetchone()
                if row is not None and row["claimed_by"]:
                    self._touch_worker_locked(row["claimed_by"], now)
            self._conn.commit()
        return "renewed" if updated else "lost"

    def settle(self, analysis_id: str, key: str, state: str,
               status: str | None = None, error: str | None = None,
               token: str | None = None) -> None:
        """Move a ``running`` job to a terminal state (one transaction).

        Args:
            state: ``done``, ``failed``, or ``cancelled`` (the last for
                a running job cooperatively cancelled by the executor).
            status: The runner's settle status (``done``/``cached``/
                ``resumed``/``error``/``timeout``/``cancelled``) for
                observability.
            error: Structured error text for failed jobs.
            token: The claim's fencing token.  When given, the settle
                only lands if this claim still owns the job -- a late
                settle from a worker whose job was reaped and
                re-claimed is refused *even though the job is
                ``running`` again* (under somebody else's claim).
                ``None`` skips the fence (direct store surgery only;
                the scheduler always fences).
        """
        if state not in ("done", "failed", "cancelled"):
            raise ServiceError(f"cannot settle a job to {state!r}")
        now = time.time()
        query = ("UPDATE jobs SET state = ?, status = ?, error = ?, "
                 "finished_at = ?, lease_expires_at = NULL, "
                 "claim_token = NULL, claimed_by = NULL "
                 "WHERE analysis_id = ? AND key = ? AND state = 'running'")
        params: tuple = (state, status, error, now, analysis_id, key)
        if token is not None:
            query += " AND claim_token = ?"
            params += (token,)
        with self._lock:
            updated = self._conn.execute(query, params).rowcount
            if updated:
                self._record_transition(analysis_id, key, "running", state,
                                        now)
            self._conn.commit()
        if not updated:
            raise ServiceError(
                f"job {key[:12]} of analysis {analysis_id[:12]} is not "
                "running under this claim; refusing to settle it"
            )

    def cancel_analysis(self, analysis_id: str) -> dict | None:
        """Cancel an analysis: queued jobs immediately, running jobs
        cooperatively.

        Queued jobs transition to ``cancelled`` outright; running jobs
        get ``cancel_requested`` raised, which the executor polls
        between dispatches (the scheduler then settles them
        ``cancelled``).

        Returns:
            ``None`` when the analysis does not exist (the API maps
            this to 404).  Otherwise ``{"cancelled", "cancelling",
            "already_terminal"}`` -- ``already_terminal`` is True when
            every job was already in a terminal state, so there was
            nothing to cancel (the API maps this to 409, distinguishable
            from the unknown-analysis case).
        """
        now = time.time()
        with self._lock:
            exists = self._conn.execute(
                "SELECT id FROM analyses WHERE id = ?", (analysis_id,)
            ).fetchone()
            if exists is None:
                return None
            rows = self._conn.execute(
                "SELECT key FROM jobs WHERE analysis_id = ? "
                "AND state = 'queued'", (analysis_id,)
            ).fetchall()
            for row in rows:
                self._conn.execute(
                    "UPDATE jobs SET state = 'cancelled', finished_at = ?, "
                    "lease_expires_at = NULL "
                    "WHERE analysis_id = ? AND key = ? AND state = 'queued'",
                    (now, analysis_id, row["key"]),
                )
                self._record_transition(analysis_id, row["key"], "queued",
                                        "cancelled", now)
            cancelling = self._conn.execute(
                "UPDATE jobs SET cancel_requested = 1 "
                "WHERE analysis_id = ? AND state = 'running'",
                (analysis_id,),
            ).rowcount
            live = self._conn.execute(
                "SELECT COUNT(*) AS n FROM jobs WHERE analysis_id = ? "
                "AND state IN ('queued', 'running')", (analysis_id,)
            ).fetchone()
            self._conn.commit()
        return {
            "cancelled": len(rows),
            "cancelling": int(cancelling),
            "already_terminal": (not rows and not cancelling
                                 and int(live["n"]) == 0),
        }

    def cancel_requested(self, analysis_id: str, key: str) -> bool:
        """Whether a cooperative cancel has been requested for a job.

        This is the flag the executor's ``cancel_check`` polls between
        job dispatches while the job runs.
        """
        with self._lock:
            row = self._conn.execute(
                "SELECT cancel_requested FROM jobs "
                "WHERE analysis_id = ? AND key = ?", (analysis_id, key)
            ).fetchone()
        return bool(row and row["cancel_requested"])

    def release(self, analysis_id: str, key: str,
                token: str | None = None) -> bool:
        """Return a claimed-but-never-started job to the queue.

        The drain path: a worker that claimed a job and was stopped
        before the attempt began hands it back, so a graceful shutdown
        leaves nothing in ``running``.  The claim's attempt is refunded
        -- it never executed.  With ``token``, the release is fenced
        like :meth:`settle`: a stale worker cannot refund or requeue a
        job somebody else has since claimed.

        Returns:
            Whether the job was released (False if it was not running,
            or no longer running under this claim).
        """
        now = time.time()
        query = ("UPDATE jobs SET state = 'queued', started_at = NULL, "
                 "attempts = MAX(0, attempts - 1), "
                 "lease_expires_at = NULL, heartbeat_at = NULL, "
                 "claim_token = NULL, claimed_by = NULL "
                 "WHERE analysis_id = ? AND key = ? AND state = 'running'")
        params: tuple = (analysis_id, key)
        if token is not None:
            query += " AND claim_token = ?"
            params += (token,)
        with self._lock:
            updated = self._conn.execute(query, params).rowcount
            if updated:
                self._record_transition(analysis_id, key, "running",
                                        "queued", now)
            self._conn.commit()
        self._announce(updated)
        return bool(updated)

    def _requeue_running_locked(self, rows, now: float,
                                reason: str) -> list[dict]:
        """Requeue a batch of ``running`` rows (recovery/reap core).

        Shared by :meth:`recover` and :meth:`reap_expired` so both use
        identical exactly-once audit semantics: each job gets one
        ``running -> queued`` transition, keeps its ``attempts`` (so a
        poison job still converges to quarantine), has its lease and
        heartbeat cleared, and records ``reason`` as its last error.
        Rows with a pending cooperative cancel go straight to
        ``cancelled`` instead -- requeueing work nobody wants is worse
        than honoring the cancel late.
        """
        out = []
        for row in rows:
            if row["cancel_requested"]:
                self._conn.execute(
                    "UPDATE jobs SET state = 'cancelled', status = "
                    "'cancelled', error = ?, finished_at = ?, "
                    "started_at = NULL, lease_expires_at = NULL, "
                    "heartbeat_at = NULL, claim_token = NULL, "
                    "claimed_by = NULL "
                    "WHERE analysis_id = ? AND key = ? "
                    "AND state = 'running'",
                    (f"cancelled by client ({reason})", now,
                     row["analysis_id"], row["key"]),
                )
                self._record_transition(row["analysis_id"], row["key"],
                                        "running", "cancelled", now)
                out.append({"analysis_id": row["analysis_id"],
                            "key": row["key"],
                            "attempts": int(row["attempts"]),
                            "requeued": False})
                continue
            self._conn.execute(
                "UPDATE jobs SET state = 'queued', started_at = NULL, "
                "lease_expires_at = NULL, heartbeat_at = NULL, "
                "claim_token = NULL, claimed_by = NULL, error = ? "
                "WHERE analysis_id = ? AND key = ? AND state = 'running'",
                (reason, row["analysis_id"], row["key"]),
            )
            self._record_transition(row["analysis_id"], row["key"],
                                    "running", "queued", now)
            out.append({"analysis_id": row["analysis_id"],
                        "key": row["key"],
                        "attempts": int(row["attempts"]),
                        "requeued": True})
        return out

    def recover(self) -> int:
        """Requeue jobs left ``running`` by a dead process (startup).

        Clears the stale lease and heartbeat columns along the way --
        a recovered job must look freshly queued, not mid-lease.

        Returns:
            How many jobs were recovered.  Their ``attempts`` counter
            keeps the crashed attempt, so a poisonous job that kills
            the service repeatedly still converges to ``quarantined``
            once the supervision budget is spent.
        """
        now = time.time()
        with self._lock:
            rows = self._conn.execute(
                "SELECT analysis_id, key, attempts, cancel_requested "
                "FROM jobs WHERE state = 'running'"
            ).fetchall()
            recovered = self._requeue_running_locked(
                rows, now, "process died while this job was running")
            self._conn.commit()
        self._announce(sum(job["requeued"] for job in recovered))
        return len(recovered)

    def reap_expired(self) -> list[dict]:
        """Requeue running jobs whose lease lapsed (the reaper's core).

        A lapsed lease means the worker holding the job is hung or its
        process died without the store noticing.  Same exactly-once
        audit transitions as :meth:`recover`: one ``running -> queued``
        per reaped job, ``attempts`` preserved (poison jobs converge to
        quarantine), lease/heartbeat cleared.  Jobs with a pending
        cooperative cancel settle ``cancelled`` instead of requeueing.

        Returns:
            One dict per affected job: ``{"analysis_id", "key",
            "attempts", "requeued"}`` (``requeued`` False for the
            cancelled ones).
        """
        now = time.time()
        with self._lock:
            rows = self._conn.execute(
                "SELECT analysis_id, key, attempts, cancel_requested, "
                "lease_expires_at FROM jobs WHERE state = 'running' "
                "AND lease_expires_at IS NOT NULL "
                "AND lease_expires_at < ?", (now,)
            ).fetchall()
            reaped = self._requeue_running_locked(
                rows, now,
                "lease expired: worker presumed hung or dead")
            self._conn.commit()
        self._announce(sum(job["requeued"] for job in reaped))
        return reaped

    def expire_deadlines(self) -> list[dict]:
        """Fail queued jobs whose end-to-end deadline has passed.

        A job that cannot start before its client's deadline should
        fail *now* with a structured ``deadline_exceeded`` error, not
        burn a worker slot producing an answer nobody is waiting for.
        (Running jobs are covered separately: the scheduler clamps
        their wall timeout to the time remaining.)

        Returns:
            One ``{"analysis_id", "key"}`` dict per expired job.
        """
        now = time.time()
        with self._lock:
            rows = self._conn.execute(
                "SELECT analysis_id, key, deadline_at FROM jobs "
                "WHERE state = 'queued' AND deadline_at IS NOT NULL "
                "AND deadline_at < ?", (now,)
            ).fetchall()
            for row in rows:
                overdue = now - float(row["deadline_at"])
                self._conn.execute(
                    "UPDATE jobs SET state = 'failed', "
                    "status = 'deadline_exceeded', error = ?, "
                    "finished_at = ?, lease_expires_at = NULL "
                    "WHERE analysis_id = ? AND key = ? "
                    "AND state = 'queued'",
                    (f"deadline_exceeded: still queued {overdue:.3f}s "
                     f"past the end-to-end deadline", now,
                     row["analysis_id"], row["key"]),
                )
                self._record_transition(row["analysis_id"], row["key"],
                                        "queued", "failed", now)
            self._conn.commit()
        return [{"analysis_id": row["analysis_id"], "key": row["key"]}
                for row in rows]

    def quarantine_exhausted(self, max_attempts: int) -> list[dict]:
        """Quarantine queued jobs whose claim budget is spent.

        ``attempts`` counts store-level claims and survives crashes,
        restarts, and lease reaps -- so a job that repeatedly kills its
        worker (or the whole service) accumulates attempts across
        recoveries and lands here instead of crash-looping the pool.
        The transition is terminal and exactly-once; the job's last
        recorded error (what recovery/reap observed) is preserved in
        the quarantine message.

        Returns:
            One ``{"analysis_id", "key", "attempts"}`` per job moved to
            ``quarantined``.
        """
        now = time.time()
        with self._lock:
            rows = self._conn.execute(
                "SELECT analysis_id, key, attempts, error FROM jobs "
                "WHERE state = 'queued' AND attempts >= ?",
                (int(max_attempts),)
            ).fetchall()
            for row in rows:
                last = row["error"] or "no error recorded"
                self._conn.execute(
                    "UPDATE jobs SET state = 'quarantined', "
                    "status = 'quarantined', error = ?, finished_at = ?, "
                    "lease_expires_at = NULL "
                    "WHERE analysis_id = ? AND key = ? "
                    "AND state = 'queued'",
                    (f"quarantined after {int(row['attempts'])} "
                     f"attempt(s); last error: {last}", now,
                     row["analysis_id"], row["key"]),
                )
                self._record_transition(row["analysis_id"], row["key"],
                                        "queued", "quarantined", now)
            self._conn.commit()
        return [{"analysis_id": row["analysis_id"], "key": row["key"],
                 "attempts": int(row["attempts"])} for row in rows]

    def quarantined_jobs(self, analysis_id: str | None = None
                         ) -> list[dict]:
        """Quarantined job rows (optionally of one analysis), oldest
        first -- the API's quarantine listing."""
        query = ("SELECT analysis_id, key, label, attempts, error, "
                 "finished_at FROM jobs WHERE state = 'quarantined'")
        params: tuple = ()
        if analysis_id is not None:
            query += " AND analysis_id = ?"
            params = (analysis_id,)
        query += " ORDER BY finished_at ASC, key ASC"
        with self._lock:
            rows = self._conn.execute(query, params).fetchall()
        return [
            {
                "analysis_id": row["analysis_id"],
                "key": row["key"],
                "label": row["label"],
                "attempts": int(row["attempts"]),
                "error": row["error"],
                "quarantined_at": (None if row["finished_at"] is None
                                   else float(row["finished_at"])),
            }
            for row in rows
        ]

    def retry_quarantined(self, analysis_id: str) -> int:
        """Requeue an analysis's quarantined jobs with a fresh budget.

        The operator's second chance: attempts reset to zero, the
        error/status scratch cleared, cancellation flag dropped.  Each
        job gets one audited ``quarantined -> queued`` transition.

        Returns:
            How many jobs were requeued.
        """
        now = time.time()
        with self._lock:
            rows = self._conn.execute(
                "SELECT key FROM jobs WHERE analysis_id = ? "
                "AND state = 'quarantined'", (analysis_id,)
            ).fetchall()
            for row in rows:
                self._conn.execute(
                    "UPDATE jobs SET state = 'queued', attempts = 0, "
                    "status = NULL, error = NULL, started_at = NULL, "
                    "finished_at = NULL, lease_expires_at = NULL, "
                    "heartbeat_at = NULL, claim_token = NULL, "
                    "claimed_by = NULL, cancel_requested = 0 "
                    "WHERE analysis_id = ? AND key = ? "
                    "AND state = 'quarantined'",
                    (analysis_id, row["key"]),
                )
                self._record_transition(analysis_id, row["key"],
                                        "quarantined", "queued", now)
            self._conn.commit()
        self._announce(len(rows))
        return len(rows)

    # -- the worker fleet ----------------------------------------------

    def register_worker(self, worker_id: str, kind: str = "remote",
                        host: str | None = None, pid: int | None = None,
                        capacity: int = 1) -> dict:
        """Register (or re-register) a worker identity.

        Workers announce themselves before claiming: the local
        scheduler pool registers once as ``kind='local'``, each remote
        agent as ``kind='remote'`` with its host/pid.  Registration is
        an upsert -- an agent that restarts under the same identity
        simply refreshes its row and clears any ``deregistered_at``
        stamp from a previous drain.

        Returns:
            The worker's row as a dict (see :meth:`fleet`).
        """
        now = time.time()
        with self._lock:
            self._conn.execute(
                "INSERT INTO workers (id, kind, host, pid, capacity, "
                "registered_at, last_seen_at, deregistered_at) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, NULL) "
                "ON CONFLICT(id) DO UPDATE SET kind = excluded.kind, "
                "host = excluded.host, pid = excluded.pid, "
                "capacity = excluded.capacity, "
                "last_seen_at = excluded.last_seen_at, "
                "deregistered_at = NULL",
                (worker_id, kind, host, pid, int(capacity), now, now),
            )
            self._conn.commit()
        return {"id": worker_id, "kind": kind, "host": host, "pid": pid,
                "capacity": int(capacity), "registered_at": now,
                "last_seen_at": now, "deregistered_at": None,
                "inflight": 0}

    def deregister_worker(self, worker_id: str) -> bool:
        """Stamp a worker as drained (it stops counting toward the
        fleet).  Its in-flight claims, if any, are left to lapse and be
        reaped -- deregistration is bookkeeping, not revocation.

        Returns:
            Whether the worker was known.
        """
        now = time.time()
        with self._lock:
            updated = self._conn.execute(
                "UPDATE workers SET deregistered_at = ?, last_seen_at = ? "
                "WHERE id = ?", (now, now, worker_id),
            ).rowcount
            self._conn.commit()
        return bool(updated)

    def _touch_worker_locked(self, worker_id: str, now: float) -> None:
        """Refresh a worker's liveness stamp (claim/heartbeat path)."""
        self._conn.execute(
            "UPDATE workers SET last_seen_at = ? WHERE id = ?",
            (now, worker_id),
        )

    def fleet(self, include_deregistered: bool = False) -> list[dict]:
        """The registered worker fleet with per-worker in-flight counts.

        Feeds the ``/healthz``/``/metricz`` fleet gauges: one row per
        worker, ``inflight`` counting the ``running`` jobs currently
        stamped ``claimed_by`` that worker.  Drained workers are
        excluded unless ``include_deregistered``.
        """
        query = ("SELECT w.*, (SELECT COUNT(*) FROM jobs j "
                 "WHERE j.claimed_by = w.id AND j.state = 'running') "
                 "AS inflight FROM workers w")
        if not include_deregistered:
            query += " WHERE w.deregistered_at IS NULL"
        query += " ORDER BY w.registered_at ASC, w.id ASC"
        with self._lock:
            rows = self._conn.execute(query).fetchall()
        return [
            {
                "id": row["id"],
                "kind": row["kind"],
                "host": row["host"],
                "pid": (None if row["pid"] is None else int(row["pid"])),
                "capacity": int(row["capacity"]),
                "registered_at": float(row["registered_at"]),
                "last_seen_at": float(row["last_seen_at"]),
                "deregistered_at": (
                    None if row["deregistered_at"] is None
                    else float(row["deregistered_at"])),
                "inflight": int(row["inflight"]),
            }
            for row in rows
        ]

    def running_claims(self) -> list[dict]:
        """Active claims: every ``running`` job with its holder and
        lease -- the ``GET /v1/claims`` listing an operator reads to see
        who is working on what (and whose lease is about to lapse)."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT analysis_id, key, label, attempts, claimed_by, "
                "started_at, heartbeat_at, lease_expires_at, "
                "cancel_requested FROM jobs WHERE state = 'running' "
                "ORDER BY started_at ASC, key ASC"
            ).fetchall()
        return [
            {
                "analysis_id": row["analysis_id"],
                "key": row["key"],
                "label": row["label"],
                "attempts": int(row["attempts"]),
                "worker": row["claimed_by"],
                "started_at": (None if row["started_at"] is None
                               else float(row["started_at"])),
                "heartbeat_at": (None if row["heartbeat_at"] is None
                                 else float(row["heartbeat_at"])),
                "lease_expires_at": (
                    None if row["lease_expires_at"] is None
                    else float(row["lease_expires_at"])),
                "cancel_requested": bool(row["cancel_requested"]),
            }
            for row in rows
        ]

    def _record_transition(self, analysis_id: str, key: str,
                           from_state: str, to_state: str,
                           at: float) -> None:
        self._conn.execute(
            "INSERT INTO transitions (analysis_id, key, from_state, "
            "to_state, at) VALUES (?, ?, ?, ?, ?)",
            (analysis_id, key, from_state, to_state, at),
        )

    # -- introspection -------------------------------------------------

    def depth(self) -> int:
        """Live (queued + running) jobs -- the admission-control load."""
        with self._lock:
            row = self._conn.execute(
                "SELECT COUNT(*) AS n FROM jobs WHERE state IN "
                "('queued', 'running')"
            ).fetchone()
        return int(row["n"])

    def inflight_for(self, client: str) -> int:
        """One client's live jobs (per-client admission cap)."""
        with self._lock:
            row = self._conn.execute(
                "SELECT COUNT(*) AS n FROM jobs WHERE client = ? "
                "AND state IN ('queued', 'running')", (client,)
            ).fetchone()
        return int(row["n"])

    def active_clients(self) -> int:
        """Distinct clients with live jobs -- sizes each client's fair
        share of the worker pool for ``Retry-After`` estimates."""
        with self._lock:
            row = self._conn.execute(
                "SELECT COUNT(DISTINCT client) AS n FROM jobs "
                "WHERE state IN ('queued', 'running')"
            ).fetchone()
        return int(row["n"])

    def live_keys(self) -> set[str]:
        """Keys of live jobs -- the eviction-protected set."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT DISTINCT key FROM jobs WHERE state IN "
                "('queued', 'running')"
            ).fetchall()
        return {row["key"] for row in rows}

    def recent_job_seconds(self, window: int = 20) -> float | None:
        """Mean service time of the last ``window`` finished jobs.

        Feeds the ``Retry-After`` hint; ``None`` with no history.
        """
        with self._lock:
            rows = self._conn.execute(
                "SELECT finished_at - started_at AS seconds FROM jobs "
                "WHERE state IN ('done', 'failed') "
                "AND started_at IS NOT NULL AND finished_at IS NOT NULL "
                "ORDER BY finished_at DESC LIMIT ?", (window,)
            ).fetchall()
        seconds = [max(0.0, float(row["seconds"])) for row in rows]
        if not seconds:
            return None
        return sum(seconds) / len(seconds)

    def analysis_status(self, analysis_id: str) -> dict | None:
        """The HTTP status document of one analysis, or ``None``.

        The analysis-level ``state`` derives from its jobs: ``failed``
        if any failed, else ``quarantined`` if any are quarantined,
        else ``cancelled`` if any were cancelled (and the rest are
        terminal), else ``done`` when all jobs are done, ``running``
        when any is, else ``queued``.
        """
        with self._lock:
            analysis = self._conn.execute(
                "SELECT * FROM analyses WHERE id = ?", (analysis_id,)
            ).fetchone()
            if analysis is None:
                return None
            rows = self._conn.execute(
                "SELECT state, COUNT(*) AS n FROM jobs "
                "WHERE analysis_id = ? GROUP BY state", (analysis_id,)
            ).fetchall()
        counts = {state: 0 for state in STATES}
        counts.update({row["state"]: int(row["n"]) for row in rows})
        total = sum(counts.values())
        terminal = sum(counts[state] for state in TERMINAL_STATES)
        if counts["running"]:
            state = "running"
        elif counts["queued"]:
            state = "queued"
        elif counts["failed"]:
            state = "failed"
        elif counts["quarantined"]:
            state = "quarantined"
        elif counts["cancelled"]:
            state = "cancelled"
        else:
            state = "done"
        return {
            "id": analysis_id,
            "name": analysis["name"],
            "client": analysis["client"],
            "priority": int(analysis["priority"]),
            "submitted_at": float(analysis["submitted_at"]),
            "state": state,
            "total_jobs": total,
            "counts": counts,
            "finished": terminal == total,
        }

    def analysis_jobs(self, analysis_id: str) -> list[dict]:
        """Job rows of one analysis, in submission (sweep) order.

        Each row carries its payload's ``params``, cut out of the stored
        JSON by SQLite (number literals copied verbatim), so the
        instance -- most of every payload -- is never decoded.
        """
        with self._lock:
            rows = self._conn.execute(
                "SELECT key, label, json_extract(payload, '$.params') "
                "AS params, state, status, error, attempts FROM jobs "
                "WHERE analysis_id = ? ORDER BY rowid",
                (analysis_id,)
            ).fetchall()
        return [
            {
                "key": row["key"],
                "label": row["label"],
                "params": json.loads(row["params"] or "{}"),
                "state": row["state"],
                "status": row["status"],
                "error": row["error"],
                "attempts": int(row["attempts"]),
            }
            for row in rows
        ]

    def transitions(self, analysis_id: str | None = None) -> list[dict]:
        """The audit log (optionally one analysis), oldest first."""
        query = ("SELECT analysis_id, key, from_state, to_state, at "
                 "FROM transitions")
        params: tuple = ()
        if analysis_id is not None:
            query += " WHERE analysis_id = ?"
            params = (analysis_id,)
        query += " ORDER BY rowid"
        with self._lock:
            rows = self._conn.execute(query, params).fetchall()
        return [dict(row) for row in rows]

    def counts(self) -> dict[str, int]:
        """Global job counts by state (for ``/healthz``)."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT state, COUNT(*) AS n FROM jobs GROUP BY state"
            ).fetchall()
        out = {state: 0 for state in STATES}
        out.update({row["state"]: int(row["n"]) for row in rows})
        return out
