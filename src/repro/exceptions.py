"""Exception hierarchy for the repro package.

Every error raised on purpose by this library derives from
:class:`ReproError`, so callers can catch one type at the boundary.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SolverError(ReproError):
    """The backend LP/MILP solver failed or returned no usable solution."""


class InfeasibleError(SolverError):
    """A model was proven infeasible.

    The paper notes this arises naturally in MLU mode when failures fully
    disconnect a source-destination pair (Appendix A), which is why the
    connected-enforced constraint is mandatory there.
    """


class TopologyError(ReproError):
    """The topology input is malformed (unknown node, duplicate LAG, ...)."""


class PathError(ReproError):
    """Path computation or validation failed (no route, bad path, ...)."""


class CacheKeyError(ReproError):
    """A job payload cannot be content-addressed.

    Raised by :func:`repro.runner.cache.canonical_json` when a payload
    contains a value that does not round-trip through canonical JSON
    deterministically (NaN/Inf floats, or a non-JSON type).  The message
    names the offending payload field so the error surfacing from deep
    inside a worker pool points at the bad input, not at ``json.dumps``.
    """


class ServiceError(ReproError):
    """The analysis service failed an operation or returned an error.

    Raised by the service client on non-2xx HTTP responses and by the
    service stack for invalid submissions, unknown analyses, and store
    failures.  Carries ``status`` (the HTTP status code, when one
    applies) so callers can branch without parsing messages.
    """

    def __init__(self, message: str, status: int | None = None):
        super().__init__(message)
        self.status = status


class AdmissionError(ServiceError):
    """A submission was load-shed by the service's admission control.

    Maps to HTTP 429; ``retry_after`` carries the server's suggested
    back-off in seconds (the ``Retry-After`` header).
    """

    def __init__(self, message: str, retry_after: float | None = None):
        super().__init__(message, status=429)
        self.retry_after = retry_after


class BenchError(ReproError):
    """A benchmark run or comparison could not be made.

    Raised by :mod:`repro.bench` when the benchmark exits non-zero, a
    ``BENCH_*.json`` document is unreadable, or two documents cannot be
    compared.  Performance *regressions* are not errors -- ``repro
    bench compare`` and ``bench check`` report them through their exit
    code so CI can gate on them.
    """


class ModelingError(ReproError):
    """A formulation was assembled inconsistently.

    Raised, for example, when an adversarial inner problem is embedded with
    an aligned sign (which would make the bi-level reduction inexact), or
    when a big-M bound required for a linearization is missing or infinite.
    """


class VerificationError(ReproError):
    """Post-solve verification of inner-problem optimality failed.

    After the single-level MILP solves, Raha re-solves each inner problem
    as a plain LP at the chosen outer assignment and compares objectives.
    A mismatch means a big-M bound was too small; this error reports it
    instead of silently returning a wrong worst case.
    """
