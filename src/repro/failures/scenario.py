"""Concrete failure scenarios and failed-network simulation.

A scenario names the set of failed physical links.  Applying it to a
topology and path set reproduces the network behavior Section 5 encodes
into the MILP:

* a LAG's residual capacity is the sum of its surviving links (partial
  failures);
* a LAG is *down* only when all its links are down (Eq. 3);
* a path is down when any of its LAGs is down (Eq. 4);
* the r-th backup path is usable only once at least ``r`` higher-priority
  paths are down (Eq. 5).

:func:`simulate_failed_network` runs the plain TE LP under these rules --
the ground truth that both the baselines and the bi-level verification
compare against.  :func:`simulate_failed_mlu` is its MLU counterpart
(Appendix A), which also takes down paths out of use.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from repro.exceptions import TopologyError
from repro.network.demand import Pair
from repro.network.topology import LagKey, Topology, lag_key
from repro.paths.ksp import Path
from repro.paths.pathset import DemandPaths, PathSet
from repro.te.base import TESolution
from repro.te.mlu import MluTE
from repro.te.total_flow import TotalFlowTE

#: One failed physical link: (canonical LAG key, link index inside it).
FailedLink = tuple[LagKey, int]


class FailureScenario:
    """An immutable set of failed physical links.

    Build from explicit links, or whole LAGs via :meth:`from_lags`.
    """

    __slots__ = ("_failed",)

    def __init__(self, failed_links: Iterable[FailedLink] = ()):
        normalized = {(lag_key(*key), int(idx)) for key, idx in failed_links}
        self._failed: frozenset[FailedLink] = frozenset(normalized)

    @classmethod
    def from_canonical(cls, failed_links: frozenset[FailedLink]
                       ) -> FailureScenario:
        """A scenario over links already in canonical form.

        Every link must be a ``(lag_key(u, v), int)`` pair, as
        ``(lag.key, i)`` of a topology's own LAGs are; the set is used
        as it is, without the per-link normalization of the
        constructor.
        """
        scenario = cls.__new__(cls)
        scenario._failed = failed_links
        return scenario

    @classmethod
    def from_lags(cls, topology: Topology, lag_keys: Iterable[LagKey]
                  ) -> FailureScenario:
        """A scenario that fails every link of the named LAGs."""
        failed = []
        for key in lag_keys:
            lag = topology.lag_between(*key)
            if lag is None:
                raise TopologyError(f"no LAG {key} to fail")
            failed += [(lag.key, i) for i in range(lag.num_links)]
        return cls(failed)

    @property
    def failed_links(self) -> frozenset[FailedLink]:
        return self._failed

    @property
    def num_failed_links(self) -> int:
        """Total failed links -- the paper's "number of failures"."""
        return len(self._failed)

    def is_failed(self, key: LagKey, link_index: int) -> bool:
        return (lag_key(*key), link_index) in self._failed

    def validate_for(self, topology: Topology) -> None:
        """Check every failed link exists."""
        for key, idx in self._failed:
            lag = topology.lag_between(*key)
            if lag is None:
                raise TopologyError(f"scenario fails unknown LAG {key}")
            if not (0 <= idx < lag.num_links):
                raise TopologyError(
                    f"scenario fails link {idx} of {key} which has only "
                    f"{lag.num_links} links"
                )

    def residual_capacities(self, topology: Topology) -> dict[LagKey, float]:
        """Per-LAG capacity after removing failed links (``c_e``)."""
        self.validate_for(topology)
        caps = {}
        for lag in topology.lags:
            caps[lag.key] = sum(
                link.capacity
                for i, link in enumerate(lag.links)
                if (lag.key, i) not in self._failed
            )
        return caps

    def down_lags(self, topology: Topology) -> set[LagKey]:
        """LAGs with *all* links failed (Eq. 3 semantics)."""
        self.validate_for(topology)
        down = set()
        for lag in topology.lags:
            if all((lag.key, i) in self._failed for i in range(lag.num_links)):
                down.add(lag.key)
        return down

    def union(self, other: FailureScenario) -> FailureScenario:
        return FailureScenario(self._failed | other._failed)

    def applied_to(self, topology: Topology) -> Topology:
        """A copy of the topology with the failed links *removed*.

        This is the paper's online loop ("[Raha] runs immediately after
        each failure occurs"): once a failure has actually happened, the
        operator re-analyzes the degraded WAN.  Surviving links keep
        their capacities and probabilities; a LAG whose links all failed
        is kept as a zero-capacity, non-failable stub so configured paths
        remain structurally valid (they simply cannot carry traffic).
        """
        from repro.network.topology import Link

        self.validate_for(topology)
        out = topology.copy(name=f"{topology.name}-degraded")
        for lag in out.lags:
            survivors = [
                link for i, link in enumerate(lag.links)
                if (lag.key, i) not in self._failed
            ]
            if not survivors:
                survivors = [Link(capacity=0.0, can_fail=False)]
            lag.links = survivors
        return out

    def __eq__(self, other):
        return isinstance(other, FailureScenario) and self._failed == other._failed

    def __hash__(self):
        return hash(self._failed)

    def __repr__(self):
        items = sorted(self._failed)
        shown = ", ".join(f"{k[0]}-{k[1]}#{i}" for k, i in items[:6])
        more = f", +{len(items) - 6} more" if len(items) > 6 else ""
        return f"FailureScenario({shown}{more})"


def path_is_down(topology: Topology, path: Path, down: set[LagKey]) -> bool:
    """Whether a path crosses any fully-down LAG (Eq. 4)."""
    return any(lag.key in down for lag in topology.lags_on_path(path))


def active_paths(
    topology: Topology, demand_paths: DemandPaths, down: set[LagKey]
) -> list[Path]:
    """The paths the fail-over policy allows traffic on (Eq. 5).

    Primary paths are always *allowed* (their flow is naturally limited by
    residual capacity); the r-th backup is allowed once at least ``r``
    higher-priority paths are down.
    """
    flags = [path_is_down(topology, p, down) for p in demand_paths.paths]
    allowed = []
    for j, path in enumerate(demand_paths.paths):
        if j < demand_paths.num_primary:
            allowed.append(path)
            continue
        needed = j - demand_paths.num_primary + 1
        if sum(flags[:j]) >= needed:
            allowed.append(path)
    return allowed


def connected_enforced_holds(
    topology: Topology, paths: PathSet, scenario: FailureScenario
) -> bool:
    """Section 5.1's CE check: every demand keeps at least one up path."""
    down = scenario.down_lags(topology)
    for dp in paths.values():
        if all(path_is_down(topology, p, down) for p in dp.paths):
            return False
    return True


def simulate_failed_network(
    topology: Topology,
    demands: Mapping[Pair, float],
    paths: PathSet,
    scenario: FailureScenario,
    te_factory=None,
) -> TESolution:
    """Route demands on the network under a concrete failure scenario.

    Args:
        topology: The healthy WAN.
        demands: Offered traffic.
        paths: Configured primary/backup paths.
        scenario: The failures to apply.
        te_factory: Zero-argument callable returning a TE solver that
            accepts ``capacities`` and ``path_caps``; defaults to
            :class:`repro.te.total_flow.TotalFlowTE` over all paths.

    Returns:
        The TE solution of the failed network.
    """
    capacities = scenario.residual_capacities(topology)
    path_caps = _blocked_paths(topology, paths, scenario)
    solver = te_factory() if te_factory is not None else TotalFlowTE(
        primary_only=False
    )
    return solver.solve(
        topology, demands, paths, capacities=capacities, path_caps=path_caps
    )


def simulate_failed_mlu(topology: Topology, demands: Mapping[Pair, float],
                        paths: PathSet, scenario: FailureScenario
                        ) -> TESolution:
    """Simulate the failed network under Appendix A's MLU semantics.

    MLU mode measures utilization against the *original* capacities and
    removes traffic from failed infrastructure purely through path kills:
    a path is unusable when it is down or (for backups) not yet activated.
    """
    path_caps = _blocked_paths(topology, paths, scenario, block_down=True)
    return MluTE(primary_only=False).solve(
        topology, demands, paths, path_caps=path_caps
    )


def _blocked_paths(topology: Topology, paths: PathSet,
                   scenario: FailureScenario, block_down: bool = False
                   ) -> dict[tuple[Pair, Path], float]:
    """Zero path caps for the paths the scenario keeps idle.

    A backup is blocked until enough higher-priority paths are down (Eq.
    5); with ``block_down`` every down path is blocked too.
    """
    down = scenario.down_lags(topology)
    path_caps: dict[tuple[Pair, Path], float] = {}
    for pair, dp in paths.items():
        allowed = set(active_paths(topology, dp, down))
        for path in dp.paths:
            if path not in allowed or (
                block_down and path_is_down(topology, path, down)
            ):
                path_caps[(pair, path)] = 0.0
    return path_caps
