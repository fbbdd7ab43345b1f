"""CI chaos-smoke for the Monte Carlo availability engine.

Runs the same availability campaign on the paper's B4 topology several
times:

1. clean, through the parallel engine (worker pool, vectorized
   sampling, up-front dedup), then clean in-process (``num_workers=1``,
   the path that builds scenarios straight from the sample) against a
   cold persistent cache, asserting a bit-identical estimate, one
   cache entry per fresh solve plus the healthy flow and one per
   sampled round, and a warm in-process re-run at another threshold
   that does zero fresh solves and reads only the healthy flow and the
   round entries;
2. adaptive (``ci_width``) in-process against a cold persistent cache,
   then warm, asserting the warm re-run equals the cold one on every
   field an estimate reports; then with one round entry hand-edited
   (one flow set to ``null``, the checksum footer dropped, as an
   operator's edit leaves it), asserting the campaign falls back to
   the per-scenario entries, solves nothing, still equals the cold
   run and writes the round entry back whole;
3. under a hostile fault plan -- worker chunks fail wholesale
   (``availability.chunk``) and first-attempt workers crash
   (``worker.crash``) -- asserting the estimate stays *bit-identical*:
   chunk fallbacks and retries re-run the same resolver on the same
   scenarios, so they may change wall-clock but never a float;
4. with ``resolver.resolve`` faults on top, asserting the estimate
   stays *value-equal* (the resolver's fresh-solve fallback reaches the
   same optimum along a different arithmetic path, so only approximate
   equality is the contract -- same as the resilience suite);
5. through the ``python -m repro availability`` CLI verb with the
   bit-identity chaos plan, a JSONL trace, and a cold persistent cache,
   then once more warm at another threshold, asserting the warm run
   does zero fresh solves.

Exit code 0 on success, 1 with a diagnostic on any failure.

Run locally::

    PYTHONPATH=src python tools/availability_smoke.py
"""

from __future__ import annotations

import dataclasses
import json
import sys
import tempfile
from pathlib import Path

from repro import cli
from repro.core.config import MonteCarloConfig
from repro.failures.availability import estimate_availability_parallel
from repro.network import serialization as ser
from repro.network.demand import gravity_demands
from repro.network.zoo import b4
from repro.paths.pathset import PathSet
from repro.resilience.faults import FaultPlan, FaultPoint
from repro.runner.cache import ResultCache

SAMPLES = 120
SEED = 7
THRESHOLD = 1.0
#: The warm re-runs' threshold: a re-sweep reads the same entries.
WARM_THRESHOLD = 1000.0
#: The adaptive campaign's CI target: reached after a few rounds.
CI_WIDTH = 0.03
#: Every field of an estimate a warm re-run must reproduce.
ESTIMATE_FIELDS = ("degradations", "expected_degradation", "availability",
                   "exceedance_probability", "worst_sampled",
                   "worst_scenario", "samples", "healthy_flow",
                   "distinct_scenarios", "rounds", "ci_width")


class _CountingCache(ResultCache):
    """A result cache that counts its reads."""

    reads = 0

    def get(self, key: str):
        self.reads += 1
        return super().get(key)


def _fail(message: str) -> int:
    print(f"availability smoke FAILED: {message}", file=sys.stderr)
    return 1


def _campaign():
    topology = b4()
    # Boost the zoo's tiny production probabilities so the campaign has
    # a rich scenario mix (and therefore several worker chunks).
    for lag in topology.lags:
        lag.links[:] = [
            dataclasses.replace(
                link,
                failure_probability=min(
                    0.25, (link.failure_probability or 0.0) * 200.0),
            )
            if link.can_fail and link.failure_probability is not None
            else link
            for link in lag.links
        ]
    nodes = sorted(topology.nodes)
    pairs = [(nodes[0], nodes[5]), (nodes[2], nodes[9]),
             (nodes[4], nodes[11]), (nodes[1], nodes[7])]
    demands = gravity_demands(topology, scale=5e5, pairs=pairs, seed=1)
    paths = PathSet.k_shortest(topology, pairs, num_primary=2,
                               num_backup=1)
    return topology, dict(demands), paths


#: Chunk deaths and worker crashes: re-runs of the same resolver, so the
#: estimate must not move by a single bit.
CHAOS = FaultPlan(seed=3, points=[
    FaultPoint("availability.chunk", rate=0.5, attempts=()),
    FaultPoint("worker.crash", rate=0.3),
])

#: Adds incremental re-solve failures: the fresh-solve fallback reaches
#: the same optimum along a different arithmetic path (value-equal, not
#: bit-equal).
CHAOS_RESOLVER = FaultPlan(seed=3, points=[
    FaultPoint("availability.chunk", rate=0.5, attempts=()),
    FaultPoint("resolver.resolve", rate=0.5, attempts=()),
])


def _same_estimate(a, b) -> bool:
    return (a.degradations == b.degradations
            and a.expected_degradation == b.expected_degradation
            and a.availability == b.availability
            and a.exceedance_probability == b.exceedance_probability
            and a.worst_sampled == b.worst_sampled
            and a.worst_scenario == b.worst_scenario)


def _close_estimate(a, b, rel=1e-6) -> bool:
    if len(a.degradations) != len(b.degradations):
        return False
    scale = max(abs(a.healthy_flow), 1.0)
    return (all(abs(x - y) <= rel * scale
                for x, y in zip(a.degradations, b.degradations))
            and abs(a.availability - b.availability) <= rel)


def _differing(a, b) -> list[str]:
    return [name for name in ESTIMATE_FIELDS
            if getattr(a, name) != getattr(b, name)]


def _round_entries(root: Path) -> dict[str, list]:
    """Each round entry's flows, by key (the entries holding a list)."""
    entries = {}
    for path in sorted(root.glob("*.json")):
        result = json.loads(path.read_text().partition("\n")[0])["result"]
        if isinstance(result, dict) and \
                isinstance(result.get("delivered"), list):
            entries[path.stem] = result["delivered"]
    return entries


def _adaptive_and_hand_edited(topology, demands, paths,
                              in_process) -> str | None:
    """Check 2: a diagnostic, or ``None`` when it passes."""
    adaptive = dataclasses.replace(in_process, ci_width=CI_WIDTH,
                                   max_samples=8 * SAMPLES)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        cold = estimate_availability_parallel(topology, demands, paths,
                                              adaptive, cache=tmp)
        if not 1 < cold.rounds < 8:
            return (f"adaptive campaign took {cold.rounds} round(s); "
                    "the CI target no longer stops it between rounds")
        warm = estimate_availability_parallel(topology, demands, paths,
                                              adaptive, cache=tmp)
        if warm.fresh_solves != 0 or _differing(warm, cold):
            return ("warm adaptive re-run differs from its cold run in "
                    f"{_differing(warm, cold)} after "
                    f"{warm.fresh_solves} fresh solves")
        entries = _round_entries(root)
        if len(entries) != cold.rounds:
            return (f"adaptive campaign left {len(entries)} round "
                    f"entries for {cold.rounds} round(s)")
        key, flows = next(iter(entries.items()))
        edited = flows[:3] + [None] + flows[4:]
        (root / f"{key}.json").write_text(json.dumps(
            {"key": key, "result": {"delivered": edited}}) + "\n")
        cache = _CountingCache(tmp)
        again = estimate_availability_parallel(topology, demands, paths,
                                               adaptive, cache=cache)
        if again.fresh_solves != 0 or _differing(again, cold):
            return ("a hand-edited round entry changed the estimate in "
                    f"{_differing(again, cold)} after "
                    f"{again.fresh_solves} fresh solves")
        if cache.reads <= cold.rounds + 1:
            return ("a hand-edited round entry was replayed, not read "
                    "per scenario")
        if ResultCache(tmp).get(key) != {"delivered": flows} or \
                len((root / f"{key}.json").read_text().splitlines()) != 2:
            return "the hand-edited round entry was not written back"
    print(f"adaptive: warm re-run equals the cold run over {cold.rounds} "
          "rounds; a hand-edited round entry fell back per scenario "
          f"({cache.reads} reads) and was rewritten")
    return None


def main() -> int:
    topology, demands, paths = _campaign()
    config = MonteCarloConfig(samples=SAMPLES, seed=SEED,
                              degradation_threshold=THRESHOLD,
                              num_workers=2, chunk_size=8)

    clean = estimate_availability_parallel(topology, demands, paths,
                                           config)
    print(f"clean: availability {clean.availability:.6f}, "
          f"{clean.distinct_scenarios} distinct scenarios")

    in_process = dataclasses.replace(config, num_workers=1)
    with tempfile.TemporaryDirectory() as tmp:
        local = estimate_availability_parallel(
            topology, demands, paths, in_process, cache=tmp)
        if not _same_estimate(clean, local):
            return _fail("in-process estimate diverged from the pooled "
                         "clean run")
        entries = len(list(Path(tmp).glob("*.json")))
        if entries != local.fresh_solves + 1 + local.rounds:
            return _fail(f"in-process cold run left {entries} cache "
                         f"entries for {local.fresh_solves} fresh solves "
                         f"plus the healthy flow and {local.rounds} "
                         "round(s)")
        cache = _CountingCache(tmp)
        warm = estimate_availability_parallel(
            topology, demands, paths,
            dataclasses.replace(in_process,
                                degradation_threshold=WARM_THRESHOLD),
            cache=cache)
        if warm.fresh_solves != 0:
            return _fail(f"warm in-process run did {warm.fresh_solves} "
                         "fresh solves")
        if cache.reads != warm.rounds + 1:
            return _fail(f"warm in-process run read {cache.reads} cache "
                         f"entries, not the healthy flow and "
                         f"{warm.rounds} round(s)")
        if warm.degradations != local.degradations:
            return _fail("warm in-process run diverged from the cold run")
    print(f"in-process: estimate bit-identical, {entries} cache entries, "
          f"warm re-run solved nothing and read {cache.reads}")

    failure = _adaptive_and_hand_edited(topology, demands, paths,
                                        in_process)
    if failure:
        return _fail(failure)

    chaotic = estimate_availability_parallel(topology, demands, paths,
                                             config, chaos=CHAOS)
    if chaotic.chunk_fallbacks == 0:
        return _fail("chaos run fired no chunk fallbacks; the "
                     "availability.chunk site is dead")
    if not _same_estimate(clean, chaotic):
        return _fail("chaotic estimate diverged from the clean run")
    print(f"chaos: {chaotic.chunk_fallbacks} chunk fallbacks, "
          "estimate bit-identical")

    resolver_chaos = estimate_availability_parallel(
        topology, demands, paths, config, chaos=CHAOS_RESOLVER)
    if not _close_estimate(clean, resolver_chaos):
        return _fail("resolver-fault run drifted beyond fresh-solve "
                     "tolerance")
    print("resolver chaos: estimate value-equal through fresh-solve "
          "fallbacks")

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        topo_path = root / "b4.json"
        demands_path = root / "demands.json"
        paths_path = root / "paths.json"
        ser.save_json(ser.topology_to_dict(topology), str(topo_path))
        ser.save_json(ser.demands_to_dict(demands), str(demands_path))
        ser.save_json(ser.paths_to_dict(paths), str(paths_path))
        plan_path = root / "chaos.json"
        plan_path.write_text(json.dumps(CHAOS.to_dict()))

        def run_cli(out_name: str, threshold: float) -> dict:
            out = root / out_name
            code = cli.main([
                "availability",
                "--topology", str(topo_path),
                "--paths", str(paths_path),
                "--demands", str(demands_path),
                "--samples", str(SAMPLES), "--seed", str(SEED),
                "--threshold-traffic", str(threshold),
                "--jobs", "2", "--chunk-size", "8",
                "--workdir", str(root / "avail"),
                "--chaos", str(plan_path),
                "--trace", str(root / f"{out_name}.trace.jsonl"),
                "--out", str(out),
            ])
            if code != 0:
                raise RuntimeError(f"CLI exited {code}")
            return json.loads(out.read_text())

        cold = run_cli("cold.json", THRESHOLD)
        if cold["availability"] != clean.availability:
            return _fail("CLI chaos run disagrees with the direct engine")
        if cold["chunk_fallbacks"] == 0:
            return _fail("CLI chaos run fired no chunk fallbacks")
        if cold["fresh_solves"] != cold["distinct_scenarios"]:
            return _fail("cold CLI run should have solved every "
                         "distinct scenario fresh")

        warm = run_cli("warm.json", WARM_THRESHOLD)
        if warm["fresh_solves"] != 0:
            return _fail(f"warm CLI run did {warm['fresh_solves']} "
                         "fresh solves; the persistent cache is dead")
        if warm["cache_hits"] != warm["distinct_scenarios"]:
            return _fail("warm CLI run missed the cache")
        if warm["availability"] != cold["availability"]:
            return _fail("warm CLI run diverged from the cold run")
        trace = root / "warm.json.trace.jsonl"
        if not trace.exists() or not trace.read_text().strip():
            return _fail("CLI --trace wrote no JSONL trace")

    print("warm CLI run: zero fresh solves, estimate unchanged")
    print("availability smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
