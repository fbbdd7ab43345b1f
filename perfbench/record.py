"""Record what the benchmark checks against, and how well it isolates.

From the repository root::

    python3 perfbench/record.py              # rewrites reference.json
    python3 perfbench/record.py --isolation  # rewrites isolation.json

``reference.json`` holds the degradation of each analyze-grid analysis
and, for every seed variant, a digest of each mc-cold estimate.  Record
it only at a commit whose outputs are trusted.  ``isolation.json`` holds,
from one traced run per workload, the share of time spent in the layer
the workload exists to stress, and the call counts of the layers it
should bypass.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
WORKDIR = os.path.join(os.getcwd(), ".perfbench")

#: Per workload: the layer it stresses, and counts that show what it
#: bypasses (each should be 0).
ISOLATION = {
    "analyze-grid": ("encode + KKT + HiGHS MILP (RahaAnalyzer.analyze "
                     "minus verify)",
                     ["runner.cache_get.n", "failures.delivered.n"]),
    "mc-cold": ("scenario re-solves (ScenarioResolver.delivered)",
                ["solver.milp_solve.n", "core.analyze.n"]),
    "mc-warm": ("cache reads (ResultCache.get)",
                ["failures.delivered.n", "runner.cache_put.n"]),
    "svc-open": ("service: store, claim/settle, per-job fork, HTTP "
                 "(round trip minus the availability solve)",
                 ["solver.milp_solve.n", "service.shed"]),
}


def write(name: str, doc: dict) -> None:
    with open(os.path.join(HERE, name), "w") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")


def record_reference() -> None:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import workloads

    reference = {"mc-cold": {}}
    os.makedirs(WORKDIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORKDIR) as scratch:
        grid = workloads.AnalyzeGrid(0, 0.0, scratch)
        grid.build()
        values = [grid.output(index) for index in range(len(grid.jobs))]
        if None in values:
            raise SystemExit("an analyze-grid analysis did not verify")
        reference["analyze-grid"] = values
        for variant in range(workloads.VARIANTS):
            cold = workloads.McCold(variant, 0.0, scratch)
            cold.build()
            reference["mc-cold"][str(variant)] = [
                workloads.digest(cold.output(index))
                for index in range(cold.campaigns)]
    write("reference.json", reference)


def record_isolation() -> None:
    """One traced run per workload, as long as the benchmark's runs."""
    with open(os.path.join(os.getcwd(), "BENCHMARK.json")) as handle:
        seconds = json.load(handle)["run_seconds"]
    record = {}
    for name, (layer, bypassed) in ISOLATION.items():
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", name, "--seed", "1", "--seconds", str(seconds),
             "--trace", "1"],
            capture_output=True, text=True, check=True, timeout=900)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        values = {key: entry["value"]
                  for key, entry in result["metrics"].items()}
        record[name] = {
            "layer": layer,
            "share": values["isolation.share"],
            "trace_overhead": values["obs.trace_overhead"],
            "bypassed_counts": {key: values[key] for key in bypassed},
        }
    write("isolation.json", record)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--isolation", action="store_true",
                        help="record isolation.json from traced runs")
    args = parser.parse_args()
    if args.isolation:
        record_isolation()
    else:
        record_reference()
    return 0


if __name__ == "__main__":
    sys.exit(main())
