"""``python -m repro bench``: run the repository benchmark and gate on it.

The benchmark itself is ``perfbench/`` (see perfbench/README.md); this
module only runs it and reads its output.  Both verbs run from the
repository root, where ``BENCHMARK.json`` declares the command, the
workloads, ``run_seconds`` and every metric.

* ``bench run --label L [--workload W]... [--seed N]...`` runs the
  benchmark's command for each workload x seed (default: every workload,
  seed 1), once untraced (``--trace 0``, end-to-end metrics) and once
  traced (``--trace 1``, per-layer metrics), each for ``run_seconds``,
  and writes ``BENCH_L.json``.
* ``bench compare BASE NEW [--slack X]`` gates NEW against BASE and
  exits 0 on pass, :data:`EXIT_REGRESSION` on a regression and 1 when
  it cannot compare.  It checks four things:

  1. every run in NEW is ``correct``;
  2. per workload, the median over seeds of each untraced end-to-end
     metric is no worse than BASE's, in its ``better`` direction, by a
     ratio above ``1 + bound + slack``;
  3. every traced run in NEW keeps the call-count relations in
     :data:`RELATIONS`;
  4. per workload, the median over seeds of each traced metric in
     seconds stays under ``base_median * (1 + REL_TOLERANCE + slack) +
     MAD_MULTIPLIER * max(base_MAD, new_MAD * base_median / new_median)
     + ABS_FLOOR_S``.

* ``bench check NEW`` checks parts 1 and 3 alone.  They need no BASE
  and hold on any host: the call counts they relate are fixed by the
  seed, while busy seconds move with the host and its load.  It exits
  like ``compare``.

``--slack`` is 0 for two documents made on one host, and larger when
BASE was recorded on other hardware.
"""

from __future__ import annotations

import json
import platform
import re
import statistics
import subprocess
import sys

from repro.exceptions import BenchError

#: Exit code of ``bench compare`` on a regression; 1 means it could not
#: compare at all, so CI can tell "the code got slower" from "the gate
#: broke".
EXIT_REGRESSION = 8
#: The benchmark's declaration, relative to the repository root.
BENCHMARK = "BENCHMARK.json"
#: Per-layer seconds: the relative slowdown tolerated before noise,
REL_TOLERANCE = 0.25
#: how many median absolute deviations of the noisier side (NEW's
#: scaled to BASE's median) are added,
MAD_MULTIPLIER = 5.0
#: and the absolute slack that keeps millisecond layers quiet.
ABS_FLOOR_S = 0.05

#: Relations every traced run of a workload must keep.  Sides are sums
#: of metric names and numbers; ``a == b == c`` chains.  Exact equality
#: with BASE is not asked for: a change that removes solves on purpose
#: must pass.
RELATIONS = {
    "mc-cold": (
        # The probe finds the sampler, the resolver and the
        # "availability" span by name; an engine change that hides them
        # would blind mc-cold's per-layer metrics.
        "failures.campaign.n > 0",
        "failures.sample.n > 0",
        "failures.delivered.n > 0",
        # The campaign plan compiled by set-up's warm-up campaign serves
        # every measured one: no resolver compile and no healthy solve.
        "failures.resolver_init.n == 0",
        # One LP run per scenario re-solve: a second LP per re-solve, or
        # a healthy solve the plan did not spare, breaks it.
        "solver.lp_solve.n == solver.resolve_with.n",
        # One round key per sampled round, and no instance or healthy
        # key hashed per campaign.
        "runner.job_key.n == failures.sample.n",
        # Every fresh solve, every healthy flow and every sampled round
        # is written to the cache exactly once, from whichever thread
        # writes it.
        "runner.cache_put.n == failures.delivered.n + failures.campaign.n"
        " + failures.sample.n",
        # No re-solve falls back to a freshly built model.
        "failures.fallbacks == 0",
    ),
    "mc-warm": (
        # A warm re-sweep is all cache reads: a key that drifts from the
        # one the cold campaign wrote, or a healthy solve that is not
        # memoized, shows up here.
        "runner.cache_hit_ratio == 1.0",
        "runner.cache_get.n > 0",
        # One read of the healthy flow per campaign and one of each
        # sampled round's entry: no scenario is read on its own.
        "runner.cache_get.n == failures.campaign.n + failures.sample.n",
        # So no resolver is compiled and no LP is solved.
        "failures.resolver_init.n == 0",
        "solver.lp_solve.n == 0",
        # One round key per sampled round: the instance and healthy keys
        # come from the campaign plan.
        "runner.job_key.n == failures.sample.n",
    ),
    "analyze-grid": (
        "core.analyze.n > 0",
        # One analysis is one MILP and one KKT verification, which
        # patches the cached verification LP (one resolve_with) rather
        # than rebuilding it.
        "solver.milp_solve.n == core.verify.n == solver.resolve_with.n"
        " == core.analyze.n",
        # And no Monte Carlo.
        "failures.campaign.n == 0",
    ),
    "svc-open": (
        # The probe finds run_sweep and the JobStore verbs by name; a
        # claim-path change that hides them would blind its metrics.
        "service.store.claim.n > 0",
    ),
}

_COMPARE = {"==": lambda a, b: a == b, ">": lambda a, b: a > b}


def _load(path: str) -> dict:
    try:
        with open(path) as handle:
            doc = json.load(handle)
        if not all({"workload", "seed", "trace"} <= run.keys()
                   and {"correct", "metrics"} <= run["result"].keys()
                   for run in doc["runs"]):
            raise ValueError("a run lacks its workload, seed, trace or "
                             "result")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise BenchError(f"cannot read {path}: {exc!r}") from exc
    return doc


def _value(run: dict, name: str) -> float:
    return run["result"]["metrics"][name]["value"]


def _side(run: dict, expression: str) -> float:
    total = 0.0
    for term in expression.split("+"):
        term = term.strip()
        try:
            total += float(term)
        except ValueError:
            total += _value(run, term)
    return total


def _holds(run: dict, relation: str) -> bool:
    """Whether one traced run keeps one :data:`RELATIONS` entry; a
    metric the run lacks breaks it."""
    parts = re.split(r"\s(==|>)\s", relation)
    try:
        sides = [_side(run, side) for side in parts[::2]]
    except KeyError:
        return False
    return all(_COMPARE[op](left, right) for left, op, right
               in zip(sides, parts[1::2], sides[1:]))


def _mad(values: list[float]) -> float:
    center = statistics.median(values)
    return statistics.median(abs(value - center) for value in values)


def _worse_by(base: float, new: float, better: str) -> float:
    """How many times worse ``new`` is than ``base``: one rule for both
    directions (1.0 = equal, below 1 = better)."""
    worse, good = (new, base) if better == "lower" else (base, new)
    if worse == good:
        return 1.0
    return worse / good if good else float("inf")


def _end_to_end(workload, before, runs, benchmark, slack):
    """Gate part 2 for one workload's untraced runs; returns the table's
    rows and the regressions."""
    rows, regressions = [], []
    for metric in benchmark["end_to_end"]:
        name = metric["name"]
        old = statistics.median(_value(run, name) for run in before)
        now = statistics.median(_value(run, name) for run in runs)
        ratio = _worse_by(old, now, metric["better"])
        limit = 1.0 + metric["bound"] + slack
        rows.append(f"{workload:<13}{name:<24}{old:>12.5g}{now:>12.5g}"
                    f"{ratio:>8.3f}{limit:>8.3f}  "
                    + ("REGRESSED" if ratio > limit else "ok"))
        if ratio > limit:
            regressions.append(f"{workload} {name}: {ratio:.3f}x worse "
                               f"(limit {limit:.3f})")
    return rows, regressions


def _layer_seconds(workload, before, runs, slack):
    """Gate part 4 for one workload's traced runs; returns how many
    metrics it checked and the regressions."""
    names = [name for name, metric in runs[0]["result"]["metrics"].items()
             if metric["unit"] == "s"
             and all(name in run["result"]["metrics"] for run in before)]
    regressions = []
    for name in sorted(names):
        old = [_value(run, name) for run in before]
        now = [_value(run, name) for run in runs]
        base, new = statistics.median(old), statistics.median(now)
        # NEW's spread counts at BASE's level: a slowdown that scales
        # every seed scales their spread with it, and must not buy its
        # own allowance.
        spread = max(_mad(old), _mad(now) * base / new if new else 0.0)
        allowed = (base * (1.0 + REL_TOLERANCE + slack)
                   + MAD_MULTIPLIER * spread + ABS_FLOOR_S)
        if new > allowed:
            regressions.append(f"{workload} {name}: {new:.4g} s > "
                               f"allowed {allowed:.4g} s")
    return len(names), regressions


def _grouped(doc: dict) -> dict[tuple[str, int], list[dict]]:
    """A document's runs by workload and trace mode."""
    groups: dict[tuple[str, int], list[dict]] = {}
    for run in doc["runs"]:
        groups.setdefault((run["workload"], run["trace"]), []).append(run)
    return groups


def check(new: dict) -> tuple[str, list[str]]:
    """Gate parts 1 and 3, which read ``new`` alone; returns a summary
    line and what broke (empty on a pass).  Raises :class:`BenchError`
    when ``new`` holds no runs."""
    if not new["runs"]:
        raise BenchError("NEW holds no runs")
    broken = [f"{run['workload']} seed {run['seed']} trace "
              f"{run['trace']}: not correct"
              for run in new["runs"] if run["result"]["correct"] is not True]
    traced = [run for run in new["runs"] if run["trace"] == 1]
    relations = 0
    for run in traced:
        relations += len(RELATIONS.get(run["workload"], ()))
        broken += [f"{run['workload']} seed {run['seed']}: relation "
                   f"broken: {relation}"
                   for relation in RELATIONS.get(run["workload"], ())
                   if not _holds(run, relation)]
    return (f"checked: {len(new['runs'])} runs correct, {relations} "
            f"relations in traced runs"), broken


def compare(base: dict, new: dict, benchmark: dict,
            slack: float = 0.0) -> tuple[list[str], list[str]]:
    """Gate ``new`` against ``base``; returns the table's lines and the
    regressions (empty on a pass).  Raises :class:`BenchError` when the
    documents cannot be compared."""
    summary, regressions = check(new)
    base_runs, new_runs = _grouped(base), _grouped(new)
    for workload, trace in new_runs:
        if (workload, trace) not in base_runs:
            raise BenchError(f"BASE holds no trace-{trace} run of "
                             f"{workload!r}")

    lines = [f"{'workload':<13}{'metric':<24}{'base':>12}{'new':>12}"
             f"{'ratio':>8}{'limit':>8}  verdict"]
    layers = 0
    for (workload, trace), runs in sorted(new_runs.items()):
        before = base_runs[workload, trace]
        if trace == 0:
            rows, worse = _end_to_end(workload, before, runs, benchmark,
                                      slack)
            lines += rows
            regressions += worse
        else:
            checked, slower = _layer_seconds(workload, before, runs, slack)
            layers += checked
            regressions += slower
    lines.append(f"{summary}, {layers} per-layer times")
    return lines, regressions


def _benchmark() -> dict:
    try:
        with open(BENCHMARK) as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {BENCHMARK} (run from the "
                         f"repository root): {exc!r}") from exc


def _commit() -> str | None:
    """The checkout's commit, or ``None`` outside a git checkout."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"],
                              capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cmd_run(args) -> int:
    benchmark = _benchmark()
    workloads = args.workload or [w["name"] for w in benchmark["workloads"]]
    runs = []
    for workload in workloads:
        for seed in args.seed or [1]:
            for trace in (0, 1):
                argv = benchmark["command"] + [
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(benchmark["run_seconds"]),
                    "--trace", str(trace)]
                print(f"bench: {' '.join(argv)}", file=sys.stderr,
                      flush=True)
                done = subprocess.run(argv, stdout=subprocess.PIPE,
                                      text=True)
                lines = done.stdout.splitlines()
                for line in lines[:-1]:
                    print(line, file=sys.stderr, flush=True)
                if done.returncode != 0 or not lines:
                    raise BenchError(f"{' '.join(argv)} exited "
                                     f"{done.returncode}")
                runs.append({"workload": workload, "seed": seed,
                             "trace": trace, "result": json.loads(lines[-1])})
    out = f"BENCH_{args.label}.json"
    with open(out, "w") as handle:
        json.dump({"commit": _commit(),
                   "python": platform.python_version(),
                   "run_seconds": benchmark["run_seconds"],
                   "runs": runs}, handle, indent=1)
        handle.write("\n")
    print(f"wrote {len(runs)} runs to {out}")
    return 0


def _verdict(lines: list[str], regressions: list[str], ok: str) -> int:
    print("\n".join(lines))
    for regression in regressions:
        print(f"REGRESSION: {regression}")
    if regressions:
        return EXIT_REGRESSION
    print(f"OK: {ok}")
    return 0


def _cmd_check(args) -> int:
    summary, broken = check(_load(args.new))
    return _verdict([summary], broken, args.new)


def _cmd_compare(args) -> int:
    try:
        lines, regressions = compare(_load(args.base), _load(args.new),
                                     _benchmark(), args.slack)
    except KeyError as exc:
        raise BenchError(f"a run lacks the metric {exc}") from exc
    return _verdict(lines, regressions,
                    f"{args.new} against {args.base}, slack {args.slack}")


def _cmd_bench(args) -> int:
    try:
        return args.bench_action(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def add_parser(sub) -> None:
    """Attach the ``bench`` subcommand to the CLI's subparsers."""
    p_be = sub.add_parser(
        "bench", help="run the repository benchmark (perfbench/) and "
                      "gate on regressions")
    p_be.set_defaults(func=_cmd_bench)
    actions = p_be.add_subparsers(required=True)

    p_run = actions.add_parser(
        "run", help="run every workload x seed, untraced and traced, "
                    "into BENCH_<label>.json")
    p_run.add_argument("--label", required=True)
    p_run.add_argument("--workload", action="append",
                       help="only this workload (repeatable; default: "
                            "every workload in BENCHMARK.json)")
    p_run.add_argument("--seed", action="append", type=int,
                       help="benchmark seed (repeatable; default: 1)")
    p_run.set_defaults(bench_action=_cmd_run)

    p_cmp = actions.add_parser(
        "compare", help="gate NEW against BASE; exit "
                        f"{EXIT_REGRESSION} on a regression")
    p_cmp.add_argument("base", help="the reference BENCH_*.json")
    p_cmp.add_argument("new", help="the candidate BENCH_*.json")
    p_cmp.add_argument("--slack", type=float, default=0.0,
                       help="added to every relative bound (0 on one "
                            "host; 2.0 across hardware)")
    p_cmp.set_defaults(bench_action=_cmd_compare)

    p_chk = actions.add_parser(
        "check", help="check that every run in NEW is correct and every "
                      "traced run keeps the call-count relations; exit "
                      f"{EXIT_REGRESSION} if not")
    p_chk.add_argument("new", help="the BENCH_*.json to check")
    p_chk.set_defaults(bench_action=_cmd_check)
