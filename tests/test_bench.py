"""``repro bench``: the gate on doctored copies of the committed first
trajectory point, and ``run`` against a stand-in benchmark command.

No test here runs perfbench.
"""

import json
import sys
from pathlib import Path

import pytest

from repro import cli
from repro.bench import EXIT_REGRESSION, RELATIONS

ROOT = Path(__file__).resolve().parents[1]
BASE = ROOT / "benchmarks" / "BENCH_91d3dad.json"


def doctored(tmp_path, doctor, name="BENCH_new.json") -> str:
    doc = json.loads(BASE.read_text())
    doctor(doc)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def slowdown(factor):
    """Every time ``factor`` times longer, every rate ``factor`` lower."""
    def doctor(doc):
        for run in doc["runs"]:
            for metric in run["result"]["metrics"].values():
                if metric["unit"] == "s":
                    metric["value"] *= factor
                elif metric["unit"] == "1/s":
                    metric["value"] /= factor
    return doctor


def runs(doc, workload, trace):
    return [run for run in doc["runs"]
            if run["workload"] == workload and run["trace"] == trace]


def gate(verb, new) -> int:
    """``bench compare BASE new`` or ``bench check new``."""
    base = [str(BASE)] if verb == "compare" else []
    return cli.main(["bench", verb, *base, new])


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)  # where BENCHMARK.json declares bounds


@pytest.mark.parametrize("verb", ["compare", "check"])
class TestCorrectnessAndRelations:
    """Gate parts 1 and 3, which both verbs run."""

    def test_committed_point_passes(self, verb, capsys):
        assert gate(verb, str(BASE)) == 0
        assert "REGRESSION" not in capsys.readouterr().out

    def test_extra_lp_solve_breaks_a_relation(self, verb, tmp_path, capsys):
        def doctor(doc):
            metrics = runs(doc, "mc-cold", 1)[0]["result"]["metrics"]
            metrics["solver.lp_solve.n"]["value"] += 1
        assert gate(verb, doctored(tmp_path, doctor)) == EXIT_REGRESSION
        assert "solver.lp_solve.n == solver.resolve_with.n" \
            in capsys.readouterr().out

    def test_missing_metric_breaks_a_relation(self, verb, tmp_path):
        def doctor(doc):
            del runs(doc, "svc-open", 1)[0]["result"]["metrics"][
                "service.store.claim.n"]
        assert gate(verb, doctored(tmp_path, doctor)) == EXIT_REGRESSION

    def test_incorrect_run_regresses(self, verb, tmp_path):
        def doctor(doc):
            runs(doc, "svc-open", 0)[0]["result"]["correct"] = False
        assert gate(verb, doctored(tmp_path, doctor)) == EXIT_REGRESSION

    def test_empty_or_unreadable_new_is_an_error(self, verb, tmp_path):
        def doctor(doc):
            doc["runs"] = []
        assert gate(verb, doctored(tmp_path, doctor)) == 1
        assert gate(verb, str(tmp_path / "absent.json")) == 1


class TestCompare:
    def compare(self, new, *extra, base=BASE) -> int:
        return cli.main(["bench", "compare", str(base), new, *extra])

    def test_committed_point_is_complete(self):
        doc = json.loads(BASE.read_text())
        benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
        assert doc["run_seconds"] == benchmark["run_seconds"]
        assert {(run["workload"], run["seed"], run["trace"])
                for run in doc["runs"]} == {
            (workload["name"], seed, trace)
            for workload in benchmark["workloads"]
            for seed in (1, 2, 3) for trace in (0, 1)}
        assert set(RELATIONS) == {w["name"] for w in benchmark["workloads"]}

    def test_four_times_slower_regresses(self, tmp_path):
        new = doctored(tmp_path, slowdown(4.0))
        assert self.compare(new) == EXIT_REGRESSION
        # check reads no times: the host's speed cannot fail it.
        assert gate("check", new) == 0

    def test_quarter_throughput_alone_regresses(self, tmp_path):
        def doctor(doc):
            for run in doc["runs"]:
                if run["trace"] == 0:
                    run["result"]["metrics"]["work_per_s"]["value"] /= 4
        assert self.compare(doctored(tmp_path, doctor)) == EXIT_REGRESSION

    def test_one_layer_four_times_slower_regresses(self, tmp_path, capsys):
        def doctor(doc):
            for run in runs(doc, "mc-cold", 1):
                run["result"]["metrics"]["solver.lp_solve.s"]["value"] *= 4
        assert self.compare(doctored(tmp_path, doctor)) == EXIT_REGRESSION
        assert "mc-cold solver.lp_solve.s" in capsys.readouterr().out

    def test_slack_lets_a_cross_hardware_slowdown_pass(self, tmp_path):
        new = doctored(tmp_path, slowdown(2.5))
        assert self.compare(new) == EXIT_REGRESSION
        assert self.compare(new, "--slack", "2.0") == 0

    def test_workload_missing_from_base_is_an_error(self, tmp_path):
        def doctor(doc):
            doc["runs"] = [run for run in doc["runs"]
                           if run["workload"] != "svc-open"]
        base = doctored(tmp_path, doctor, name="BENCH_base.json")
        assert self.compare(str(BASE), base=base) == 1


#: Stands in for perfbench/run.py: one progress line, then the result.
FAKE = """\
import json, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
if args["--workload"] == "broken":
    sys.exit(2)
print("fake: progress")
print(json.dumps({"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {"args": {"value": args, "unit": "1"}}}))
"""


class TestRun:
    @pytest.fixture(autouse=True)
    def checkout(self, tmp_path, monkeypatch):
        (tmp_path / "fake.py").write_text(FAKE)
        (tmp_path / "BENCHMARK.json").write_text(json.dumps({
            "command": [sys.executable, "fake.py"], "run_seconds": 7,
            "workloads": [{"name": "a"}, {"name": "b"}]}))
        monkeypatch.chdir(tmp_path)

    def test_writes_every_workload_seed_and_trace(self, tmp_path):
        assert cli.main(["bench", "run", "--label", "t",
                         "--seed", "4", "--seed", "5"]) == 0
        doc = json.loads((tmp_path / "BENCH_t.json").read_text())
        assert doc["run_seconds"] == 7
        assert [(run["workload"], run["seed"], run["trace"])
                for run in doc["runs"]] == [
            (w, s, t) for w in "ab" for s in (4, 5) for t in (0, 1)]
        run = doc["runs"][-1]
        assert run["result"]["metrics"]["args"]["value"] == {
            "--workload": "b", "--seed": "5", "--seconds": "7",
            "--trace": "1"}

    def test_a_failing_benchmark_fails_the_run(self, tmp_path):
        assert cli.main(["bench", "run", "--label", "t",
                         "--workload", "broken"]) == 1
        assert not (tmp_path / "BENCH_t.json").exists()
