"""SweepSpec expansion: grids, cells, dedup, file references."""

import json

import pytest

from repro.exceptions import CacheKeyError, ModelingError
from repro.network import serialization as ser
from repro.network.demand import synthesize_monthly_demands, top_pairs
from repro.network.generators import production_wan
from repro.paths.pathset import PathSet
from repro.runner.cache import job_key
from repro.runner.jobs import DEFAULT_TASK, Job, SweepSpec

TOPOLOGY_DOC = {"kind": "topology", "name": "t", "nodes": ["a", "b"],
                "lags": [{"u": "a", "v": "b",
                          "links": [{"capacity": 10.0,
                                     "failure_probability": 1e-3,
                                     "can_fail": True}]}],
                "srlgs": []}


def _spec(**kwargs):
    defaults = dict(instance={"topology": TOPOLOGY_DOC})
    defaults.update(kwargs)
    return SweepSpec(**defaults)


class TestExpansion:
    def test_grid_cross_product(self):
        spec = _spec(
            base={"time_limit": 30.0},
            grid={"threshold": [1e-2, 1e-4], "max_failures": [1, 2, None]},
        )
        jobs = spec.expand()
        assert len(jobs) == 6
        cells = [(j.params["threshold"], j.params["max_failures"])
                 for j in jobs]
        assert cells == [(1e-2, 1), (1e-2, 2), (1e-2, None),
                         (1e-4, 1), (1e-4, 2), (1e-4, None)]
        assert all(j.params["time_limit"] == 30.0 for j in jobs)

    def test_cells_override_grid_shape(self):
        spec = _spec(cells=[{"threshold": None, "max_failures": 2},
                            {"threshold": 1e-4, "max_failures": None}])
        jobs = spec.expand()
        assert [(j.params["threshold"], j.params["max_failures"])
                for j in jobs] == [(None, 2), (1e-4, None)]

    def test_duplicate_cells_dedup_by_key(self):
        spec = _spec(cells=[{"threshold": 1e-4}, {"threshold": 1e-4},
                            {"threshold": 1e-2}])
        assert len(spec.expand()) == 2

    def test_base_overridden_by_cell(self):
        spec = _spec(base={"threshold": 1e-2},
                     cells=[{}, {"threshold": 1e-7}])
        jobs = spec.expand()
        assert jobs[0].params["threshold"] == 1e-2
        assert jobs[1].params["threshold"] == 1e-7

    def test_empty_grid_is_one_job(self):
        assert len(_spec().expand()) == 1

    def test_spec_hash_tracks_content(self):
        a = _spec(grid={"threshold": [1e-2]})
        b = _spec(grid={"threshold": [1e-3]})
        assert a.spec_hash != b.spec_hash
        assert a.spec_hash == _spec(grid={"threshold": [1e-2]}).spec_hash

    def test_job_key_stable_and_label_readable(self):
        job = _spec(cells=[{"demand_mode": "avg", "threshold": 1e-4,
                            "max_failures": None}]).expand()[0]
        assert job.key == Job(dict(job.payload)).key
        assert "avg" in job.label and "t=0.0001" in job.label \
            and "k=inf" in job.label


class TestValidation:
    def test_instance_requires_topology(self):
        with pytest.raises(ModelingError):
            SweepSpec(instance={"demands": {}})

    def test_grid_and_cells_are_exclusive(self):
        with pytest.raises(ModelingError):
            _spec(grid={"threshold": [1e-2]}, cells=[{}])

    def test_task_must_be_module_function(self):
        with pytest.raises(ModelingError):
            _spec(task="not-a-reference")


class TestSpecFiles:
    def test_file_references_are_embedded(self, tmp_path):
        topology = production_wan(num_regions=2, nodes_per_region=3, seed=5)
        avg, _ = synthesize_monthly_demands(topology, scale=50, seed=5)
        pairs = top_pairs(avg, 2)
        paths = PathSet.k_shortest(topology, pairs, num_primary=2,
                                   num_backup=1)
        ser.save_json(ser.topology_to_dict(topology),
                      str(tmp_path / "wan.json"))
        ser.save_json(ser.demands_to_dict(avg.restricted_to(pairs)),
                      str(tmp_path / "demands.json"))
        ser.save_json(ser.paths_to_dict(paths), str(tmp_path / "paths.json"))
        spec_doc = {
            "kind": "sweep_spec",
            "instance": {"topology": "wan.json", "demands": "demands.json",
                         "paths": "paths.json"},
            "base": {"demand_mode": "fixed", "time_limit": 10.0},
            "grid": {"threshold": [1e-2, 1e-4]},
        }
        spec_path = tmp_path / "campaign.json"
        spec_path.write_text(json.dumps(spec_doc))

        spec = SweepSpec.from_file(str(spec_path))
        assert spec.name == "campaign"
        assert spec.task == DEFAULT_TASK
        assert spec.instance["topology"]["kind"] == "topology"
        assert spec.instance["demands"]["kind"] == "demands"
        assert len(spec.expand()) == 2

        # Editing a referenced file changes every job key (content, not
        # file-name, addressing).
        keys = [job.key for job in spec.expand()]
        doc = json.loads((tmp_path / "demands.json").read_text())
        doc["entries"][0]["volume"] *= 2
        (tmp_path / "demands.json").write_text(json.dumps(doc))
        respec = SweepSpec.from_file(str(spec_path))
        assert all(a != b for a, b in zip(keys,
                                          [j.key for j in respec.expand()]))

    def test_wrong_kind_rejected(self):
        with pytest.raises(ModelingError):
            SweepSpec.from_dict({"kind": "topology"})


def _old_spec_hash(spec: SweepSpec) -> str:
    """The spec hash as one job_key over the whole campaign document."""
    return job_key({"instance": spec.instance, "base": spec.base,
                    "grid": spec.grid, "cells": spec.cells,
                    "task": spec.task})


class TestKeysFromOneEncoding:
    """Job keys and the spec hash are spliced from one canonical encoding
    of the instance; each must equal job_key of its whole document."""

    def assert_keys_match(self, spec: SweepSpec) -> None:
        spec_hash, expand = spec.keyed()
        assert spec_hash == spec.spec_hash == _old_spec_hash(spec)
        jobs = expand()
        assert jobs
        for job in jobs:
            assert job.key == job_key(job.payload)
        assert [job.key for job in jobs] == [job.key for job in spec.expand()]

    def test_grid(self):
        self.assert_keys_match(_spec(
            base={"time_limit": 30.0, "mip_rel_gap": 0.0},
            grid={"threshold": [0.1, 1e-300, -0.0, None],
                  "max_failures": [1, None]}))

    def test_cells(self):
        self.assert_keys_match(_spec(
            cells=[{"threshold": None, "max_failures": 2},
                   {"threshold": 1e-4, "max_failures": None},
                   {"threshold": 1e-4, "max_failures": None}]))

    def test_non_ascii_and_escapes(self):
        topology = dict(TOPOLOGY_DOC, name="Zürich→東京 \"wan\"\n",
                        nodes=["ä", "b\\c"])
        self.assert_keys_match(_spec(
            instance={"topology": topology, "note": "\U0001F600"},
            base={"label": "naïve"}, grid={"threshold": [1e-2]},
            name="ünïcode"))

    def test_file_references(self, tmp_path):
        (tmp_path / "wan.json").write_text(json.dumps(TOPOLOGY_DOC))
        spec_path = tmp_path / "campaign.json"
        spec_path.write_text(json.dumps({
            "kind": "sweep_spec", "instance": {"topology": "wan.json"},
            "grid": {"threshold": [1e-2, 1e-4]}}))
        self.assert_keys_match(SweepSpec.from_file(str(spec_path)))

    def test_edited_instance_never_yields_a_stale_key(self):
        spec = _spec(grid={"threshold": [1e-2]})
        before = spec.spec_hash, spec.expand()[0].key
        spec.instance["topology"] = dict(TOPOLOGY_DOC, name="edited")
        after_hash, expand = spec.keyed()
        [job] = expand()
        assert after_hash != before[0] and job.key != before[1]
        assert after_hash == _old_spec_hash(spec)
        assert job.key == job_key(job.payload)

    def test_bad_value_is_named_by_its_path(self):
        with pytest.raises(CacheKeyError) as err:
            _spec(grid={"threshold": [float("nan")]}).expand()
        assert "$.params.threshold" in str(err.value)
        with pytest.raises(CacheKeyError) as err:
            _spec(instance={"topology": TOPOLOGY_DOC,
                            "demands": [1.0, float("inf")]}).spec_hash
        assert "$.instance.demands[1]" in str(err.value)
