"""Declarative sweep specifications and hashable job descriptors.

A campaign is a :class:`SweepSpec`: one *instance* (topology, demands,
paths -- embedded as their serialized JSON documents so the spec is
self-contained and content-addressable), a *base* parameter dict, and
either a rectangular *grid* (parameter name -> list of values, expanded
as a cross product) or an explicit list of *cells* for non-rectangular
sweeps like Figure 5's pairing of finite failure budgets with no
threshold and thresholds with no budget.

``SweepSpec.expand()`` turns the spec into :class:`Job` descriptors.  A
job is nothing but its *payload* -- a pure-JSON dict ``{"task", "instance",
"params"}`` -- which makes it picklable for worker processes, hashable
for the result cache (:func:`repro.runner.cache.job_key`), and journal
friendly.  Identical cells produced by overlapping grids deduplicate by
key at expansion time.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

from repro.exceptions import ModelingError
from repro.runner.cache import (
    canonical_json,
    canonical_key,
    canonical_object,
    job_key,
)

#: The default worker entry point, as an importable ``module:function``
#: reference (resolved inside worker processes, so specs stay JSON).
DEFAULT_TASK = "repro.runner.executor:degradation_task"

#: Instance keys that may reference on-disk documents in a spec file.
_FILE_KEYS = ("topology", "demands", "avg_demands", "peak_demands", "paths")


@dataclass
class Job:
    """One unit of sweep work: a self-contained, JSON-pure payload."""

    payload: dict
    _key: str | None = field(default=None, repr=False, compare=False)

    @property
    def key(self) -> str:
        """Stable content address of this job (cache/journal key)."""
        if self._key is None:
            self._key = job_key(self.payload)
        return self._key

    @property
    def params(self) -> dict:
        """The job's parameter cell (base merged with its grid cell)."""
        return self.payload.get("params", {})

    @property
    def label(self) -> str:
        """Short human-readable tag for progress lines and errors."""
        params = self.params
        bits = []
        if "demand_mode" in params:
            bits.append(str(params["demand_mode"]))
        if "threshold" in params:
            t = params["threshold"]
            bits.append("t=-" if t is None else f"t={t:g}")
        if "max_failures" in params:
            k = params["max_failures"]
            bits.append("k=inf" if k is None else f"k={k}")
        if params.get("connected_enforced"):
            bits.append("ce")
        return " ".join(bits) if bits else self.key[:12]


@dataclass
class SweepSpec:
    """A declarative campaign: instance x parameter grid -> jobs.

    Attributes:
        instance: Serialized inputs shared by every job.  Must contain a
            ``"topology"`` document; may contain ``"demands"`` /
            ``"avg_demands"`` / ``"peak_demands"`` and ``"paths"`` (or a
            ``"path_config"`` for paths computed inside the worker).
        base: Parameters applied to every cell.
        grid: Parameter name -> list of values; expanded as the cross
            product, in the listed key/value order (deterministic).
        cells: Explicit parameter cells.  When set, ``grid`` must be
            empty; use this for non-rectangular sweeps.
        task: ``module:function`` worker reference.
        name: Campaign name (journals, progress lines, workdirs).
    """

    instance: dict
    base: dict = field(default_factory=dict)
    grid: dict = field(default_factory=dict)
    cells: list | None = None
    task: str = DEFAULT_TASK
    name: str = "sweep"

    def __post_init__(self):
        if not isinstance(self.instance, dict) or "topology" not in self.instance:
            raise ModelingError(
                "a sweep spec's instance must be a dict with a 'topology' "
                "document (file references are resolved by from_dict)"
            )
        if self.cells is not None and self.grid:
            raise ModelingError("set at most one of grid / cells")
        if ":" not in self.task:
            raise ModelingError(
                f"task must be an importable 'module:function' reference, "
                f"got {self.task!r}"
            )

    def parameter_cells(self) -> list[dict]:
        """The sweep's cells: explicit, or the grid's cross product."""
        if self.cells is not None:
            return [dict(cell) for cell in self.cells]
        if not self.grid:
            return [{}]
        names = list(self.grid)
        combos = itertools.product(*(self.grid[name] for name in names))
        return [dict(zip(names, values)) for values in combos]

    def expand(self) -> list[Job]:
        """Expand to jobs, deduplicating identical cells by content key."""
        return self._expand(canonical_json(self.instance, "$.instance"))

    @property
    def spec_hash(self) -> str:
        """Content address of the whole campaign (journal header)."""
        return self.keyed()[0]

    def keyed(self) -> tuple[str, Callable[[], list[Job]]]:
        """The spec hash and a deferred :meth:`expand`, one encoding.

        The instance -- the bulk of every payload -- is encoded to
        canonical JSON once and spliced into the spec hash and into
        every job key, each equal to :func:`job_key` of its document
        byte for byte.  Nothing is kept on the spec: expand before
        editing it, and call again after.
        """
        instance = canonical_json(self.instance, "$.instance")
        spec_hash = canonical_key(canonical_object({
            "instance": instance,
            "base": canonical_json(self.base, "$.base"),
            "grid": canonical_json(self.grid, "$.grid"),
            "cells": canonical_json(self.cells, "$.cells"),
            "task": canonical_json(self.task, "$.task"),
        }))
        return spec_hash, lambda: self._expand(instance)

    def _expand(self, instance: str) -> list[Job]:
        """:meth:`expand` given the instance's canonical JSON."""
        task = canonical_json(self.task, "$.task")
        jobs, seen = [], set()
        for cell in self.parameter_cells():
            params = {**self.base, **cell}
            key = canonical_key(canonical_object({
                "task": task, "instance": instance,
                "params": canonical_json(params, "$.params"),
            }))
            if key in seen:
                continue
            seen.add(key)
            jobs.append(Job({"task": self.task, "instance": self.instance,
                             "params": params}, _key=key))
        return jobs

    def to_dict(self) -> dict:
        """Serialize (instance documents stay embedded)."""
        out = {
            "kind": "sweep_spec",
            "name": self.name,
            "task": self.task,
            "instance": self.instance,
            "base": self.base,
        }
        if self.cells is not None:
            out["cells"] = self.cells
        else:
            out["grid"] = self.grid
        return out

    @classmethod
    def from_dict(cls, data: dict, base_dir: str | None = None) -> "SweepSpec":
        """Build a spec from a (possibly file-referencing) document.

        Instance values that are strings are treated as paths to JSON
        documents (or ``.graphml``/``.xml`` topologies), resolved
        relative to ``base_dir``, and *embedded* -- so the cache key
        covers file contents, not file names: editing a referenced
        topology changes every job key.
        """
        if data.get("kind") not in (None, "sweep_spec"):
            raise ModelingError(
                f"expected a sweep_spec document, got {data.get('kind')!r}"
            )
        instance = dict(data.get("instance", {}))
        for key in _FILE_KEYS:
            ref = instance.get(key)
            if isinstance(ref, str):
                instance[key] = _load_document(ref, key, base_dir)
        return cls(
            instance=instance,
            base=dict(data.get("base", {})),
            grid=dict(data.get("grid", {})),
            cells=list(data["cells"]) if "cells" in data else None,
            task=data.get("task", DEFAULT_TASK),
            name=data.get("name", "sweep"),
        )

    @classmethod
    def from_file(cls, path: str) -> "SweepSpec":
        """Load a spec file; sibling file references resolve beside it."""
        from repro.network import serialization as ser

        spec = cls.from_dict(ser.load_json(path),
                             base_dir=str(Path(path).parent))
        if spec.name == "sweep":
            spec.name = Path(path).stem
        return spec


def _load_document(ref: str, key: str, base_dir: str | None) -> dict:
    """Resolve one instance file reference to its embedded document."""
    from repro.network import serialization as ser

    path = Path(ref)
    if not path.is_absolute() and base_dir is not None:
        path = Path(base_dir) / path
    if key == "topology" and ref.endswith((".graphml", ".xml")):
        from repro.network.graphml import read_graphml

        return ser.topology_to_dict(read_graphml(str(path)))
    return ser.load_json(str(path))
