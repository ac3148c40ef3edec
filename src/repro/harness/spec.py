"""Declarative experiment specs and their shared-artifact dependencies.

This module is the harness's single source of truth about *what* the
battery contains.  Each paper table/figure (and each speculation-control
experiment) is described by a frozen :class:`ExperimentSpec`: its id,
report section and order, and -- most importantly -- the shared
artifacts it **depends on**
(:class:`ArtifactDep`): workload traces, pipeline branch streams,
estimator-bank measurements, speculation cells.  Only artifacts that
another process reads back are dependencies; cheap in-process views of
them (the columnar lowering of a trace, a pre-decoded program) are
memoised where they are used and never planned or persisted.

Execution layers consume the specs instead of hardcoding knowledge:

* :mod:`repro.harness.parallel` expands the declared deps into warm
  tasks and places each in its warm-up wave; a ``measurement`` dep
  names exactly the estimator families its experiment reads, so its
  cell is keyed the same whatever else is selected;
* :mod:`repro.harness.checkpoint` folds the declared deps into the
  checkpoint key, so a spec change invalidates stale checkpoints;
* :mod:`repro.harness.runner` renders report sections in spec order;
* :mod:`repro.cli` builds ``repro list`` and the plottable set from the
  registry.

Both :mod:`repro.harness.experiments` and
:mod:`repro.harness.speculation` register into the process-wide
:data:`SPECS` registry declaratively; registering an id twice raises a
``ValueError`` naming both registrants (previously a re-import would
silently overwrite).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Tuple

#: Dependency kinds the planner knows how to expand (one artifact per
#: workload of the scale for every kind).  A segmented ``pipeline`` dep
#: also expands into its ``pipeline-segment`` chain, which no spec
#: declares itself.
DEP_KINDS = (
    "trace",
    "pipeline",
    "measurement",
    "gating",
    "eager",
)

#: Layout of the result a speculation cell caches (the library's
#: gating or eager comparison), a key part of the cell and of its
#: experiment's checkpoint: an entry of another layout reads as a
#: plain miss, never as a corrupt one.
CELL_SCHEMA = "speculation-result/2"

#: Layout of the cached :class:`~repro.pipeline.PipelineResult`
#: (aggregates and distance counts, no per-branch records), a key part
#: of every ``pipeline`` artifact and of the checkpoints of the
#: experiments that read one: an entry of another layout is a plain
#: miss, and a checkpoint rendered from one re-runs on resume.
PIPELINE_SCHEMA = "pipeline-result/2"

#: The schema part a dependency kind adds to its checkpoint key parts.
_DEP_SCHEMAS = {
    "pipeline": PIPELINE_SCHEMA,
    "gating": CELL_SCHEMA,
    "eager": CELL_SCHEMA,
}


@dataclass(frozen=True)
class ArtifactDep:
    """One declared dependency on a shared, cacheable artifact.

    ``kind`` selects the artifact family; the other fields parameterise
    it (which fields apply depends on the kind):

    * ``trace`` -- the committed branch stream of each workload;
    * ``pipeline`` -- a cycle-level pipeline run (``predictor``);
    * ``measurement`` -- an estimator-bank measurement (``predictor``,
      ``families``; see :data:`repro.harness.experiments.BANK_FAMILIES`);
    * ``gating`` / ``eager`` -- speculation-control cells
      (``estimator``, and ``threshold`` for gating).
    """

    kind: str
    predictor: Optional[str] = None
    families: Tuple[str, ...] = ()
    estimator: Optional[str] = None
    threshold: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in DEP_KINDS:
            raise ValueError(
                f"unknown artifact dependency kind {self.kind!r};"
                f" expected one of {', '.join(DEP_KINDS)}"
            )

    def key_parts(self) -> Tuple:
        """Stable, JSON-representable identity (checkpoint fingerprints).

        A speculation cell's parts end with :data:`CELL_SCHEMA` (its
        experiment's checkpoint holds the cached results themselves)
        and a pipeline run's with :data:`PIPELINE_SCHEMA` (its
        experiments' checkpoints hold what was rendered from it)."""
        parts = (
            self.kind,
            self.predictor,
            list(self.families),
            self.estimator,
            self.threshold,
        )
        schema = _DEP_SCHEMAS.get(self.kind)
        return parts if schema is None else parts + (schema,)


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything the harness needs to know about one experiment."""

    experiment_id: str
    #: One-line summary (``repro list``).
    title: str
    #: ``(scale) -> ExperimentResult``.
    run: Callable
    #: Report section key (``paper`` or ``speculation``).
    section: str
    #: Position within the report; the battery renders ascending.
    order: int
    #: Human label of the reproduced paper artifact (README table).
    paper_ref: str = ""
    #: Shared artifacts the experiment reads (drives the warm-up waves).
    deps: Tuple[ArtifactDep, ...] = ()
    #: Whether ``repro plot`` can chart it.
    plot: bool = False

    def dep_kinds(self) -> Tuple[str, ...]:
        return tuple(dict.fromkeys(dep.kind for dep in self.deps))


#: Report sections in render order, with their human headings.
SECTIONS: Dict[str, str] = {
    "paper": "Paper tables and figures",
    "speculation": "Speculation control",
}


class SpecRegistry(Mapping):
    """Ordered ``experiment id -> ExperimentSpec`` registry.

    A mapping with one extra rule: each id registers exactly once.  A
    second registration raises a ``ValueError`` naming both registrants,
    which turns the old silent-overwrite hazard into a loud import-time
    failure.
    """

    def __init__(self) -> None:
        self._specs: Dict[str, ExperimentSpec] = {}
        self._registrants: Dict[str, str] = {}

    def register(
        self, spec: ExperimentSpec, registrant: Optional[str] = None
    ) -> ExperimentSpec:
        """Add ``spec``; ``registrant`` defaults to ``spec.run.__module__``."""
        registrant = registrant or getattr(spec.run, "__module__", "<unknown>")
        existing = self._registrants.get(spec.experiment_id)
        if existing is not None:
            raise ValueError(
                f"experiment id {spec.experiment_id!r} is already registered"
                f" by {existing}; refusing duplicate registration by"
                f" {registrant}"
            )
        self._specs[spec.experiment_id] = spec
        self._registrants[spec.experiment_id] = registrant
        return spec

    def registrant(self, experiment_id: str) -> Optional[str]:
        return self._registrants.get(experiment_id)

    def in_order(self) -> List[ExperimentSpec]:
        """All specs sorted by declared report order (ties by id)."""
        return sorted(
            self._specs.values(), key=lambda spec: (spec.order, spec.experiment_id)
        )

    def by_section(self) -> Dict[str, List[ExperimentSpec]]:
        """Specs grouped by section, each group in report order."""
        grouped: Dict[str, List[ExperimentSpec]] = {}
        for spec in self.in_order():
            grouped.setdefault(spec.section, []).append(spec)
        return grouped

    # -- Mapping interface ---------------------------------------------

    def __getitem__(self, experiment_id: str) -> ExperimentSpec:
        return self._specs[experiment_id]

    def __iter__(self) -> Iterator[str]:
        return iter(
            spec.experiment_id for spec in self.in_order()
        )

    def __len__(self) -> int:
        return len(self._specs)


#: The process-wide spec registry.  ``experiments.py`` registers the
#: paper battery, ``speculation.py`` the speculation battery.
SPECS = SpecRegistry()

