"""The frame-sequence tracker: pairwise relations chained into regions.

:class:`Tracker` runs the combination algorithm over every pair of
consecutive frames and links the resulting relations into *tracked
regions* — equivalence classes of objects that persist across the whole
sequence of experiments.  Regions are numbered by decreasing total
duration, the same convention clusters use, so "Region 1" is the most
time-consuming behaviour in the study.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro import obs
from repro.clustering.frames import Frame
from repro.errors import TrackingError
from repro.obs.log import get_logger
from repro.parallel.executor import SerialExecutor, get_executor, pmap
from repro.tracking.combine import (
    PairRelations,
    combine_pair,
    connected_components,
)
from repro.tracking.evalcache import EvalCache
from repro.tracking.coverage import coverage_percent
from repro.tracking.scaling import NormalizedSpace, normalize_frames

if TYPE_CHECKING:  # runtime import stays inside run (cycle avoidance)
    from repro.robust.partial import PartialResult

__all__ = [
    "TrackerConfig",
    "TrackedRegion",
    "TrackingResult",
    "Tracker",
    "chain_regions",
]

log = get_logger(__name__)


def _combine_task(
    task: tuple[int, Frame, Frame, np.ndarray, np.ndarray, "TrackerConfig", "EvalCache | None"],
) -> PairRelations:
    """Worker-side task: combine one frame pair (module-level for pickling).

    The last element is an optional shared
    :class:`~repro.tracking.evalcache.EvalCache`; ``Tracker.run``
    attaches one only on the serial backend (shipping k-d trees to
    worker processes would cost more than rebuilding them).

    The ``tracking.pair`` span is recorded in-process on the serial
    backend; worker-process spans are not collected by the parent.
    """
    index, frame_a, frame_b, points_a, points_b, config, cache = task
    with obs.span("tracking.pair", pair=index):
        return combine_pair(
            frame_a,
            frame_b,
            points_a,
            points_b,
            outlier_threshold=config.outlier_threshold,
            spmd_threshold=config.spmd_threshold,
            sequence_threshold=config.sequence_threshold,
            max_align_ranks=config.max_align_ranks,
            use_callstack=config.use_callstack,
            use_spmd=config.use_spmd,
            use_sequence=config.use_sequence,
            cache=cache,
        )


def _empty_pair_relations(frame_a: Frame, frame_b: Frame) -> PairRelations:
    """Evidence-free relations for a quarantined pair.

    Every matrix is all-zero over the real cluster ids and the relation
    list is empty, so downstream chaining simply sees no correspondence
    across this pair (regions end on its left side and new ones start on
    its right) and reporting code keeps working.
    """
    from repro.tracking.combine import PairProvenance
    from repro.tracking.correlation import CorrelationMatrix

    ids_a, ids_b = frame_a.cluster_ids, frame_b.cluster_ids

    def zeros(rows: tuple[int, ...], cols: tuple[int, ...]) -> CorrelationMatrix:
        return CorrelationMatrix(
            row_ids=rows, col_ids=cols, values=np.zeros((len(rows), len(cols)))
        )

    return PairRelations(
        relations=(),
        displacement_ab=zeros(ids_a, ids_b),
        displacement_ba=zeros(ids_b, ids_a),
        callstack_ab=zeros(ids_a, ids_b),
        simultaneity_a=zeros(ids_a, ids_a),
        simultaneity_b=zeros(ids_b, ids_b),
        sequence_ab=None,
        provenance=PairProvenance(),
    )


def _combine_chunk_task(
    task: tuple[int, list[Frame], list[np.ndarray], "TrackerConfig", bool],
) -> tuple[list, dict[str, int]]:
    """Worker-side task: combine a run of consecutive pairs with one cache.

    ``task`` is ``(start_pair_index, frames, points, config, strict)``
    where *frames*/*points* cover pairs ``start .. start+len(frames)-2``.
    A chunk-local :class:`EvalCache` is built inside the worker, so the
    chunk's interior frames are evaluated once instead of once per pair
    — the sharing the serial backend gets from its run-wide cache,
    recovered per worker.  Returns the per-pair results in order plus
    the cache statistics (worker-side obs counters do not propagate to
    the parent, so tree builds travel in the result).
    """
    start, frames, points, config, strict = task
    cache = EvalCache()
    worker = _combine_task if strict else _combine_task_quarantine
    results = [
        worker(
            (
                start + k,
                frames[k],
                frames[k + 1],
                points[k],
                points[k + 1],
                config,
                cache,
            )
        )
        for k in range(len(frames) - 1)
    ]
    return results, cache.info()


def _combine_task_quarantine(
    task: tuple[int, Frame, Frame, np.ndarray, np.ndarray, "TrackerConfig", "EvalCache | None"],
):
    """Non-strict worker-side task: returns a failure record, never raises
    a :class:`~repro.errors.ReproError`."""
    from repro.errors import ReproError
    from repro.robust.partial import ItemFailure

    index, frame_a, frame_b = task[0], task[1], task[2]
    try:
        return _combine_task(task)
    except ReproError as exc:
        return ItemFailure.from_exception(
            f"{frame_a.label} -> {frame_b.label} (pair {index})", "pair", exc
        )


@dataclass(frozen=True, slots=True)
class TrackerConfig:
    """Tunables of the tracking pipeline.

    Attributes
    ----------
    outlier_threshold:
        Displacement matrix cells below this are neglected (paper: 5 %).
    spmd_threshold:
        Minimum mutual SPMD co-occurrence for widening relations.
    sequence_threshold:
        Minimum sequence correspondence used to split wide relations.
    max_align_ranks:
        Rank sampling cap for in-frame sequence alignments.
    reference:
        Frame index anchoring the extensive-metric weighting.
    log_extensive:
        Normalise extensive axes in log space (match frames built with
        ``log_y=True``).
    use_callstack / use_spmd / use_sequence:
        Ablation switches for the corresponding evaluators; the
        displacement evaluator always runs.  Defaults follow the paper
        (everything on).
    """

    outlier_threshold: float = 0.05
    spmd_threshold: float = 0.5
    sequence_threshold: float = 0.3
    max_align_ranks: int = 64
    reference: int = 0
    log_extensive: bool = False
    use_callstack: bool = True
    use_spmd: bool = True
    use_sequence: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.outlier_threshold < 1.0:
            raise TrackingError("outlier_threshold must be in [0, 1)")
        if not 0.0 <= self.spmd_threshold <= 1.0:
            raise TrackingError("spmd_threshold must be in [0, 1]")
        if not 0.0 <= self.sequence_threshold <= 1.0:
            raise TrackingError("sequence_threshold must be in [0, 1]")
        if self.max_align_ranks < 1:
            raise TrackingError("max_align_ranks must be >= 1")


@dataclass(frozen=True)
class TrackedRegion:
    """One behaviour tracked along the frame sequence.

    Attributes
    ----------
    region_id:
        Duration-ranked id (1 = most time-consuming region).
    members:
        Per-frame sets of cluster ids belonging to this region; an empty
        set means the region is absent from that frame.
    total_duration:
        Summed duration of all member clusters across all frames.
    """

    region_id: int
    members: tuple[frozenset[int], ...]
    total_duration: float

    @property
    def spans_all(self) -> bool:
        """Whether the region is present in every frame."""
        return all(self.members)

    @property
    def n_frames_present(self) -> int:
        """Number of frames in which the region appears."""
        return sum(1 for m in self.members if m)

    def clusters_in(self, frame_index: int) -> frozenset[int]:
        """Cluster ids of the region within one frame."""
        return self.members[frame_index]

    def __repr__(self) -> str:
        parts = [
            "{" + ",".join(map(str, sorted(m))) + "}" if m else "-"
            for m in self.members
        ]
        return f"TrackedRegion(id={self.region_id}, {' -> '.join(parts)})"


@dataclass(frozen=True)
class TrackingResult:
    """Everything the tracker produced for one frame sequence.

    Attributes
    ----------
    frames:
        The input frames.
    space:
        The shared normalised performance space.
    pair_relations:
        Per consecutive pair: relations plus evaluator diagnostics.
    regions:
        All tracked regions (including partial ones), duration-ranked.
    coverage:
        Integer coverage percentage (paper Table 2 semantics).
    """

    frames: tuple[Frame, ...]
    space: NormalizedSpace
    pair_relations: tuple[PairRelations, ...]
    regions: tuple[TrackedRegion, ...]
    coverage: int

    @property
    def tracked_regions(self) -> tuple[TrackedRegion, ...]:
        """Regions present in every frame of the sequence."""
        return tuple(region for region in self.regions if region.spans_all)

    @property
    def n_frames(self) -> int:
        """Number of frames in the study."""
        return len(self.frames)

    def region(self, region_id: int) -> TrackedRegion:
        """Look up one region by id."""
        for region in self.regions:
            if region.region_id == region_id:
                return region
        raise KeyError(f"no tracked region with id {region_id}")

    def region_of_cluster(self, frame_index: int, cluster_id: int) -> TrackedRegion | None:
        """The region that contains one frame's cluster, if any."""
        for region in self.regions:
            if cluster_id in region.members[frame_index]:
                return region
        return None

    def summary_row(self) -> dict[str, object]:
        """The paper's Table 2 row for this study."""
        return {
            "input_images": self.n_frames,
            "tracked_regions": len(self.tracked_regions),
            "coverage_pct": self.coverage,
        }


class Tracker:
    """Tracks objects across a sequence of frames.

    Parameters
    ----------
    frames:
        Two or more frames built with shared settings.
    config:
        Pipeline tunables; defaults follow the paper.
    """

    def __init__(self, frames: list[Frame], config: TrackerConfig | None = None) -> None:
        from repro.robust.validate import validate_frame

        if len(frames) < 2:
            raise TrackingError("tracking needs at least two frames")
        self.frames = list(frames)
        self.config = config or TrackerConfig()
        for frame in self.frames:
            validate_frame(frame)
        spaces = {frame.settings.metric_names for frame in self.frames}
        if len(spaces) > 1:
            raise TrackingError(
                "frames were built in different metric spaces "
                f"{sorted(spaces)}; rebuild them with shared FrameSettings"
            )

    def run(
        self, *, jobs: int | None = None, strict: bool = True
    ) -> "TrackingResult | PartialResult[TrackingResult]":
        """Execute the full pipeline and return the result.

        Parameters
        ----------
        jobs:
            Worker count for the per-pair combination fan-out (pairs
            are independent).  ``None`` defers to ``REPRO_JOBS``; 1 is
            serial.  The equivalence-region merge stays a serial
            reduce, so results are bit-identical to a serial run.
        strict:
            When true (the default), a failing pair combination aborts
            the run with its :class:`~repro.errors.ReproError`.  When
            false, the failing pair is quarantined — it contributes no
            relations, so regions simply do not connect across it — and
            the run returns a
            :class:`~repro.robust.partial.PartialResult` wrapping the
            :class:`TrackingResult` plus the failure records.
        """
        from repro.obs import ledger as obsledger
        from repro.robust.partial import ItemFailure, PartialResult

        config = self.config
        with obsledger.run_record(
            "tracking.run",
            n_frames=len(self.frames),
            config_digest=obsledger.config_digest(config),
            strict=strict,
        ) as ledger_rec, obs.span(
            "tracking.run", n_frames=len(self.frames)
        ) as run_span:
            with obs.span("tracking.normalize"):
                space = normalize_frames(
                    self.frames,
                    reference=config.reference,
                    log_extensive=config.log_extensive,
                )
            # Caches are never pickled across process boundaries.  On
            # the serial backend a single run-wide cache is shared by
            # every task; on the process backend consecutive pairs are
            # grouped into one chunk per worker, each chunk building a
            # worker-local cache, so interior frames of a chunk are
            # still evaluated once instead of once per pair.
            n_pairs = len(self.frames) - 1
            executor = get_executor(jobs, n_tasks=n_pairs)
            if isinstance(executor, SerialExecutor):
                cache = EvalCache()
                tasks = [
                    (
                        index,
                        self.frames[index],
                        self.frames[index + 1],
                        space.points[index],
                        space.points[index + 1],
                        config,
                        cache,
                    )
                    for index in range(n_pairs)
                ]
                raw = pmap(
                    _combine_task if strict else _combine_task_quarantine,
                    tasks,
                    jobs=jobs,
                    label="tracking.pairs.pmap",
                )
                obs.count("tracking.tree_builds_total", cache.tree_builds)
            else:
                chunk_tasks = []
                for chunk in np.array_split(
                    np.arange(n_pairs), min(executor.jobs, n_pairs)
                ):
                    if not len(chunk):
                        continue
                    start, stop = int(chunk[0]), int(chunk[-1]) + 1
                    chunk_tasks.append(
                        (
                            start,
                            self.frames[start : stop + 1],
                            list(space.points[start : stop + 1]),
                            config,
                            strict,
                        )
                    )
                chunked = pmap(
                    _combine_chunk_task,
                    chunk_tasks,
                    jobs=jobs,
                    label="tracking.pairs.pmap",
                )
                raw = []
                tree_builds = 0
                for results, cache_info in chunked:
                    raw.extend(results)
                    tree_builds += cache_info["tree_builds"]
                obs.count("tracking.tree_builds_total", tree_builds)
            failures: list[ItemFailure] = []
            pair_relations: list[PairRelations] = []
            for index, item in enumerate(raw):
                if isinstance(item, ItemFailure):
                    failures.append(item)
                    obs.count("robust.quarantined_total", stage="pair")
                    log.warning("quarantined pair: %s", item)
                    item = _empty_pair_relations(
                        self.frames[index], self.frames[index + 1]
                    )
                pair_relations.append(item)
            with obs.span("tracking.chain"):
                regions = self._chain(pair_relations)
            coverage = coverage_percent(regions, self.frames)
            if obs.enabled():
                run_span.set(n_regions=len(regions), coverage=coverage)
                obs.count(
                    "tracking.relations_total",
                    sum(len(pair.relations) for pair in pair_relations),
                )
                obs.count("tracking.regions_total", len(regions))
                obs.set_gauge("tracking.coverage_pct", coverage)
                log.debug(
                    "tracked %d frames into %d regions (%d%% coverage)",
                    len(self.frames), len(regions), coverage,
                )
            result = TrackingResult(
                frames=tuple(self.frames),
                space=space,
                pair_relations=tuple(pair_relations),
                regions=tuple(regions),
                coverage=coverage,
            )
            if ledger_rec is not None:
                ledger_rec.annotate(
                    coverage=round(coverage, 4),
                    n_regions=len(regions),
                    quarantined={"pairs": len(failures)},
                )
            if strict:
                return result
            return PartialResult(value=result, failures=tuple(failures))

    def _chain(self, pair_relations: list[PairRelations]) -> list[TrackedRegion]:
        """Chain the pairwise relations into whole-sequence regions."""
        return chain_regions(self.frames, pair_relations)


def chain_regions(
    frames: list[Frame], pair_relations: list[PairRelations]
) -> list[TrackedRegion]:
    """Chain pairwise relations into duration-ranked whole-sequence regions.

    Shared by the batch :class:`Tracker` and the incremental
    :class:`repro.stream.IncrementalTracker`: given identical frames and
    pair relations both produce identical regions.

    Component-order contract: the graph's nodes are inserted frame by
    frame in cluster-id order, its edges pair by pair in relation order,
    and :func:`~repro.tracking.combine.connected_components` yields
    components in insertion order of their first node, each set built
    in breadth-first order.  That order is what breaks ties between
    equal-duration regions (the sort below is stable), and the set's
    iteration order fixes the float summation order of
    ``total_duration``.
    """
    graph: dict[tuple[int, int], dict[tuple[int, int], None]] = {
        (frame_index, cid): {}
        for frame_index, frame in enumerate(frames)
        for cid in frame.cluster_ids
    }
    for pair_index, pair in enumerate(pair_relations):
        for relation in pair.relations:
            members = [("L", cid) for cid in relation.left] + [
                ("R", cid) for cid in relation.right
            ]
            # Connect every member of a relation to the first member:
            # a star keeps the component identical to the full clique.
            if len(members) < 2:
                continue
            anchor_side, anchor_cid = members[0]
            anchor = (
                pair_index if anchor_side == "L" else pair_index + 1,
                anchor_cid,
            )
            for side, cid in members[1:]:
                node = (pair_index if side == "L" else pair_index + 1, cid)
                graph[anchor][node] = graph[node][anchor] = None

    regions: list[TrackedRegion] = []
    for component in connected_components(graph):
        members: list[set[int]] = [set() for _ in frames]
        for frame_index, cid in component:
            members[frame_index].add(cid)
        total = sum(
            frames[frame_index].cluster(cid).total_duration
            for frame_index, cid in component
        )
        regions.append(
            TrackedRegion(
                region_id=0,  # assigned below after ranking
                members=tuple(frozenset(m) for m in members),
                total_duration=total,
            )
        )
    regions.sort(key=lambda region: -region.total_duration)
    return [
        TrackedRegion(
            region_id=index + 1,
            members=region.members,
            total_duration=region.total_duration,
        )
        for index, region in enumerate(regions)
    ]
