"""Sharded DBSCAN: cluster per rank-shard, merge to whole-frame labels.

The merge is exact, not approximate.  Three facts make that possible:

1. **Core status completes across shards.**  The shards partition the
   frame's points, so a point's global eps-neighbour count is the sum
   of its per-shard counts: ``count(p) = sum_s count_s(p)``.  Stage 1
   computes each shard's internal clustering (whose core masks are a
   lower bound on the global ones — a point core among its own shard's
   points only gains neighbours globally), and stage 2 completes the
   remaining candidates by querying every shard's k-d tree and summing
   the counts.  The resulting mask equals
   :meth:`repro.clustering.dbscan.DBSCAN._core_mask` bit-for-bit:
   both count the same inclusive-eps ball around every point.

2. **Labels are a pure function of the core mask.**  The grid engine's
   :meth:`~repro.clustering.dbscan.DBSCAN._label` derives the final
   labelling from (points, eps, min_pts, core mask) alone — connected
   components of the cores under eps-adjacency, labelled by the rank
   of their minimum core index, borders claimed by the smallest
   neighbouring label.  Stage 3 feeds the completed global core mask
   through exactly that code path, so cross-shard eps-reachability
   (clusters straddling a shard boundary, border points claimable from
   two shards) resolves exactly as the whole-frame run resolves it.

3. **Rank-sharding is spatially blind, and that is fine.**  Shards are
   blocks of ranks, not blocks of metric space — desynchronised ranks
   (Afzal et al., arXiv:2205.13963) put same-behaviour bursts in
   different shards, which is exactly why the merge must re-examine
   cross-shard reachability globally instead of stitching shard labels
   along a spatial frontier.

Stages 1 and 2 are embarrassingly parallel over shards and fan out via
:func:`repro.parallel.pmap`; stage 3 is a serial reduce.  Degenerate
geometries whose cell grid would overflow fall back to the reference
engine exactly like :meth:`DBSCAN.fit` does.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from repro import obs
from repro.clustering.dbscan import (
    DBSCAN,
    DBSCANResult,
    _empty_result,
    _Grid,
    _validate_points,
    dbscan_reference,
)
from repro.errors import ClusteringError
from repro.parallel.executor import pmap

__all__ = ["ShardClustering", "shard_assignment", "sharded_dbscan"]


class ShardClustering:
    """One shard's internal clustering, before the merge.

    Attributes
    ----------
    shard:
        Shard id.
    indices:
        Global point indices of the shard's members.
    result:
        The shard-local :class:`DBSCANResult` (labels are local — two
        shards' label 1 are unrelated until the merge).
    """

    __slots__ = ("shard", "indices", "result")

    def __init__(self, shard: int, indices: np.ndarray, result: DBSCANResult) -> None:
        self.shard = int(shard)
        self.indices = indices
        self.result = result

    def __repr__(self) -> str:
        return (
            f"ShardClustering(shard={self.shard}, "
            f"n_points={len(self.indices)}, "
            f"n_clusters={self.result.n_clusters})"
        )


def shard_assignment(ranks: np.ndarray, n_shards: int) -> np.ndarray:
    """Per-point shard ids: contiguous near-equal blocks of ranks.

    Rank blocks mirror how a distributed collector would naturally
    split a trace (rank-major files), and they keep each rank's bursts
    together so per-shard clusterings are meaningful on their own.
    Returns an int64 array aligned with *ranks*; at most ``n_shards``
    distinct ids appear (fewer when there are fewer ranks).
    """
    if n_shards < 1:
        raise ClusteringError(f"n_shards must be >= 1, got {n_shards}")
    ranks = np.asarray(ranks)
    unique = np.unique(ranks)
    blocks = np.array_split(unique, min(int(n_shards), len(unique)))
    shard_of_rank = np.empty(len(unique), dtype=np.int64)
    position = 0
    for shard, block in enumerate(blocks):
        shard_of_rank[position : position + len(block)] = shard
        position += len(block)
    return shard_of_rank[np.searchsorted(unique, ranks)]


def _shard_fit_task(
    task: tuple[np.ndarray, float, int],
) -> DBSCANResult:
    """Stage-1 worker: cluster one shard's points (module-level for pickling)."""
    points, eps, min_pts = task
    return DBSCAN(eps=eps, min_pts=min_pts).fit(points)


def _shard_count_task(
    task: tuple[np.ndarray, np.ndarray, float],
) -> np.ndarray:
    """Stage-2 worker: eps-neighbour counts of the candidates in one shard.

    Returns how many of this shard's points fall within *eps* of each
    candidate point (inclusive), using the same
    ``query_ball_point(..., return_length=True)`` predicate the
    whole-frame core-mask pass uses, so boundary-distance rounding is
    identical.
    """
    shard_points, candidates, eps = task
    return cKDTree(shard_points).query_ball_point(
        candidates, eps, workers=1, return_length=True
    )


def sharded_dbscan(
    points: np.ndarray,
    eps: float,
    min_pts: int,
    shard_of: np.ndarray,
    *,
    jobs: int | None = None,
    shards_out: list[ShardClustering] | None = None,
) -> DBSCANResult:
    """Cluster *points* shard-by-shard; merge to whole-frame labels.

    Parameters
    ----------
    points:
        ``(n, d)`` points in the (already normalised) metric space.
    eps / min_pts:
        The DBSCAN parameters, as for :meth:`DBSCAN.fit`.
    shard_of:
        Per-point shard id (see :func:`shard_assignment`).  A single
        distinct id short-circuits to the whole-frame engine.
    jobs:
        Worker count for the per-shard stages (``None`` defers to
        ``REPRO_JOBS``); results are identical at any job count.
    shards_out:
        When given, receives one :class:`ShardClustering` per
        non-empty shard — the pre-merge intermediates the edge-case
        tests inspect.

    Returns the same :class:`DBSCANResult` :meth:`DBSCAN.fit` returns
    for the same inputs, bit-for-bit (labels, cluster count and core
    mask) — the guarantee the Hypothesis differential suite enforces.
    """
    points = _validate_points(points)
    n = points.shape[0]
    if n == 0:
        return _empty_result()
    shard_of = np.asarray(shard_of)
    if shard_of.shape != (n,):
        raise ClusteringError(
            f"shard_of must have one id per point, got shape "
            f"{shard_of.shape} for {n} points"
        )
    clusterer = DBSCAN(eps=eps, min_pts=min_pts)
    shard_ids = np.unique(shard_of)
    if len(shard_ids) <= 1:
        return clusterer.fit(points)

    with obs.span(
        "shard.dbscan", n_points=n, n_shards=len(shard_ids), eps=eps,
        min_pts=min_pts,
    ) as shard_span:
        shard_indices = [np.flatnonzero(shard_of == s) for s in shard_ids]

        # Stage 1: independent per-shard clusterings (parallel).  A
        # point core among its own shard's points is core globally —
        # more points can only add neighbours — so the local masks
        # seed the global one.
        local = pmap(
            _shard_fit_task,
            [(points[idx], eps, min_pts) for idx in shard_indices],
            jobs=jobs,
            label="shard.fit.pmap",
        )
        if shards_out is not None:
            shards_out.extend(
                ShardClustering(int(s), idx, res)
                for s, idx, res in zip(shard_ids, shard_indices, local)
            )
        core_mask = np.zeros(n, dtype=bool)
        for idx, result in zip(shard_indices, local):
            core_mask[idx] = result.core_mask

        # Stage 2: complete the undecided points.  The shards partition
        # the frame, so the global neighbour count of a point is the sum
        # of its counts against every shard (its own shard counts the
        # point itself, exactly once).
        candidate_idx = np.flatnonzero(~core_mask)
        if candidate_idx.size:
            candidates = points[candidate_idx]
            counts = pmap(
                _shard_count_task,
                [(points[idx], candidates, eps) for idx in shard_indices],
                jobs=jobs,
                label="shard.count.pmap",
            )
            total = np.sum(np.stack(counts, axis=0), axis=0)
            core_mask[candidate_idx] = total >= min_pts

        # Stage 3: global merge.  The completed core mask equals what
        # DBSCAN._core_mask(points) computes, and the grid labeller is
        # a pure function of (points, eps, min_pts, core mask), so this
        # resolves cross-shard reachability exactly as a whole-frame
        # fit would.
        try:
            grid = _Grid(points, eps)
            labels, _, _ = clusterer._label(grid, core_mask)
        except OverflowError:
            result = dbscan_reference(points, eps, min_pts)
            if obs.enabled():
                shard_span.set(
                    n_clusters=result.n_clusters, engine="reference"
                )
            return result
        n_clusters = int(labels.max(initial=0))
        if obs.enabled():
            shard_span.set(
                n_clusters=n_clusters, n_core=int(core_mask.sum())
            )
            obs.count("shard.frames_total")
            obs.count("shard.shards_total", len(shard_ids))
        return DBSCANResult(
            labels=labels, n_clusters=n_clusters, core_mask=core_mask
        )
