"""Displacement evaluator: nearest-neighbour cross-classification.

Paper section 3.1.  Objects generally drift smoothly through the
performance space, so classifying every burst of frame A onto the
nearest burst of frame B (in the shared normalised space) reveals which
B object each A object has likely become.  Cell (i, j) of the resulting
matrix is the fraction of A_i's bursts whose nearest B neighbour
belongs to B_j — exactly the percentages of the paper's Figure 3.

The evaluator is deliberately fallible for long jumps (the points land
on whatever object happens to be nearest); the call-stack and sequence
evaluators correct those cases downstream.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from repro.clustering.frames import Frame
from repro.errors import TrackingError
from repro.tracking.correlation import CorrelationMatrix

__all__ = [
    "EVALUATOR",
    "displacement_matrix",
    "displacement_matrix_reference",
    "frame_tree",
]

#: Provenance tag of this evaluator (see ``repro.tracking.combine``).
EVALUATOR = "displacement"


def frame_tree(frame: Frame, points: np.ndarray) -> cKDTree | None:
    """The k-d tree over a frame's *clustered* points, or None if empty.

    Exposed so callers evaluating many pairs against the same frame
    (``Tracker.run``, ``track_windows``) can build each frame's tree
    once and pass it through ``displacement_matrix(..., tree_b=...)``.
    """
    clustered = np.flatnonzero(frame.labels != 0)
    if clustered.size == 0:
        return None
    return cKDTree(points[clustered])


def _id_lookup(ids: tuple[int, ...], labels: np.ndarray) -> np.ndarray:
    """Map a label value to its position in *ids* (-1 when absent)."""
    size = max(max(ids), int(labels.max(initial=0))) + 1
    lookup = np.full(size, -1, dtype=np.int64)
    lookup[np.asarray(ids, dtype=np.int64)] = np.arange(len(ids))
    return lookup


def displacement_matrix(
    frame_a: Frame,
    frame_b: Frame,
    points_a: np.ndarray,
    points_b: np.ndarray,
    *,
    tree_b: cKDTree | None = None,
) -> CorrelationMatrix:
    """Cross-classify frame A's bursts onto frame B's objects.

    Parameters
    ----------
    frame_a, frame_b:
        The two frames (for labels and cluster inventories).
    points_a, points_b:
        The frames' points in the **shared normalised space** (from
        :func:`repro.tracking.scaling.normalize_frames`), aligned with
        each frame's burst order.
    tree_b:
        Optional pre-built :func:`frame_tree` of ``frame_b`` — callers
        that evaluate many pairs against one frame pass it to avoid
        rebuilding the tree per pair.

    Returns
    -------
    CorrelationMatrix
        Rows = A's cluster ids, columns = B's cluster ids, cell (i, j) =
        fraction of A_i bursts nearest to a B_j burst.  Rows of empty
        clusters are zero.

    Notes
    -----
    One k-NN query over all of A's clustered bursts plus one flattened
    2-D bincount over (row, column) pairs; bit-identical to
    :func:`displacement_matrix_reference` because per-point nearest
    neighbours are independent of query batching and each cell divides
    the same two integers.
    """
    if points_a.shape[0] != frame_a.n_points:
        raise TrackingError("points_a does not match frame_a's burst count")
    if points_b.shape[0] != frame_b.n_points:
        raise TrackingError("points_b does not match frame_b's burst count")

    ids_a = frame_a.cluster_ids
    ids_b = frame_b.cluster_ids
    values = np.zeros((len(ids_a), len(ids_b)), dtype=np.float64)
    if not ids_a or not ids_b:
        return CorrelationMatrix(ids_a, ids_b, values)

    labels_b = frame_b.labels
    clustered_b = np.flatnonzero(labels_b != 0)
    if clustered_b.size == 0:
        return CorrelationMatrix(ids_a, ids_b, values)
    tree = tree_b if tree_b is not None else cKDTree(points_b[clustered_b])

    rows = _id_lookup(ids_a, frame_a.labels)[frame_a.labels]
    sel = np.flatnonzero(rows >= 0)
    if not sel.size:
        return CorrelationMatrix(ids_a, ids_b, values)
    _, nearest = tree.query(points_a[sel], k=1, workers=1)
    nearest_labels = labels_b[clustered_b[nearest]]
    cols = _id_lookup(ids_b, nearest_labels)[nearest_labels]

    n_cols = len(ids_b)
    rows = rows[sel]
    hit = cols >= 0
    counts = np.bincount(
        rows[hit] * n_cols + cols[hit], minlength=len(ids_a) * n_cols
    ).reshape(len(ids_a), n_cols)
    totals = np.bincount(rows, minlength=len(ids_a))
    occupied = totals > 0
    values[occupied] = counts[occupied] / totals[occupied, None]
    return CorrelationMatrix(ids_a, ids_b, values)


def displacement_matrix_reference(
    frame_a: Frame,
    frame_b: Frame,
    points_a: np.ndarray,
    points_b: np.ndarray,
) -> CorrelationMatrix:
    """Per-cluster loop formulation: the executable specification.

    :func:`displacement_matrix` must agree with this bit-for-bit; the
    regression suite enforces that.
    """
    if points_a.shape[0] != frame_a.n_points:
        raise TrackingError("points_a does not match frame_a's burst count")
    if points_b.shape[0] != frame_b.n_points:
        raise TrackingError("points_b does not match frame_b's burst count")

    ids_a = frame_a.cluster_ids
    ids_b = frame_b.cluster_ids
    values = np.zeros((len(ids_a), len(ids_b)), dtype=np.float64)
    if not ids_a or not ids_b:
        return CorrelationMatrix(ids_a, ids_b, values)

    labels_b = frame_b.labels
    clustered_b = np.flatnonzero(labels_b != 0)
    if clustered_b.size == 0:
        return CorrelationMatrix(ids_a, ids_b, values)
    tree = cKDTree(points_b[clustered_b])

    col_index = {cid: j for j, cid in enumerate(ids_b)}
    labels_a = frame_a.labels
    for i, cid in enumerate(ids_a):
        member_points = points_a[labels_a == cid]
        if member_points.shape[0] == 0:
            continue
        _, nearest = tree.query(member_points, k=1, workers=1)
        nearest_labels = labels_b[clustered_b[nearest]]
        counts = np.bincount(nearest_labels, minlength=max(ids_b) + 1)
        total = member_points.shape[0]
        for cid_b, j in col_index.items():
            if counts[cid_b]:
                values[i, j] = counts[cid_b] / total
    return CorrelationMatrix(ids_a, ids_b, values)
