"""Unit tests for the from-scratch DBSCAN implementation."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.clustering.dbscan import DBSCAN, NOISE, dbscan_reference
from repro.clustering.frames import make_frame
from repro.errors import ClusteringError
from repro.shard import shard_assignment, sharded_dbscan
from repro.tracking.evaluators.displacement import displacement_matrix
from repro.tracking.scaling import normalize_frames
from tests.conftest import build_two_region_trace


def blobs(centers, n=50, scale=0.01, seed=0):
    rng = np.random.default_rng(seed)
    parts = [
        center + scale * rng.standard_normal((n, len(center)))
        for center in centers
    ]
    return np.vstack(parts)


class TestDBSCAN:
    def test_two_blobs(self):
        points = blobs([(0.0, 0.0), (1.0, 1.0)])
        result = DBSCAN(eps=0.1, min_pts=5).fit(points)
        assert result.n_clusters == 2
        # The first 50 points share one label, the rest the other.
        assert len(set(result.labels[:50])) == 1
        assert len(set(result.labels[50:])) == 1
        assert result.labels[0] != result.labels[50]

    def test_noise_detection(self):
        points = np.vstack([blobs([(0.0, 0.0)]), [[5.0, 5.0]]])
        result = DBSCAN(eps=0.1, min_pts=5).fit(points)
        assert result.labels[-1] == NOISE
        assert result.noise_indices.tolist() == [100 - 50]  # the lone point

    def test_all_noise_when_sparse(self):
        rng = np.random.default_rng(1)
        points = rng.uniform(0, 100, size=(30, 2))
        result = DBSCAN(eps=0.01, min_pts=5).fit(points)
        assert result.n_clusters == 0
        assert (result.labels == NOISE).all()

    def test_single_cluster_when_eps_huge(self):
        points = blobs([(0, 0), (1, 1), (2, 2)])
        result = DBSCAN(eps=10.0, min_pts=3).fit(points)
        assert result.n_clusters == 1

    def test_core_mask(self):
        points = blobs([(0.0, 0.0)], n=20)
        result = DBSCAN(eps=0.5, min_pts=3).fit(points)
        assert result.core_mask.all()

    def test_border_points_claimed(self):
        # A dense line of points plus one outlier within eps of the
        # line's endpoint: the outlier joins the cluster as a border
        # point (reached by a core point) without being core itself.
        line = np.column_stack([np.arange(21) * 0.001, np.zeros(21)])
        border = np.asarray([[0.03, 0.0]])
        points = np.vstack([line, border])
        result = DBSCAN(eps=0.0105, min_pts=10).fit(points)
        assert result.labels[-1] == result.labels[0]
        assert not result.core_mask[-1]

    def test_empty_input(self):
        result = DBSCAN(eps=0.1, min_pts=3).fit(np.empty((0, 2)))
        assert result.n_clusters == 0
        assert result.labels.shape == (0,)

    def test_labels_start_at_one(self):
        points = blobs([(0, 0)])
        result = DBSCAN(eps=0.5, min_pts=3).fit(points)
        assert set(result.labels) == {1}

    def test_cluster_indices(self):
        points = blobs([(0, 0), (3, 3)])
        result = DBSCAN(eps=0.1, min_pts=5).fit(points)
        for label in (1, 2):
            indices = result.cluster_indices(label)
            assert (result.labels[indices] == label).all()

    def test_three_dimensional_points(self):
        points = blobs([(0, 0, 0), (1, 1, 1)])
        result = DBSCAN(eps=0.1, min_pts=5).fit(points)
        assert result.n_clusters == 2

    def test_deterministic(self):
        points = blobs([(0, 0), (0.5, 0.5), (1, 1)], seed=3)
        r1 = DBSCAN(eps=0.08, min_pts=4).fit(points)
        r2 = DBSCAN(eps=0.08, min_pts=4).fit(points)
        np.testing.assert_array_equal(r1.labels, r2.labels)


class TestValidation:
    def test_bad_eps(self):
        with pytest.raises(ClusteringError):
            DBSCAN(eps=0.0, min_pts=3)

    def test_bad_min_pts(self):
        with pytest.raises(ClusteringError):
            DBSCAN(eps=0.1, min_pts=0)

    def test_one_dimensional_input_rejected(self):
        with pytest.raises(ClusteringError):
            DBSCAN(eps=0.1, min_pts=3).fit(np.zeros(5))

    def test_nan_rejected(self):
        points = np.asarray([[0.0, 0.0], [np.nan, 1.0]])
        with pytest.raises(ClusteringError, match="NaN"):
            DBSCAN(eps=0.1, min_pts=1).fit(points)

    @pytest.mark.parametrize("engine", ["grid", "reference"])
    def test_zero_columns_rejected(self, engine):
        points = np.zeros((5, 0))
        with pytest.raises(ClusteringError, match="column"):
            if engine == "grid":
                DBSCAN(eps=0.1, min_pts=1).fit(points)
            else:
                dbscan_reference(points, 0.1, 1)

    @pytest.mark.parametrize("engine", ["grid", "reference"])
    def test_squared_distance_overflow_rejected(self, engine):
        # Far apart points must be neither one cluster nor a TypeError
        # from a lost scipy error.
        points = np.asarray([[0.0, 0.0], [1e300, 1e300]])
        with pytest.raises(ClusteringError, match="overflow"):
            if engine == "grid":
                DBSCAN(eps=0.5, min_pts=2).fit(points)
            else:
                dbscan_reference(points, 0.5, 2)


class TestCellCoordinateOverflow:
    """Cell coordinates past int64 must not merge unrelated points."""

    def test_tiny_eps_falls_back_to_reference(self):
        points = np.random.default_rng(0).normal(size=(50, 2))
        result = DBSCAN(eps=1e-300, min_pts=2).fit(points)
        reference = dbscan_reference(points, 1e-300, 2)
        assert (result.labels == NOISE).all()
        np.testing.assert_array_equal(result.labels, reference.labels)
        np.testing.assert_array_equal(result.core_mask, reference.core_mask)

    def test_far_from_origin_keeps_distinct_points_apart(self):
        # x / cell width is ~1e23 here, past int64: both x values would
        # cast to one cell and form a spurious clique.
        points = np.asarray([[1e20, 0.0], [1e20, 0.0], [1e20 + 2.0**15, 0.0]])
        result = DBSCAN(eps=1e-3, min_pts=2).fit(points)
        np.testing.assert_array_equal(result.labels, [1, 1, NOISE])


class TestNoThreadFanOut:
    """Ball and nearest-neighbour queries run on the calling thread."""

    def test_no_thread_started(self, monkeypatch):
        rng = np.random.default_rng(3)
        # Dense blobs plus sparse stragglers, so the core count, cell
        # pair and border queries all run.
        points = np.vstack([
            blobs([[0.0, 0.0], [1.0, 1.0]], n=200, scale=0.05),
            rng.uniform(-0.5, 1.5, size=(100, 2)),
        ])
        first = make_frame(build_two_region_trace(seed=1, nranks=6, iterations=5))
        second = make_frame(build_two_region_trace(seed=2, nranks=6, iterations=5))
        space = normalize_frames([first, second])
        shard_of = shard_assignment(np.arange(len(points)) % 4, 2)

        started = []
        original_start = threading.Thread.start

        def counting_start(thread):
            started.append(thread.name)
            original_start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        DBSCAN(eps=0.1, min_pts=5).fit(points)
        displacement_matrix(first, second, space.points[0], space.points[1])
        sharded_dbscan(points, 0.1, 5, shard_of, jobs=1)
        assert started == []


def _reference_dfs_labels(points: np.ndarray, eps: float, min_pts: int) -> np.ndarray:
    """Depth-first reference expansion (the pre-deque `queue.pop()` form).

    DBSCAN grows each core-connected component to exhaustion before the
    next seed starts, so the traversal discipline inside one expansion
    (FIFO vs LIFO) must not change the labelling.  This mirrors the
    production loop with only the queue discipline flipped.
    """
    from scipy.spatial import cKDTree

    n = points.shape[0]
    tree = cKDTree(points)
    neighborhoods = tree.query_ball_point(points, eps, workers=-1)
    core_mask = np.fromiter(
        (len(nb) >= min_pts for nb in neighborhoods), count=n, dtype=bool
    )
    labels = np.full(n, NOISE, dtype=np.int32)
    visited = np.zeros(n, dtype=bool)
    current_label = 0
    for seed in range(n):
        if visited[seed] or not core_mask[seed]:
            continue
        current_label += 1
        stack = [seed]
        visited[seed] = True
        labels[seed] = current_label
        while stack:
            point = stack.pop()  # LIFO: depth-first
            if not core_mask[point]:
                continue
            for neighbor in neighborhoods[point]:
                if labels[neighbor] == NOISE and not visited[neighbor]:
                    labels[neighbor] = current_label
                    visited[neighbor] = True
                    if core_mask[neighbor]:
                        stack.append(neighbor)
    return labels


class TestTraversalOrderInvariance:
    """Regression for the breadth-first/depth-first comment mismatch."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bfs_labels_match_dfs_reference(self, seed):
        points = blobs([(0, 0), (0.06, 0.06), (1, 1), (2, 0)], n=80, seed=seed)
        eps, min_pts = 0.08, 4
        result = DBSCAN(eps=eps, min_pts=min_pts).fit(points)
        np.testing.assert_array_equal(
            result.labels, _reference_dfs_labels(points, eps, min_pts)
        )

    def test_overlapping_chain_same_membership(self):
        # A dense chain where border points are reachable from several
        # cores of the same cluster: order-dependent claims must agree.
        line = np.column_stack([np.arange(40) * 0.004, np.zeros(40)])
        points = np.vstack([line, [[0.2, 0.5]]])
        eps, min_pts = 0.01, 3
        result = DBSCAN(eps=eps, min_pts=min_pts).fit(points)
        np.testing.assert_array_equal(
            result.labels, _reference_dfs_labels(points, eps, min_pts)
        )
