"""Density-based clustering (DBSCAN), implemented from scratch.

The BSC cluster-analysis tool the paper builds on (Gonzalez et al.,
IPDPS'09) uses DBSCAN to group CPU bursts by similarity in the selected
metric space: density clustering needs no a-priori cluster count and
marks sparse points as noise, both essential when the number of
behavioural regions is unknown and instrumentation noise is present.

scikit-learn is not available in this environment, so this is a clean
classic implementation with two interchangeable engines:

- :func:`dbscan_reference` — the textbook formulation: neighbourhoods
  from a :class:`scipy.spatial.cKDTree` ball query, clusters grown
  breadth-first from unvisited core points, border points assigned to
  the first cluster that reaches them (Ester et al., 1996).  Kept as
  the executable specification the property suite checks against.
- :meth:`DBSCAN.fit` — a grid-bucketed, vectorised engine that
  produces **bit-identical** labels without ever walking Python-level
  neighbour lists.  See the *Equivalence* notes below.

Equivalence
-----------
The BFS labelling is fully determined by three facts, which the
vectorised engine computes directly:

1. *Core points* are those with ``>= min_pts`` neighbours within
   ``eps`` (self included) — independent of traversal order.
2. *Clusters* are the connected components of the core points under
   eps-adjacency.  The BFS numbers them from 1 in seed-discovery
   order, and the seed of a component is always its minimum-index core
   point, so: **a component's label is 1 + the rank of its minimum
   core-point index**.
3. *Border points* (non-core, within ``eps`` of some core point) are
   claimed by the first cluster whose expansion reaches them.  Since
   clusters are expanded to exhaustion in label order, that is always
   **the smallest label among the components of its core
   neighbours** — again independent of traversal order inside one
   cluster.

The grid engine buckets points into cells of width ``eps/sqrt(d)``
(shrunk by one part in 10^12): any two points in one cell are strictly
within ``eps`` of each other, so a cell with ``>= min_pts`` members is
a clique of core points and needs no counting at all.  Remaining
counts come from a single ``query_ball_point(..., return_length=True)``
pass — no neighbour lists are ever materialised.  Components are found
on the tiny *cell* graph (two cells connect iff some core pair across
them is within ``eps``).  Bounding-box screens settle most cell pairs;
the borderline rest goes through scipy's own ball predicate, but only
while a union-find over the sure-edge components still holds the two
cells apart: an edge inside one component cannot change the
components, and labels are numbered by minimum core index, so the
order pairs are visited in is irrelevant.  Border claims are one ball
query of the non-core points against a tree of the core points; each
list is shorter than ``min_pts`` by definition, and the smallest label
per point is one ``np.minimum.reduceat``.

Every query runs with ``workers=1``: most fits have a few hundred
points, where scipy's per-call thread start costs more than it saves,
and callers already parallelise across frames and shards.

Coordinate ranges whose squared diameter overflows float64 raise
:class:`~repro.errors.ClusteringError`; no eps-distance is meaningful
there, and scipy refuses the query.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from repro import obs
from repro.errors import ClusteringError

__all__ = ["DBSCAN", "DBSCANResult", "NOISE", "dbscan_reference"]

#: Label given to noise points.  Cluster labels start at 1 so that the
#: plots and tables read like the paper's ("Cluster 0" is reserved).
NOISE = 0

#: Cell widths are eps/sqrt(d) shrunk by this relative margin so the
#: in-cell diameter stays strictly below eps even after rounding.
_CELL_MARGIN = 1.0 - 1e-12

#: Relative slack applied to the bounding-box distance screens; pairs
#: inside the slack band fall through to scipy's own ball predicate.
_BBOX_SLACK = 1e-9


@dataclass(frozen=True, slots=True)
class DBSCANResult:
    """Outcome of one DBSCAN run.

    Attributes
    ----------
    labels:
        Per-point cluster label; ``NOISE`` (0) marks noise, clusters are
        numbered from 1 in discovery order (renumbered by callers that
        want duration ranking).
    n_clusters:
        Number of clusters found.
    core_mask:
        Boolean mask of core points.
    """

    labels: np.ndarray
    n_clusters: int
    core_mask: np.ndarray

    def cluster_indices(self, label: int) -> np.ndarray:
        """Indices of the points carrying *label*."""
        return np.flatnonzero(self.labels == label)

    @property
    def noise_indices(self) -> np.ndarray:
        """Indices of noise points."""
        return np.flatnonzero(self.labels == NOISE)


def _validate_points(points: np.ndarray) -> np.ndarray:
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ClusteringError(
            f"points must be a 2-D array, got shape {points.shape}"
        )
    if points.shape[1] == 0:
        raise ClusteringError("points must have at least one column")
    if not points.size:
        return points
    if not np.isfinite(points).all():
        raise ClusteringError("points contain NaN or infinite values")
    # scipy's ball query refuses (and no eps-distance is meaningful)
    # once the squared bounding-box diagonal overflows.
    with np.errstate(over="ignore"):
        diameter_sq = np.square(np.ptp(points, axis=0)).sum()
    if not np.isfinite(diameter_sq):
        raise ClusteringError(
            "coordinate range too wide: squared distances overflow float64"
        )
    return points


def _empty_result() -> DBSCANResult:
    return DBSCANResult(
        labels=np.zeros(0, dtype=np.int32),
        n_clusters=0,
        core_mask=np.zeros(0, dtype=bool),
    )


def dbscan_reference(
    points: np.ndarray, eps: float, min_pts: int
) -> DBSCANResult:
    """Textbook DBSCAN: ball-query neighbourhoods + breadth-first growth.

    This is the executable specification of the labelling semantics;
    :meth:`DBSCAN.fit` must agree with it bit-for-bit (see the module
    docstring) and the property suite enforces that.
    """
    points = _validate_points(points)
    n = points.shape[0]
    if n == 0:
        return _empty_result()

    tree = cKDTree(points)
    # Expansion never needs sorted neighbourhoods; skipping the sort
    # saves time on dense frames.
    neighborhoods = tree.query_ball_point(
        points, eps, workers=1, return_sorted=False
    )
    neighbor_counts = np.fromiter(
        (len(nb) for nb in neighborhoods), count=n, dtype=np.int64
    )
    core_mask = neighbor_counts >= min_pts

    labels = np.full(n, NOISE, dtype=np.int32)
    visited = np.zeros(n, dtype=bool)
    current_label = 0

    for seed in range(n):
        if visited[seed] or not core_mask[seed]:
            continue
        current_label += 1
        # Breadth-first expansion from this core point.  Each cluster's
        # core-connected component is exhausted before the next seed
        # starts, so the traversal discipline (FIFO here, LIFO, any
        # order) cannot change the labelling — only which points are
        # *visited* first.
        queue = deque([seed])
        visited[seed] = True
        labels[seed] = current_label
        while queue:
            point = queue.popleft()
            # Only core points expand the cluster; border points are
            # claimed but not traversed.
            if not core_mask[point]:
                continue
            for neighbor in neighborhoods[point]:
                if labels[neighbor] == NOISE and not visited[neighbor]:
                    labels[neighbor] = current_label
                    visited[neighbor] = True
                    if core_mask[neighbor]:
                        queue.append(neighbor)
    return DBSCANResult(
        labels=labels, n_clusters=current_label, core_mask=core_mask
    )


class _Grid:
    """Points bucketed into axis-aligned cells of width ``eps/sqrt(d)``.

    Encodes each cell as a single collision-free int64 key (coordinates
    are padded by the neighbour radius, so ``key + offset @ strides``
    never wraps into a different valid cell).
    """

    def __init__(self, points: np.ndarray, eps: float) -> None:
        n, d = points.shape
        self.points = points
        self.eps = eps
        self.width = eps * _CELL_MARGIN / np.sqrt(d)
        # Offsets whose cells could hold a point within eps: per-dim
        # gap between cells at offset k is (|k|-1) widths.
        self.radius = int(np.ceil(np.sqrt(d))) + 1
        if (2 * self.radius + 1) ** d > 200_000:
            raise OverflowError("neighbour offset table too large")

        coords = np.floor(points / self.width)
        # Checked before the cast: a finite value past int64 casts to
        # INT64_MIN and would merge unrelated points into one cell.
        # Below 2**61, the shift by the minimum cannot wrap either.
        if not np.abs(coords).max() < 2.0**61:
            raise OverflowError("cell coordinates overflow int64")
        coords = coords.astype(np.int64)
        coords -= coords.min(axis=0) - self.radius
        extents = coords.max(axis=0) + self.radius + 1
        if np.log2(extents.astype(np.float64)).sum() >= 62:
            raise OverflowError("cell key space exceeds int64")
        strides = np.ones(d, dtype=np.int64)
        strides[:-1] = np.cumprod(extents[::-1])[-2::-1]
        self.strides = strides

        point_keys = coords @ strides
        # Sorted unique keys: cell id == rank of its key, so neighbour
        # lookups are a searchsorted away.
        self.keys, self.cell_of_point, self.cell_counts = np.unique(
            point_keys, return_inverse=True, return_counts=True
        )

        grids = np.meshgrid(
            *([np.arange(-self.radius, self.radius + 1)] * d), indexing="ij"
        )
        offsets = np.stack([g.ravel() for g in grids], axis=1)
        # Keep one representative per unordered pair (lexicographically
        # positive offsets) and drop those whose minimum possible
        # point-to-point distance already exceeds eps.
        positive = np.zeros(len(offsets), dtype=bool)
        undecided = np.ones(len(offsets), dtype=bool)
        for k in range(d):
            positive |= undecided & (offsets[:, k] > 0)
            undecided &= offsets[:, k] == 0
        gap = np.maximum(np.abs(offsets) - 1, 0) * self.width
        reachable = np.sqrt((gap * gap).sum(axis=1)) <= eps * (1 + _BBOX_SLACK)
        self.offsets = offsets[positive & reachable]


def _rank_components(comp: np.ndarray, n_comp: int, core_idx: np.ndarray) -> np.ndarray:
    """1-based cluster label per component: rank of its min core index."""
    first = np.full(n_comp, core_idx.max() + 1, dtype=np.int64)
    np.minimum.at(first, comp, core_idx)
    rank = np.empty(n_comp, dtype=np.int32)
    rank[np.argsort(first, kind="stable")] = np.arange(1, n_comp + 1, dtype=np.int32)
    return rank


class DBSCAN:
    """Classic DBSCAN clusterer, grid-bucketed and vectorised.

    Parameters
    ----------
    eps:
        Neighbourhood radius in the (already normalised) metric space.
    min_pts:
        Minimum neighbourhood size (including the point itself) for a
        point to be *core*.

    Notes
    -----
    Produces labels bit-identical to :func:`dbscan_reference` (see the
    module docstring for why) in roughly ``O(n log n)`` with all
    per-point work in vectorised numpy/scipy — no Python-level
    neighbour-list walks.  Degenerate inputs whose cell grid would
    overflow int64 keys fall back to the reference engine.
    """

    def __init__(self, eps: float, min_pts: int) -> None:
        if eps <= 0:
            raise ClusteringError(f"eps must be > 0, got {eps}")
        if min_pts < 1:
            raise ClusteringError(f"min_pts must be >= 1, got {min_pts}")
        self.eps = float(eps)
        self.min_pts = int(min_pts)

    def fit(self, points: np.ndarray) -> DBSCANResult:
        """Cluster *points* (shape ``(n, d)``) and return the labelling."""
        points = _validate_points(points)
        n = points.shape[0]
        if n == 0:
            return _empty_result()

        with obs.span(
            "clustering.dbscan", n_points=n, eps=self.eps, min_pts=self.min_pts
        ) as fit_span:
            try:
                grid = _Grid(points, self.eps)
            except OverflowError:
                result = dbscan_reference(points, self.eps, self.min_pts)
                if obs.enabled():
                    fit_span.set(
                        n_clusters=result.n_clusters,
                        n_core=int(result.core_mask.sum()),
                        engine="reference",
                    )
                return result
            core_mask = self._core_mask(grid)
            labels, cell_pairs, pair_tests = self._label(grid, core_mask)
            n_clusters = int(labels.max(initial=0))
            if obs.enabled():
                fit_span.set(
                    n_clusters=n_clusters,
                    n_core=int(core_mask.sum()),
                    cell_pairs=cell_pairs,
                    pair_tests=pair_tests,
                )
            return DBSCANResult(
                labels=labels, n_clusters=n_clusters, core_mask=core_mask
            )

    def _core_mask(self, grid: _Grid) -> np.ndarray:
        """Core points without materialising neighbourhoods.

        A cell of ``>= min_pts`` points is a mutual-eps clique, so its
        members are core with no counting.  Only the sparse remainder
        pays one ``return_length=True`` ball query (counts only, no
        lists).
        """
        core_mask = (grid.cell_counts >= self.min_pts)[grid.cell_of_point]
        sparse_idx = np.flatnonzero(~core_mask)
        if sparse_idx.size:
            counts = cKDTree(grid.points).query_ball_point(
                grid.points[sparse_idx], self.eps, workers=1,
                return_length=True,
            )
            core_mask[sparse_idx] = counts >= self.min_pts
        return core_mask

    def _label(
        self, grid: _Grid, core_mask: np.ndarray
    ) -> tuple[np.ndarray, int, int]:
        """Labels, plus the borderline cell pairs and exact tests run."""
        n = grid.points.shape[0]
        labels = np.full(n, NOISE, dtype=np.int32)
        core_idx = np.flatnonzero(core_mask)
        if core_idx.size == 0:
            return labels, 0, 0

        # Group core points by cell (cells keep their sorted-key order).
        core_cell_all = grid.cell_of_point[core_idx]
        order = np.argsort(core_cell_all, kind="stable")
        grouped = core_idx[order]
        cells, starts, counts = np.unique(
            core_cell_all[order], return_index=True, return_counts=True
        )
        comp, cell_pairs, pair_tests = self._cell_components(
            grid, cells, starts, counts, grouped
        )

        # Label per core point: rank of its component's min core index.
        comp_pt = comp[np.searchsorted(cells, core_cell_all)]
        rank = _rank_components(comp_pt, int(comp.max()) + 1, core_idx)
        labels[core_idx] = rank[comp_pt]

        self._claim_borders(grid, labels, core_mask)
        return labels, cell_pairs, pair_tests

    def _cell_components(
        self,
        grid: _Grid,
        cells: np.ndarray,
        starts: np.ndarray,
        counts: np.ndarray,
        grouped: np.ndarray,
    ) -> tuple[np.ndarray, int, int]:
        """Connected components of core-occupied cells under eps-adjacency.

        Exact: core points inside one cell are a clique, so the core
        adjacency graph and this cell graph have identical components.
        Component ids are union-find roots, so they may skip values;
        ``_rank_components`` ranks only the ids in use.  Also returns
        how many borderline cell pairs survived both screens and how
        many of them needed the exact ball test.
        """
        n_cells = len(cells)
        if n_cells == 1:
            return np.zeros(1, dtype=np.int64), 0, 0
        core_pts = grid.points[grouped]
        ends = starts + counts
        # Per-cell bounding boxes of the core points, for the distance
        # screens below.
        box_min = np.minimum.reduceat(core_pts, starts, axis=0)
        box_max = np.maximum.reduceat(core_pts, starts, axis=0)

        cell_keys = grid.keys[cells]
        pairs_a: list[np.ndarray] = []
        pairs_b: list[np.ndarray] = []
        pairs_sure: list[np.ndarray] = []
        eps = self.eps
        lo_cut = eps * (1 + _BBOX_SLACK)
        hi_cut = eps * (1 - _BBOX_SLACK)
        for offset in grid.offsets:
            shift = int(offset @ grid.strides)
            pos = np.searchsorted(cell_keys, cell_keys + shift)
            pos = np.clip(pos, 0, n_cells - 1)
            src = np.flatnonzero(cell_keys[pos] == cell_keys + shift)
            if not src.size:
                continue
            dst = pos[src]
            # Screen 1: boxes further apart than eps cannot connect.
            gap = np.maximum(
                np.maximum(box_min[dst] - box_max[src],
                           box_min[src] - box_max[dst]),
                0.0,
            )
            near = np.sqrt((gap * gap).sum(axis=1)) <= lo_cut
            src, dst = src[near], dst[near]
            # Screen 2: boxes whose farthest corners are inside eps
            # always connect.
            span = np.maximum(box_max[dst], box_max[src]) - np.minimum(
                box_min[dst], box_min[src]
            )
            pairs_a.append(src)
            pairs_b.append(dst)
            pairs_sure.append(np.sqrt((span * span).sum(axis=1)) <= hi_cut)

        empty = [np.zeros(0, dtype=np.int64)]
        src = np.concatenate(pairs_a or empty)
        dst = np.concatenate(pairs_b or empty)
        sure = np.concatenate(pairs_sure or [np.zeros(0, dtype=bool)])
        graph = coo_matrix(
            (np.ones(int(sure.sum()), dtype=np.int8), (src[sure], dst[sure])),
            shape=(n_cells, n_cells),
        )
        n_comp, comp = connected_components(graph, directed=False)

        # A borderline pair can only change the components while it
        # still joins two of them; union-find tracks that as the
        # positive tests merge components.
        parent = list(range(n_comp))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]
            return x

        trees: dict[int, cKDTree] = {}
        pair_tests = 0
        comp_of = comp.tolist()
        split = ~sure & (comp[src] != comp[dst])
        for a, b in zip(src[split].tolist(), dst[split].tolist()):
            root_a, root_b = find(comp_of[a]), find(comp_of[b])
            if root_a == root_b:
                continue
            pair_tests += 1
            # scipy's own ball predicate, so boundary-distance rounding
            # matches the reference run.
            tree = trees.get(a)
            if tree is None:
                tree = trees[a] = cKDTree(core_pts[starts[a]:ends[a]])
            hits = tree.query_ball_point(
                core_pts[starts[b]:ends[b]], eps, workers=1, return_length=True
            )
            if hits.any():
                parent[root_a] = root_b
        roots = np.array([find(c) for c in range(n_comp)])
        return roots[comp], int((~sure).sum()), pair_tests

    def _claim_borders(
        self, grid: _Grid, labels: np.ndarray, core_mask: np.ndarray
    ) -> None:
        """Assign border points: smallest label among core eps-neighbours.

        Equivalent to the BFS first-claim rule because clusters are
        expanded to exhaustion in label order (module docstring).  One
        query serves every cluster: a non-core point has fewer than
        ``min_pts`` neighbours, so its hit list is short.
        """
        noncore_idx = np.flatnonzero(~core_mask)
        if not noncore_idx.size:
            return
        core_idx = np.flatnonzero(core_mask)
        hits = cKDTree(grid.points[core_idx]).query_ball_point(
            grid.points[noncore_idx], self.eps, workers=1, return_sorted=False
        )
        lengths = np.fromiter(map(len, hits), count=len(hits), dtype=np.intp)
        border = np.flatnonzero(lengths)
        if not border.size:
            return
        neighbours = np.fromiter(
            itertools.chain.from_iterable(hits), count=int(lengths.sum()),
            dtype=np.intp,
        )
        starts = np.cumsum(lengths) - lengths
        labels[noncore_idx[border]] = np.minimum.reduceat(
            labels[core_idx[neighbours]], starts[border]
        )
