"""Differential test of the grid engine at the sizes where it does work.

``test_prop_dbscan.py`` caps inputs at 60 points; at that size almost no
fit has a borderline cell pair across two components, and no border
point sits between two clusters.  These seeded multi-blob inputs (200
to 3,000 points, d = 2 and 3, a third rounded to a lattice with eps on
lattice distances) exercise the union-find pair skip and the single
border query, and must reproduce :func:`dbscan_reference` exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.clustering.dbscan import DBSCAN, NOISE, dbscan_reference

#: Eps values that are exact distances on the 1/4 lattice.
_LATTICE_EPS = (0.25, 0.5, 0.75, float(np.hypot(0.25, 0.25)))


def _case(seed: int) -> tuple[np.ndarray, float, int]:
    rng = np.random.default_rng(seed)
    d = 2 + seed % 2
    n = int(rng.integers(200, 3001))
    n_blobs = int(rng.integers(3, 9))
    centers = rng.uniform(0.0, 10.0, size=(n_blobs, d))
    points = centers[rng.integers(0, n_blobs, size=n)] + rng.normal(
        0.0, rng.uniform(0.2, 0.8), size=(n, d)
    )
    if seed % 3 == 0:
        points = np.round(points * 4) / 4
        eps = _LATTICE_EPS[seed % len(_LATTICE_EPS)]
    else:
        eps = float(rng.uniform(0.1, 0.5))
    return points, eps, int(rng.integers(3, 12))


def _assert_matches_reference(points, eps, min_pts):
    fast = DBSCAN(eps=eps, min_pts=min_pts).fit(points)
    reference = dbscan_reference(points, eps, min_pts)
    np.testing.assert_array_equal(fast.labels, reference.labels)
    np.testing.assert_array_equal(fast.core_mask, reference.core_mask)
    assert fast.n_clusters == reference.n_clusters


@pytest.mark.parametrize("seed", range(30))
def test_multi_blob_matches_reference(seed):
    _assert_matches_reference(*_case(seed))


def test_equidistant_border_takes_smaller_label():
    # Two chains on the x axis, 1/8 apart, with one point exactly eps
    # from each chain's end.  It has 3 neighbours (itself and the two
    # ends), so it is a border point of both clusters.
    right = np.arange(2.0, 3.0 + 1e-9, 0.125)
    left = np.arange(0.0, 1.0 + 1e-9, 0.125)
    xs = np.concatenate([right, [1.5], left])
    points = np.column_stack([xs, np.zeros_like(xs)])
    border = len(right)
    result = DBSCAN(eps=0.5, min_pts=4).fit(points)
    assert not result.core_mask[border]
    assert result.n_clusters == 2
    assert result.labels[border] == 1
    assert NOISE not in result.labels
    _assert_matches_reference(points, 0.5, 4)
