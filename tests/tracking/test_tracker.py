"""Unit tests for the frame-sequence tracker."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.clustering.frames import make_frame, make_frames
from repro.errors import TrackingError
from repro.tracking.combine import Relation
from repro.tracking.tracker import (
    TrackedRegion,
    Tracker,
    TrackerConfig,
    chain_regions,
)
from tests.conftest import build_two_region_trace


def traces_for(n_frames: int):
    return [
        build_two_region_trace(
            seed=i, scenario={"run": i}, ipc_a=1.0 + 0.02 * i, ipc_b=0.5 - 0.01 * i
        )
        for i in range(n_frames)
    ]


class TestTrackerConfig:
    def test_defaults_match_paper(self):
        config = TrackerConfig()
        assert config.outlier_threshold == pytest.approx(0.05)

    def test_validation(self):
        with pytest.raises(TrackingError):
            TrackerConfig(outlier_threshold=1.5)
        with pytest.raises(TrackingError):
            TrackerConfig(spmd_threshold=-0.1)
        with pytest.raises(TrackingError):
            TrackerConfig(sequence_threshold=2.0)
        with pytest.raises(TrackingError):
            TrackerConfig(max_align_ranks=0)


class TestTracker:
    def test_needs_two_frames(self):
        frame = make_frame(build_two_region_trace())
        with pytest.raises(TrackingError):
            Tracker([frame])

    def test_two_frames(self):
        frames = make_frames(traces_for(2))
        result = Tracker(frames).run()
        assert len(result.tracked_regions) == 2
        assert result.coverage == 100
        assert result.n_frames == 2

    def test_many_frames_chain(self):
        frames = make_frames(traces_for(6))
        result = Tracker(frames).run()
        assert len(result.tracked_regions) == 2
        assert all(region.spans_all for region in result.tracked_regions)
        assert len(result.pair_relations) == 5

    def test_region_ids_duration_ranked(self):
        frames = make_frames(traces_for(3))
        result = Tracker(frames).run()
        durations = [region.total_duration for region in result.regions]
        assert durations == sorted(durations, reverse=True)
        assert [region.region_id for region in result.regions] == [1, 2]

    def test_region_lookup(self):
        frames = make_frames(traces_for(2))
        result = Tracker(frames).run()
        assert result.region(1).region_id == 1
        with pytest.raises(KeyError):
            result.region(99)

    def test_region_of_cluster(self):
        frames = make_frames(traces_for(2))
        result = Tracker(frames).run()
        region = result.region_of_cluster(0, 1)
        assert region is not None
        assert 1 in region.clusters_in(0)
        assert result.region_of_cluster(0, 99) is None

    def test_summary_row(self):
        frames = make_frames(traces_for(2))
        result = Tracker(frames).run()
        row = result.summary_row()
        assert row == {
            "input_images": 2,
            "tracked_regions": 2,
            "coverage_pct": 100,
        }

    def test_deterministic(self):
        frames = make_frames(traces_for(3))
        r1 = Tracker(frames).run()
        r2 = Tracker(frames).run()
        assert [reg.members for reg in r1.regions] == [reg.members for reg in r2.regions]


class TestChainRegions:
    def test_relation_naming_an_unknown_cluster_fails_loudly(self):
        frames = make_frames(traces_for(2))
        (pair,) = Tracker(frames).run().pair_relations
        bogus = Relation(left=frozenset({1}), right=frozenset({1, 999}))
        pair = dataclasses.replace(pair, relations=pair.relations + (bogus,))
        # The edge write names the missing node, before any duration is read.
        with pytest.raises(KeyError, match=r"\(1, 999\)"):
            chain_regions(frames, [pair])


class TestTrackedRegion:
    def test_spans_all(self):
        region = TrackedRegion(
            region_id=1,
            members=(frozenset({1}), frozenset({2})),
            total_duration=1.0,
        )
        assert region.spans_all
        assert region.n_frames_present == 2

    def test_partial(self):
        region = TrackedRegion(
            region_id=1,
            members=(frozenset({1}), frozenset()),
            total_duration=1.0,
        )
        assert not region.spans_all
        assert region.n_frames_present == 1

    def test_repr(self):
        region = TrackedRegion(
            region_id=3,
            members=(frozenset({1, 2}), frozenset()),
            total_duration=1.0,
        )
        assert "{1,2} -> -" in repr(region)
