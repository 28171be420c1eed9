"""Pipeline instrumentation: real runs produce the expected spans/metrics."""

from __future__ import annotations

import numpy as np

from repro import obs, quick_track
from repro.clustering.dbscan import DBSCAN
from repro.clustering.frames import FrameSettings
from tests.conftest import build_two_region_trace


def _tracked_pair():
    first = build_two_region_trace(scenario={"run": 0}, seed=1)
    second = build_two_region_trace(scenario={"run": 1}, ipc_b=0.4, seed=2)
    return quick_track([first, second])


class TestPipelineSpans:
    def test_quick_track_stage_tree(self):
        obs.enable()
        result = _tracked_pair()
        assert result.coverage > 0
        names = {span.name for span in obs.finished_spans()}
        assert {
            "api.quick_track",
            "clustering.make_frames",
            "clustering.make_frame",
            "clustering.dbscan",
            "tracking.run",
            "tracking.normalize",
            "tracking.pair",
            "tracking.evaluator.displacement",
            "tracking.evaluator.callstack",
            "tracking.evaluator.simultaneity",
            "tracking.chain",
        } <= names

    def test_span_attributes(self):
        obs.enable()
        _tracked_pair()
        by_name = {}
        for span in obs.finished_spans():
            by_name.setdefault(span.name, []).append(span)
        frame_spans = by_name["clustering.make_frame"]
        assert all(span.attrs["n_bursts"] == 40 for span in frame_spans)
        assert all(span.attrs["eps"] == 0.03 for span in frame_spans)
        assert all("n_clusters" in span.attrs for span in frame_spans)
        frame_indices = sorted(
            span.attrs["frame"] for span in by_name["clustering.frame"]
        )
        assert frame_indices == [0, 1]
        (run_span,) = by_name["tracking.run"]
        assert run_span.attrs["n_frames"] == 2
        assert "coverage" in run_span.attrs

    def test_decision_counters(self):
        obs.enable()
        _tracked_pair()
        snapshot = obs.metrics_snapshot()
        names = {
            (counter["name"], tuple(sorted(counter["labels"].items())))
            for counter in snapshot["counters"]
        }
        assert ("clustering.points_total", ()) in names
        assert (
            "tracking.links_proposed", (("evaluator", "displacement"),)
        ) in names
        assert (
            "tracking.links_pruned", (("evaluator", "callstack"),)
        ) in names
        points = [
            counter for counter in snapshot["counters"]
            if counter["name"] == "clustering.points_total"
        ]
        assert points[0]["value"] == 80  # two 40-burst frames

    def test_disabled_run_records_nothing(self):
        assert not obs.enabled()
        _tracked_pair()
        assert obs.finished_spans() == ()
        assert obs.metrics_snapshot()["counters"] == []

    def test_results_identical_enabled_vs_disabled(self):
        """Instrumentation must not perturb the pipeline's output."""
        disabled = _tracked_pair()
        obs.enable()
        enabled = _tracked_pair()
        assert disabled.coverage == enabled.coverage
        assert len(disabled.regions) == len(enabled.regions)
        np.testing.assert_array_equal(
            disabled.frames[0].labels, enabled.frames[0].labels
        )


class TestDBSCANPairCounts:
    """The span's cell-pair counts: a host-independent gate on the skip."""

    def test_most_borderline_pairs_skip_the_exact_test(self):
        rng = np.random.default_rng(0)
        centers = rng.uniform(0.1, 0.9, size=(12, 2))
        which = rng.integers(0, 12, size=10_000)
        points = np.clip(
            centers[which] + rng.normal(0.0, 0.02, size=(10_000, 2)), 0.0, 1.0
        )
        plain = DBSCAN(eps=0.03, min_pts=25).fit(points)
        obs.enable()
        traced = DBSCAN(eps=0.03, min_pts=25).fit(points)
        (span,) = [sp for sp in obs.finished_spans() if sp.name == "clustering.dbscan"]
        # Measured: 1,994 borderline pairs, 260 exact tests.  Testing
        # every pair again would read pair_tests == cell_pairs.
        assert span.attrs["cell_pairs"] > 1000
        assert span.attrs["pair_tests"] <= span.attrs["cell_pairs"] / 3
        # Telemetry stays a pure observer.
        np.testing.assert_array_equal(traced.labels, plain.labels)
        np.testing.assert_array_equal(traced.core_mask, plain.core_mask)


class TestSimulationSpans:
    def test_app_runner_span(self):
        from repro.apps import hydroc

        obs.enable()
        trace = hydroc.build(block_size=32, ranks=4, iterations=2).run(seed=0)
        spans = [
            span for span in obs.finished_spans() if span.name == "apps.run_app"
        ]
        assert len(spans) == 1
        assert spans[0].attrs["nranks"] == 4
        counters = {
            counter["name"]: counter["value"]
            for counter in obs.metrics_snapshot()["counters"]
        }
        assert counters["apps.bursts_total"] == trace.n_bursts

    def test_mpisim_span(self):
        from repro.mpisim.programs import stencil_1d
        from repro.mpisim.simulator import MPISimulator

        obs.enable()
        simulator = MPISimulator(4, app="test-stencil")
        trace = simulator.run(stencil_1d(iterations=2), seed=0)
        (span,) = [
            span for span in obs.finished_spans() if span.name == "mpisim.run"
        ]
        assert span.attrs["nranks"] == 4
        assert span.attrs["n_bursts"] == trace.n_bursts
        assert span.attrs["n_ops"] > 0


class TestTrendSpans:
    def test_trend_extraction_span(self):
        from repro.tracking.trends import compute_trends

        result = _tracked_pair()
        obs.enable()
        series = compute_trends(result, "ipc")
        (span,) = [
            span for span in obs.finished_spans()
            if span.name == "tracking.trends"
        ]
        assert span.attrs["metric"] == "ipc"
        assert span.attrs["n_series"] == len(series)


class TestConfigOverrideLog:
    def test_quick_track_logs_override(self, caplog):
        import logging

        first = build_two_region_trace(scenario={"run": 0}, seed=1)
        second = build_two_region_trace(scenario={"run": 1}, seed=2)
        with caplog.at_level(logging.INFO, logger="repro"):
            quick_track([first, second], settings=FrameSettings(log_y=True))
        messages = [record.message for record in caplog.records]
        assert any("log_extensive" in message for message in messages)
