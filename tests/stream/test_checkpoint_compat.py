"""Checkpoint format compatibility: inline payloads keep loading.

Formats 1 and 2 stored every window record inline under the stream
key; format 2 added the per-window ``alerts`` list, and format 3 moved
the records into per-window entries behind a ``{"format", "n"}`` head.
These tests pin the contract: format-1 checkpoints (written before
alerting existed) load with empty alerts and resume cleanly — including
into an alerting run, which recomputes alerts from the replayed frames
— a resumed inline checkpoint is migrated so the next restart replays
everything, and unknown formats are dropped wholesale.
"""

from __future__ import annotations

import shutil

import pytest

from repro import obs
from repro.clustering.frames import FrameSettings
from repro.obs.alerts import AlertConfig
from repro.parallel.cache import PipelineCache
from repro.stream import WatchTelemetry, slice_trace, track_windows
from repro.stream.checkpoint import (
    _ACCEPTED_FORMATS,
    _CHECKPOINT_FORMAT,
    _WINDOW_KIND,
    _record_to_json,
    _window_key,
    load_checkpoint,
    stream_key,
)
from repro.tracking.tracker import TrackerConfig
from tests.stream.test_alerts import DRIFT_WINDOW_NS, build_drift_trace


def _checkpointed_run(tmp_path, *, alerts=None):
    """One full watch over the drift trace; returns (trace, cache, key)."""
    trace = build_drift_trace(drift=True)
    cache = PipelineCache(tmp_path / "cache")
    telemetry = WatchTelemetry(alerts=alerts)
    track_windows(
        trace, window_ns=DRIFT_WINDOW_NS, cache=cache, telemetry=telemetry
    )
    spec, _ = slice_trace(trace, window_ns=DRIFT_WINDOW_NS)
    key = stream_key(
        trace, spec.as_dict(), FrameSettings(), TrackerConfig(), strict=True
    )
    return trace, cache, key, telemetry


def _downgrade(cache, key, *, fmt=1, n=None):
    """Replace the stored checkpoint by a faithful inline payload.

    The payload of format *fmt* holds the first *n* (default: all)
    records that :func:`load_checkpoint` returns; the per-window
    entries are removed, as an inline checkpoint never had them.
    """
    records = load_checkpoint(cache, key)
    assert records is not None
    windows = [_record_to_json(record) for record in records[:n]]
    if fmt == 1:
        for window in windows:
            window.pop("alerts")
    shutil.rmtree(cache.root / _WINDOW_KIND)
    cache.put(key, {"format": fmt, "windows": windows})
    return records


class TestFormatConstants:
    def test_current_format_is_accepted(self):
        assert _CHECKPOINT_FORMAT in _ACCEPTED_FORMATS

    def test_format_one_still_accepted(self):
        assert 1 in _ACCEPTED_FORMATS


class TestFormatOne:
    def test_loads_with_empty_alerts(self, tmp_path):
        _, cache, key, _ = _checkpointed_run(
            tmp_path, alerts=AlertConfig()
        )
        _downgrade(cache, key)
        records = load_checkpoint(cache, key)
        assert records is not None
        assert all(record.alerts == () for record in records)

    def test_resumes_a_plain_run(self, tmp_path):
        trace, cache, key, _ = _checkpointed_run(tmp_path)
        _downgrade(cache, key)
        reference = track_windows(trace, window_ns=DRIFT_WINDOW_NS)
        telemetry = WatchTelemetry()
        resumed = track_windows(
            trace, window_ns=DRIFT_WINDOW_NS, cache=cache,
            telemetry=telemetry,
        )
        assert telemetry.n_resumed > 0
        assert resumed.regions == reference.regions

    def test_resumes_into_alerting_run_with_recomputed_alerts(
        self, tmp_path
    ):
        trace, cache, key, _ = _checkpointed_run(tmp_path)
        _downgrade(cache, key)
        reference = WatchTelemetry(alerts=AlertConfig())
        track_windows(
            build_drift_trace(drift=True), window_ns=DRIFT_WINDOW_NS,
            telemetry=reference,
        )
        telemetry = WatchTelemetry(alerts=AlertConfig())
        track_windows(
            trace, window_ns=DRIFT_WINDOW_NS, cache=cache,
            telemetry=telemetry,
        )
        assert telemetry.n_resumed > 0
        assert telemetry.alerts == reference.alerts


class TestFormatTwo:
    def test_alerts_round_trip_through_the_checkpoint(self, tmp_path):
        _, cache, key, telemetry = _checkpointed_run(
            tmp_path, alerts=AlertConfig()
        )
        assert telemetry.alerts
        records = load_checkpoint(cache, key)
        stored = [
            alert for record in records for alert in record.alerts
        ]
        assert stored == telemetry.alerts

    def test_unknown_future_format_is_dropped(self, tmp_path):
        _, cache, key, _ = _checkpointed_run(tmp_path)
        payload = cache.get(key)
        payload["format"] = 99
        cache.put(key, payload)
        assert load_checkpoint(cache, key) is None

    def test_malformed_alert_entry_drops_the_checkpoint(self, tmp_path):
        _, cache, key, _ = _checkpointed_run(
            tmp_path, alerts=AlertConfig()
        )
        n = cache.get(key)["n"]
        window_key = next(
            _window_key(key, index) for index in range(n)
            if cache.get(_window_key(key, index))["alerts"]
        )
        tainted = cache.get(window_key)
        tainted["alerts"][0]["kind"] = "meltdown"
        cache.put(window_key, tainted)
        assert load_checkpoint(cache, key) is None


class TestInlineMigration:
    """Resuming from an inline checkpoint must not strand the next one.

    The first save after the replay writes every replayed window as its
    own entry; otherwise the format-3 head it commits would name
    entries that were never written and the next restart would
    silently start cold.
    """

    @pytest.mark.parametrize("fmt", [1, 2])
    def test_second_resume_replays_every_window(self, tmp_path, fmt):
        trace, cache, key, _ = _checkpointed_run(tmp_path)
        records = _downgrade(cache, key, fmt=fmt, n=4)
        assert all(record.status == "ok" for record in records)
        obs.enable()
        try:
            obs.reset()
            track_windows(trace, window_ns=DRIFT_WINDOW_NS, cache=cache)
            assert _resumed() == 4
            assert cache.get(key) == {
                "format": _CHECKPOINT_FORMAT, "n": len(records),
            }
            obs.reset()
            resumed = track_windows(
                trace, window_ns=DRIFT_WINDOW_NS, cache=cache
            )
            assert _resumed() == len(records)
        finally:
            obs.reset()
            obs.disable()
        reference = track_windows(trace, window_ns=DRIFT_WINDOW_NS)
        assert resumed.regions == reference.regions


def _resumed() -> int:
    return sum(
        counter["value"]
        for counter in obs.metrics_snapshot()["counters"]
        if counter["name"] == "stream.windows_resumed"
    )


class TestKeyMismatch:
    """Sharding / memory-bound knobs participate in the stream key.

    A checkpoint written under one (shards, max_live) configuration
    must not be adopted by a run under another — the regression test
    for the key that silently omitted them.
    """

    def _key(self, trace, **kwargs):
        spec, _ = slice_trace(trace, window_ns=DRIFT_WINDOW_NS)
        return stream_key(
            trace, spec.as_dict(), FrameSettings(), TrackerConfig(),
            strict=True, **kwargs,
        )

    def test_default_key_unchanged_by_default_knobs(self, tmp_path):
        trace, cache, key, _ = _checkpointed_run(tmp_path)
        explicit = self._key(trace, shards=1, max_live=None)
        assert explicit == key
        assert load_checkpoint(cache, explicit) is not None

    def test_shard_count_mismatch_misses(self, tmp_path):
        trace, cache, _, _ = _checkpointed_run(tmp_path)
        sharded = self._key(trace, shards=2)
        assert cache.get(sharded) is None
        assert load_checkpoint(cache, sharded) is None

    def test_max_live_mismatch_misses(self, tmp_path):
        trace, cache, _, _ = _checkpointed_run(tmp_path)
        bounded = self._key(trace, max_live=3)
        assert cache.get(bounded) is None
        assert load_checkpoint(cache, bounded) is None
