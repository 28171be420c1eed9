"""The format-3 checkpoint: one entry per window behind a small head.

Pins the three properties the per-window layout exists for: a save
costs the same at window 40 as at window 2, the head is the commit
point (a window entry written without its head update is ignored), and
a head naming a missing or corrupt window entry starts the run cold.
"""

from __future__ import annotations

import json
import logging

import pytest

from repro import obs
from repro.clustering.frames import FrameSettings
from repro.parallel.cache import PipelineCache
from repro.stream import slice_trace, track_windows
from repro.stream.checkpoint import (
    _CHECKPOINT_FORMAT,
    _window_key,
    load_checkpoint,
    stream_key,
)
from repro.tracking.tracker import TrackerConfig
from tests.stream.test_alerts import DRIFT_WINDOW_NS, build_drift_trace

N_WINDOWS = 40


@pytest.fixture(scope="module")
def trace():
    return build_drift_trace(drift=False, iterations=N_WINDOWS)


@pytest.fixture(scope="module")
def reference(trace):
    return track_windows(trace, window_ns=DRIFT_WINDOW_NS)


@pytest.fixture()
def counter():
    obs.enable()
    obs.reset()

    def read(name, **labels):
        return sum(
            c["value"] for c in obs.metrics_snapshot()["counters"]
            if c["name"] == name
            and all(c["labels"].get(k) == v for k, v in labels.items())
        )

    yield read
    obs.reset()
    obs.disable()


def _key(trace):
    spec, _ = slice_trace(trace, window_ns=DRIFT_WINDOW_NS)
    return stream_key(
        trace, spec.as_dict(), FrameSettings(), TrackerConfig(), strict=True
    )


def _full_run(trace, tmp_path):
    cache = PipelineCache(tmp_path / "cache")
    track_windows(trace, window_ns=DRIFT_WINDOW_NS, cache=cache)
    key = _key(trace)
    assert cache.get(key) == {"format": _CHECKPOINT_FORMAT, "n": N_WINDOWS}
    return cache, key


class _Crash(Exception):
    """Stands in for the process dying between two cache writes."""


def test_checkpoint_writes_stay_bounded(trace, tmp_path, monkeypatch):
    put = PipelineCache.put
    saves: list[int] = [0]  # bytes written per checkpoint save

    def recording_put(self, key, payload):
        path = put(self, key, payload)
        if key["kind"] in ("stream", "stream-window"):
            saves[-1] += path.stat().st_size
        if key["kind"] == "stream":  # the head closes one save
            saves.append(0)
        return path

    monkeypatch.setattr(PipelineCache, "put", recording_put)
    track_windows(
        trace, window_ns=DRIFT_WINDOW_NS,
        cache=PipelineCache(tmp_path / "cache"),
    )
    saves.pop()
    assert len(saves) == N_WINDOWS
    assert saves[-1] <= 2 * saves[1], saves


def test_window_entry_without_head_is_ignored(
    trace, reference, tmp_path, monkeypatch, counter
):
    crash_at = 7
    cache = PipelineCache(tmp_path / "cache")
    key = _key(trace)
    put = PipelineCache.put

    def crashing_put(self, entry_key, payload):
        if entry_key == key and payload["n"] == crash_at + 1:
            raise _Crash
        return put(self, entry_key, payload)

    monkeypatch.setattr(PipelineCache, "put", crashing_put)
    with pytest.raises(_Crash):
        track_windows(trace, window_ns=DRIFT_WINDOW_NS, cache=cache)
    monkeypatch.undo()

    assert cache.has(_window_key(key, crash_at))
    assert cache.get(key) == {"format": _CHECKPOINT_FORMAT, "n": crash_at}
    assert len(load_checkpoint(cache, key)) == crash_at
    obs.reset()
    resumed = track_windows(trace, window_ns=DRIFT_WINDOW_NS, cache=cache)
    assert counter("stream.windows_resumed") == crash_at
    assert counter("stream.updates_total") == N_WINDOWS - crash_at
    assert resumed.regions == reference.regions


def _drop(cache, key):
    cache._path(key).unlink()


def _flip_payload(cache, key):
    """Change the stored labels without updating the entry's digest."""
    path = cache._path(key)
    document = json.loads(path.read_text(encoding="utf-8"))
    document["payload"]["labels"][0] += 1
    path.write_text(json.dumps(document), encoding="utf-8")


DAMAGE = pytest.mark.parametrize(
    "damage, corrupt_kinds",
    [(_drop, ("stream",)), (_flip_payload, ("stream-window", "stream"))],
    ids=["missing", "digest-corrupt"],
)


@DAMAGE
def test_damaged_window_entry_drops_the_checkpoint(
    trace, tmp_path, counter, caplog, damage, corrupt_kinds
):
    cache, key = _full_run(trace, tmp_path)
    damage(cache, _window_key(key, 5))
    obs.reset()
    with caplog.at_level(logging.WARNING, logger="repro"):
        assert load_checkpoint(cache, key) is None
    for kind in corrupt_kinds:
        assert counter("cache.corrupt_total", kind=kind) == 1
    assert any(
        "discarding corrupt stream checkpoint" in message
        for message in caplog.messages
    )
    assert cache.get(key) is None  # the head went with it


@DAMAGE
def test_damaged_window_entry_starts_the_run_cold(
    trace, reference, tmp_path, counter, damage, corrupt_kinds
):
    cache, key = _full_run(trace, tmp_path)
    damage(cache, _window_key(key, 5))
    obs.reset()
    result = track_windows(trace, window_ns=DRIFT_WINDOW_NS, cache=cache)
    assert counter("stream.windows_resumed") == 0
    assert counter("stream.updates_total") == N_WINDOWS - 1
    for kind in corrupt_kinds:
        assert counter("cache.corrupt_total", kind=kind) == 1
    assert result.regions == reference.regions
    assert len(load_checkpoint(cache, key)) == N_WINDOWS
