"""Tests of the content-addressed trace/frame cache."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.apps import wrf
from repro.clustering.frames import FrameSettings, frame_from_labels, make_frame, make_frames
from repro.errors import ClusteringError
from repro.parallel.cache import (
    CACHE_ENV,
    PipelineCache,
    frame_key,
    resolve_cache,
    stable_hash,
    trace_digest,
    trace_key,
)
from tests.parallel import assert_frames_equal


@pytest.fixture(scope="module")
def small_trace():
    return wrf.build(ranks=16, iterations=2, base_ranks=16).run(seed=3)


@pytest.fixture
def cache(tmp_path):
    return PipelineCache(tmp_path / "cache")


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash({"a": 1, "b": [1, 2]}) == stable_hash({"a": 1, "b": [1, 2]})

    def test_mapping_order_irrelevant(self):
        assert stable_hash({"a": 1, "b": 2}) == stable_hash({"b": 2, "a": 1})

    def test_value_sensitivity(self):
        assert stable_hash({"a": 1}) != stable_hash({"a": 2})

    def test_tuple_and_list_agree(self):
        assert stable_hash((1, 2)) == stable_hash([1, 2])

    def test_unhashable_type_rejected(self):
        with pytest.raises(TypeError):
            stable_hash({"a": object()})


class TestKeys:
    def test_trace_key_changes_with_every_input(self):
        base = trace_key("wrf", {"ranks": 16}, 0, version="1.0.0")
        variants = [
            trace_key("cgpop", {"ranks": 16}, 0, version="1.0.0"),
            trace_key("wrf", {"ranks": 32}, 0, version="1.0.0"),
            trace_key("wrf", {"ranks": 16}, 1, version="1.0.0"),
            trace_key("wrf", {"ranks": 16}, 0, version="1.0.1"),
        ]
        hashes = {stable_hash(base)} | {stable_hash(v) for v in variants}
        assert len(hashes) == 5

    def test_frame_key_changes_with_settings_and_version(self, small_trace):
        base = frame_key(small_trace, FrameSettings(), version="1.0.0")
        changed_settings = frame_key(
            small_trace, FrameSettings(eps=0.05), version="1.0.0"
        )
        changed_version = frame_key(small_trace, FrameSettings(), version="1.0.1")
        assert stable_hash(base) != stable_hash(changed_settings)
        assert stable_hash(base) != stable_hash(changed_version)

    def test_frame_key_changes_with_trace_content(self, small_trace):
        other = wrf.build(ranks=16, iterations=2, base_ranks=16).run(seed=4)
        assert trace_digest(small_trace) != trace_digest(other)
        assert stable_hash(frame_key(small_trace, FrameSettings())) != stable_hash(
            frame_key(other, FrameSettings())
        )

    def test_trace_digest_deterministic(self, small_trace):
        assert trace_digest(small_trace) == trace_digest(small_trace)


class TestTraceRoundTrip:
    def test_miss_then_hit(self, cache, small_trace):
        key = trace_key("wrf", {"ranks": 16}, 3)
        assert cache.get_trace(key) is None
        cache.put_trace(key, small_trace)
        loaded = cache.get_trace(key)
        assert loaded == small_trace

    def test_corrupt_json_recovers(self, cache, small_trace):
        key = trace_key("wrf", {"ranks": 16}, 3)
        path = cache.put_trace(key, small_trace)
        path.write_text("{ not json", encoding="utf-8")
        assert cache.get_trace(key) is None
        assert not path.exists()  # dropped, so the next put recomputes
        cache.put_trace(key, small_trace)
        assert cache.get_trace(key) == small_trace

    def test_key_mismatch_is_discarded(self, cache, small_trace):
        key = trace_key("wrf", {"ranks": 16}, 3)
        path = cache.put_trace(key, small_trace)
        document = json.loads(path.read_text(encoding="utf-8"))
        document["key"]["seed"] = 99  # entry no longer matches its address
        path.write_text(json.dumps(document), encoding="utf-8")
        assert cache.get_trace(key) is None

    def test_malformed_trace_payload_recovers(self, cache, small_trace):
        key = trace_key("wrf", {"ranks": 16}, 3)
        cache.put(key, {"format": "repro-trace", "version": 999})
        assert cache.get_trace(key) is None


class TestLabelsRoundTrip:
    def test_roundtrip(self, cache, small_trace):
        settings = FrameSettings()
        frame = make_frame(small_trace, settings)
        key = frame_key(small_trace, settings)
        assert cache.get_labels(key) is None
        cache.put_labels(key, frame.labels)
        np.testing.assert_array_equal(cache.get_labels(key), frame.labels)

    def test_non_array_payload_recovers(self, cache, small_trace):
        key = frame_key(small_trace, FrameSettings())
        cache.put(key, {"labels": "zebra"})
        assert cache.get_labels(key) is None


class TestFrameFromLabels:
    def test_rebuild_matches_fresh_build(self, small_trace):
        settings = FrameSettings()
        fresh = make_frame(small_trace, settings)
        rebuilt = frame_from_labels(small_trace, settings, fresh.labels)
        assert_frames_equal(rebuilt, fresh)

    def test_wrong_length_rejected(self, small_trace):
        with pytest.raises(ClusteringError):
            frame_from_labels(small_trace, FrameSettings(), np.zeros(3, dtype=np.int32))


class TestMakeFramesWithCache:
    def test_cold_then_warm_identical(self, cache, small_trace):
        settings = FrameSettings()
        cold = make_frames([small_trace], settings, cache=cache)
        warm = make_frames([small_trace], settings, cache=cache)
        assert_frames_equal(cold[0], warm[0])

    def test_truncated_labels_entry_is_recomputed(self, cache, small_trace):
        settings = FrameSettings()
        reference = make_frames([small_trace], settings, cache=cache)[0]
        key = frame_key(small_trace, settings)
        # Poison the entry with a labelling of the wrong length.
        cache.put_labels(key, reference.labels[:-5])
        recovered = make_frames([small_trace], settings, cache=cache)[0]
        np.testing.assert_array_equal(recovered.labels, reference.labels)
        # The poisoned entry was replaced by a valid one.
        np.testing.assert_array_equal(cache.get_labels(key), reference.labels)


class TestAtomicWrite:
    """A put that fails midway leaves the previous entry and no debris."""

    def test_failed_write_keeps_old_entry(self, cache, monkeypatch):
        import repro._util as util

        key = {"kind": "misc", "name": "atomic"}
        path = cache.put(key, {"generation": 1})
        real_fdopen = util.os.fdopen

        class FullDisk:
            def __init__(self, handle):
                self.handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.handle.close()

            def write(self, text):
                self.handle.write(text[: len(text) // 2])
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(
            util.os, "fdopen", lambda *a, **kw: FullDisk(real_fdopen(*a, **kw))
        )
        with pytest.raises(OSError, match="No space left"):
            cache.put(key, {"generation": 2, "padding": "x" * 4096})
        monkeypatch.undo()
        assert sorted(p.name for p in path.parent.iterdir()) == [path.name]
        assert cache.get(key) == {"generation": 1}


class TestMaintenance:
    def test_has_sees_only_stored_entries(self, cache):
        key = {"kind": "misc", "name": "present"}
        assert not cache.has(key)
        cache.put(key, {"value": 1})
        assert cache.has(key)
        assert not cache.has({"kind": "misc", "name": "absent"})

    def test_info_and_clear(self, cache, small_trace):
        cache.put_trace(trace_key("wrf", {"ranks": 16}, 0), small_trace)
        cache.put_labels(frame_key(small_trace, FrameSettings()), np.zeros(5))
        info = cache.info()
        assert info.n_entries == 2
        assert info.by_kind == {"frame": 1, "trace": 1}
        assert info.total_bytes > 0
        assert cache.clear() == 2
        assert cache.info().n_entries == 0

    def test_info_on_missing_root(self, tmp_path):
        empty = PipelineCache(tmp_path / "never-created")
        assert empty.info().n_entries == 0
        assert empty.clear() == 0


class TestResolveCache:
    def test_unset_means_disabled(self, monkeypatch):
        monkeypatch.delenv(CACHE_ENV, raising=False)
        assert resolve_cache() is None

    def test_explicit_dir(self, tmp_path):
        cache = resolve_cache(tmp_path)
        assert cache is not None and cache.root == tmp_path

    def test_env_dir(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_ENV, str(tmp_path))
        cache = resolve_cache()
        assert cache is not None and str(cache.root) == str(tmp_path)
