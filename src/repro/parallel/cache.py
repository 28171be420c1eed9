"""Content-addressed on-disk cache for traces and frame labellings.

Every bench and study re-simulates and re-clusters identical inputs
from scratch; this cache makes those stages incremental.  Entries are
addressed by a SHA-256 over a *canonical key* describing everything the
artefact depends on:

- **traces** — application name, scenario kwargs, seed and the package
  version (the simulators are deterministic given those);
- **frame labellings** — a content digest of the input trace plus the
  :class:`~repro.clustering.frames.FrameSettings` and the package
  version.  Only the per-point cluster labels are stored: points and
  cluster objects are cheap to rebuild, DBSCAN is the expensive part.

The cache is opt-in: it only engages when a directory is given via the
``--cache-dir`` CLI flag / API argument or the ``REPRO_CACHE``
environment variable.  Writes are atomic (temp file + ``os.replace``),
so concurrent runs sharing a directory never observe torn entries.
Corrupted or stale entries are detected (format check, stored-key
echo, payload validation), dropped and recomputed — never crashed on.
Hit/miss/corruption counts flow through :mod:`repro.obs`.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping

import numpy as np

from repro import obs
from repro._util import atomic_write_text
from repro._version import __version__
from repro.errors import TraceFormatError
from repro.obs.log import get_logger
from repro.trace.io import trace_from_json, trace_to_json
from repro.trace.trace import Trace

if TYPE_CHECKING:  # import kept lazy to avoid a cycle with clustering.frames
    from repro.clustering.frames import FrameSettings

__all__ = [
    "CACHE_ENV",
    "CacheInfo",
    "PipelineCache",
    "frame_key",
    "resolve_cache",
    "stable_hash",
    "trace_digest",
    "trace_key",
]

log = get_logger(__name__)

#: Environment variable naming the cache directory (opt-in).
CACHE_ENV = "REPRO_CACHE"

#: On-disk entry format; bump to invalidate every existing entry.
#: v2 added the payload content digest (bit-flip detection).
_CACHE_FORMAT = 2


def _canonical(value: Any) -> Any:
    """Reduce *value* to JSON-stable primitives for hashing."""
    if isinstance(value, Mapping):
        return {str(key): _canonical(val) for key, val in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise TypeError(f"value of type {type(value).__name__} cannot be cache-keyed")


def stable_hash(value: Any) -> str:
    """SHA-256 hex digest of the canonical JSON form of *value*.

    Mapping order does not matter; floats hash by exact value (``repr``
    round-trips binary float64 in Python 3).
    """
    payload = json.dumps(_canonical(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _payload_digest(payload: Any) -> str:
    """SHA-256 over the canonical JSON bytes of a stored payload.

    Written into every entry and re-checked on read, so silent on-disk
    corruption (a flipped bit inside an otherwise well-formed document)
    is caught and the entry recomputed instead of poisoning results.
    """
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def trace_digest(trace: Trace) -> str:
    """Content digest of a trace: metadata plus the raw column bytes."""
    digest = hashlib.sha256()
    meta = json.dumps(
        _canonical(
            {
                "app": trace.app,
                "scenario": trace.scenario,
                "nranks": trace.nranks,
                "clock_hz": trace.clock_hz,
                "counter_names": list(trace.counter_names),
                "callstacks": trace.callstacks.to_strings(),
            }
        ),
        sort_keys=True,
        separators=(",", ":"),
    )
    digest.update(meta.encode("utf-8"))
    for column in (
        trace.rank,
        trace.begin,
        trace.duration,
        trace.callpath_id,
        trace.counters_matrix,
    ):
        digest.update(np.ascontiguousarray(column).tobytes())
    return digest.hexdigest()


def trace_key(
    app: str,
    scenario: Mapping[str, Any],
    seed: int,
    *,
    version: str = __version__,
) -> dict[str, Any]:
    """Cache key of one simulated scenario trace."""
    return {
        "kind": "trace",
        "app": app,
        "scenario": _canonical(scenario),
        "seed": int(seed),
        "version": version,
    }


def frame_key(
    trace: Trace,
    settings: FrameSettings,
    *,
    version: str = __version__,
) -> dict[str, Any]:
    """Cache key of one frame labelling (trace content x settings)."""
    return {
        "kind": "frame",
        "trace": trace_digest(trace),
        "settings": _canonical(asdict(settings)),
        "version": version,
    }


@dataclass(frozen=True)
class CacheInfo:
    """Summary of a cache directory's contents."""

    root: Path
    n_entries: int
    total_bytes: int
    by_kind: dict[str, int]


class PipelineCache:
    """Content-addressed store of pipeline artefacts under one root.

    Entries live at ``<root>/<kind>/<sha256>.json`` wrapping the payload
    with the entry format version and the full key, which is echoed back
    on reads to guard against corruption and format drift.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root).expanduser()

    # -- generic entry plumbing ---------------------------------------
    def _path(self, key: Mapping[str, Any]) -> Path:
        return self.root / str(key.get("kind", "misc")) / f"{stable_hash(key)}.json"

    def _discard(self, path: Path, key: Mapping[str, Any], reason: str) -> None:
        obs.count("cache.corrupt_total", kind=str(key.get("kind", "misc")))
        log.warning("dropping corrupt cache entry %s (%s)", path, reason)
        try:
            path.unlink()
        except OSError:
            pass

    def get(self, key: Mapping[str, Any]) -> Any | None:
        """Fetch the payload stored under *key*, or ``None`` on miss.

        Unreadable, malformed or mismatched entries count as misses
        (after being dropped), so callers simply recompute.
        """
        kind = str(key.get("kind", "misc"))
        path = self._path(key)
        with obs.span("cache.get", kind=kind) as span:
            try:
                with open(path, encoding="utf-8") as handle:
                    document = json.load(handle)
            except FileNotFoundError:
                obs.count("cache.misses_total", kind=kind)
                span.set(outcome="miss")
                return None
            except (OSError, UnicodeDecodeError, json.JSONDecodeError) as error:
                self._discard(path, key, f"unreadable: {error}")
                obs.count("cache.misses_total", kind=kind)
                span.set(outcome="corrupt")
                return None
            if (
                not isinstance(document, dict)
                or document.get("format") != _CACHE_FORMAT
                or document.get("key") != _canonical(key)
                or "payload" not in document
            ):
                self._discard(path, key, "format/key mismatch")
                obs.count("cache.misses_total", kind=kind)
                span.set(outcome="corrupt")
                return None
            if document.get("digest") != _payload_digest(document["payload"]):
                self._discard(path, key, "payload digest mismatch")
                obs.count("cache.misses_total", kind=kind)
                span.set(outcome="corrupt")
                return None
            obs.count("cache.hits_total", kind=kind)
            span.set(outcome="hit")
            return document["payload"]

    def put(self, key: Mapping[str, Any], payload: Any) -> Path:
        """Atomically store *payload* under *key*; returns the entry path."""
        kind = str(key.get("kind", "misc"))
        path = self._path(key)
        document = {
            "format": _CACHE_FORMAT,
            "key": _canonical(key),
            "digest": _payload_digest(payload),
            "payload": payload,
        }
        with obs.span("cache.put", kind=kind):
            # One-shot ``dumps`` takes the C encoder; ``json.dump`` to a
            # file handle never does.
            atomic_write_text(path, json.dumps(document))
            obs.count("cache.writes_total", kind=kind)
        return path

    def has(self, key: Mapping[str, Any]) -> bool:
        """Whether an entry file exists under *key* (not read or checked)."""
        return self._path(key).is_file()

    def invalidate(self, key: Mapping[str, Any]) -> None:
        """Drop the entry stored under *key* as semantically corrupt."""
        self._discard(self._path(key), key, "payload failed validation")

    # -- typed helpers -------------------------------------------------
    def get_trace(self, key: Mapping[str, Any]) -> Trace | None:
        """Fetch a cached trace, or ``None`` on miss/corruption.

        The rebuilt trace is checked against the structural invariants
        (:func:`repro.robust.check_trace`); an entry decoding to an
        invalid trace is dropped like any other corruption.
        """
        from repro.robust.validate import check_trace

        payload = self.get(key)
        if payload is None:
            return None
        try:
            trace = trace_from_json(payload)
        except TraceFormatError as error:
            self._discard(self._path(key), key, f"trace payload: {error}")
            return None
        issues = check_trace(trace)
        if issues:
            summary = "; ".join(str(issue) for issue in issues)
            self._discard(self._path(key), key, f"invalid trace: {summary}")
            return None
        return trace

    def put_trace(self, key: Mapping[str, Any], trace: Trace) -> Path:
        """Store a simulated trace."""
        return self.put(key, trace_to_json(trace))

    def get_labels(self, key: Mapping[str, Any]) -> np.ndarray | None:
        """Fetch cached per-point cluster labels, or ``None``."""
        payload = self.get(key)
        if payload is None:
            return None
        try:
            labels = np.asarray(payload["labels"], dtype=np.int32)
            if labels.ndim != 1:
                raise ValueError(f"labels have shape {labels.shape}")
            if labels.size and int(labels.min()) < 0:
                raise ValueError(
                    f"labels contain negative ids (min {int(labels.min())})"
                )
        except (KeyError, TypeError, ValueError, OverflowError) as error:
            self._discard(self._path(key), key, f"labels payload: {error}")
            return None
        return labels

    def put_labels(self, key: Mapping[str, Any], labels: np.ndarray) -> Path:
        """Store one frame's per-point cluster labels."""
        return self.put(key, {"labels": np.asarray(labels).tolist()})

    # -- maintenance ---------------------------------------------------
    def _entries(self) -> list[Path]:
        if not self.root.is_dir():
            return []
        return sorted(
            path
            for path in self.root.glob("*/*.json")
            if not path.name.startswith(".tmp-")
        )

    def info(self) -> CacheInfo:
        """Entry count and on-disk footprint, broken down by kind."""
        by_kind: dict[str, int] = {}
        total = 0
        entries = self._entries()
        for path in entries:
            by_kind[path.parent.name] = by_kind.get(path.parent.name, 0) + 1
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return CacheInfo(
            root=self.root,
            n_entries=len(entries),
            total_bytes=total,
            by_kind=dict(sorted(by_kind.items())),
        )

    def clear(self) -> int:
        """Delete every entry (and leftover temp file); returns the count."""
        removed = 0
        if not self.root.is_dir():
            return removed
        for path in self.root.glob("*/*.json"):
            try:
                path.unlink()
            except OSError:
                continue
            if not path.name.startswith(".tmp-"):
                removed += 1
        return removed

    def __repr__(self) -> str:
        return f"PipelineCache(root={str(self.root)!r})"


def resolve_cache(
    cache_dir: str | Path | None = None,
) -> PipelineCache | None:
    """Build the cache from an explicit directory or ``REPRO_CACHE``.

    Returns ``None`` when neither is set — caching stays opt-in.
    """
    root = cache_dir or os.environ.get(CACHE_ENV, "").strip()
    return PipelineCache(root) if root else None
