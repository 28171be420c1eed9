"""Checkpoint serde: resume a windowed watch from the pipeline cache.

A streaming run over N windows commits a checkpoint in the
:class:`~repro.parallel.cache.PipelineCache` after every completed
window.  Each window is stored once, as its own ``stream-window`` entry
keyed by the stream key plus the window index: its outcome (labels for
a built frame, a quarantine record or an empty marker), its alerts and
the full JSON form of the :class:`~repro.tracking.combine.PairRelations`
evaluated when it was pushed.  The entry under the stream key itself
(``(trace digest, window spec, settings, config, strict, ...)``) is a
fixed-size head, ``{"format": 3, "n": N}``, written *after* the window
entry: the head is the commit point, so a window entry written without
its head update is simply not part of the checkpoint.  The cost of a
save is therefore constant in the number of windows already done.

A restarted watch replays the N committed windows verbatim — no
DBSCAN, no evaluators — and continues live from window N.  JSON floats
round-trip binary64 exactly, so replayed relations are bit-identical to
the ones originally computed.

Formats 1 and 2 stored every record inline in one payload under the
stream key (format 2 added the per-window ``alerts``).  They still
load; the first save after resuming from one stores every replayed
window as its own entry before committing a format-3 head.

Corruption handling follows the cache's contract: a head or window
entry that is missing, fails its digest, or fails to parse or validate
in any way drops the checkpoint and the run starts cold — never
crashed on, never partially trusted.  Entries are written atomically
(temp file + rename) but never fsynced: a killed process resumes from
its last committed window, a power loss may lose the checkpoint.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Mapping

import numpy as np

from repro._version import __version__
from repro.clustering.frames import FrameSettings
from repro.errors import ReproError
from repro.obs.alerts import AlertRecord
from repro.obs.log import get_logger
from repro.parallel.cache import PipelineCache, _canonical, trace_digest
from repro.robust.partial import ItemFailure
from repro.tracking.combine import (
    PairProvenance,
    PairRelations,
    Relation,
    RelationProvenance,
)
from repro.tracking.correlation import CorrelationMatrix
from repro.tracking.tracker import TrackerConfig
from repro.trace.trace import Trace

__all__ = [
    "WindowRecord",
    "stream_key",
    "load_checkpoint",
    "save_checkpoint",
    "pair_relations_to_json",
    "pair_relations_from_json",
]

log = get_logger(__name__)

#: Checkpoint schema written by this version: a ``{"format", "n"}``
#: head over per-window entries.  Formats 1 and 2 held the records
#: inline (format 2 added the per-window ``alerts`` list).
_CHECKPOINT_FORMAT = 3

#: Formats :func:`load_checkpoint` accepts.  Older formats simply lack
#: newer optional fields, which default to empty on load.
_ACCEPTED_FORMATS = (1, 2, 3)

#: Cache kind of the per-window entries of a format-3 checkpoint.
_WINDOW_KIND = "stream-window"


@dataclass(frozen=True)
class WindowRecord:
    """Outcome of one processed window, as stored in a checkpoint.

    ``status`` is ``"ok"`` (with the frame's per-point *labels*),
    ``"empty"`` (no bursts) or ``"quarantined"`` (with the *failure*
    record).  ``pair`` / ``pair_failure`` carry the relations evaluated
    when this window's frame was pushed (``None`` for the first frame
    and for non-ok windows).  ``alerts`` holds the monitor's alerts for
    this window when the run had alerting enabled (empty otherwise, and
    for format-1 checkpoints written before alerting existed).
    """

    window: int
    status: str
    labels: np.ndarray | None = None
    failure: ItemFailure | None = None
    pair: PairRelations | None = None
    pair_failure: ItemFailure | None = None
    alerts: tuple[AlertRecord, ...] = ()


def stream_key(
    trace: Trace,
    spec_dict: Mapping[str, Any],
    settings: FrameSettings,
    config: TrackerConfig,
    *,
    strict: bool,
    shards: int = 1,
    max_live: int | None = None,
    version: str = __version__,
) -> dict[str, Any]:
    """Cache key of one windowed streaming run.

    Every knob that shapes the run participates — including *shards*
    and the *max_live* memory bound, so a resumed run with a different
    sharding or retention configuration starts cold instead of
    silently adopting a checkpoint written under different settings.
    """
    return {
        "kind": "stream",
        "trace": trace_digest(trace),
        "windows": _canonical(dict(spec_dict)),
        "settings": _canonical(asdict(settings)),
        "config": _canonical(asdict(config)),
        "strict": bool(strict),
        "shards": int(shards),
        "max_live": None if max_live is None else int(max_live),
        "version": version,
    }


# ----------------------------------------------------------------------
# PairRelations <-> JSON
# ----------------------------------------------------------------------
def _matrix_to_json(matrix: CorrelationMatrix) -> dict[str, Any]:
    return {
        "row_ids": list(matrix.row_ids),
        "col_ids": list(matrix.col_ids),
        "values": np.asarray(matrix.values, dtype=np.float64).tolist(),
    }


def _matrix_from_json(data: Mapping[str, Any]) -> CorrelationMatrix:
    row_ids = tuple(int(v) for v in data["row_ids"])
    col_ids = tuple(int(v) for v in data["col_ids"])
    values = np.asarray(data["values"], dtype=np.float64).reshape(
        (len(row_ids), len(col_ids))
    )
    return CorrelationMatrix(row_ids=row_ids, col_ids=col_ids, values=values)


def _provenance_to_json(prov: PairProvenance) -> dict[str, Any]:
    return {
        "proposed": prov.proposed,
        "pruned": prov.pruned,
        "rescued_callstack": prov.rescued_callstack,
        "rescued_sequence": prov.rescued_sequence,
        "widened": prov.widened,
        "splits": prov.splits,
        "relations": [
            {
                "proposed_by": record.proposed_by,
                "edge_counts": [[name, n] for name, n in record.edge_counts],
                "events": list(record.events),
                "support": [[name, value] for name, value in record.support],
            }
            for record in prov.relations
        ],
    }


def _provenance_from_json(data: Mapping[str, Any]) -> PairProvenance:
    return PairProvenance(
        relations=tuple(
            RelationProvenance(
                proposed_by=str(record["proposed_by"]),
                edge_counts=tuple(
                    (str(name), int(n)) for name, n in record["edge_counts"]
                ),
                events=tuple(str(event) for event in record["events"]),
                support=tuple(
                    (str(name), float(value)) for name, value in record["support"]
                ),
            )
            for record in data["relations"]
        ),
        proposed=int(data["proposed"]),
        pruned=int(data["pruned"]),
        rescued_callstack=int(data["rescued_callstack"]),
        rescued_sequence=int(data["rescued_sequence"]),
        widened=int(data["widened"]),
        splits=int(data["splits"]),
    )


def pair_relations_to_json(pair: PairRelations) -> dict[str, Any]:
    """JSON form of one pair's relations (exact float round-trip)."""
    return {
        "relations": [
            {"left": sorted(rel.left), "right": sorted(rel.right)}
            for rel in pair.relations
        ],
        "displacement_ab": _matrix_to_json(pair.displacement_ab),
        "displacement_ba": _matrix_to_json(pair.displacement_ba),
        "callstack_ab": _matrix_to_json(pair.callstack_ab),
        "simultaneity_a": _matrix_to_json(pair.simultaneity_a),
        "simultaneity_b": _matrix_to_json(pair.simultaneity_b),
        "sequence_ab": (
            _matrix_to_json(pair.sequence_ab)
            if pair.sequence_ab is not None
            else None
        ),
        "provenance": (
            _provenance_to_json(pair.provenance)
            if pair.provenance is not None
            else None
        ),
    }


def pair_relations_from_json(data: Mapping[str, Any]) -> PairRelations:
    """Rebuild :class:`PairRelations` from its JSON form."""
    return PairRelations(
        relations=tuple(
            Relation(
                left=frozenset(int(v) for v in rel["left"]),
                right=frozenset(int(v) for v in rel["right"]),
            )
            for rel in data["relations"]
        ),
        displacement_ab=_matrix_from_json(data["displacement_ab"]),
        displacement_ba=_matrix_from_json(data["displacement_ba"]),
        callstack_ab=_matrix_from_json(data["callstack_ab"]),
        simultaneity_a=_matrix_from_json(data["simultaneity_a"]),
        simultaneity_b=_matrix_from_json(data["simultaneity_b"]),
        sequence_ab=(
            _matrix_from_json(data["sequence_ab"])
            if data.get("sequence_ab") is not None
            else None
        ),
        provenance=(
            _provenance_from_json(data["provenance"])
            if data.get("provenance") is not None
            else None
        ),
    )


def _failure_to_json(failure: ItemFailure | None) -> dict[str, str] | None:
    if failure is None:
        return None
    return {
        "item": failure.item,
        "stage": failure.stage,
        "error": failure.error,
        "message": failure.message,
    }


def _failure_from_json(data: Mapping[str, str] | None) -> ItemFailure | None:
    if data is None:
        return None
    return ItemFailure(
        item=str(data["item"]),
        stage=str(data["stage"]),
        error=str(data["error"]),
        message=str(data["message"]),
    )


# ----------------------------------------------------------------------
# Checkpoint load/save
# ----------------------------------------------------------------------
def _window_key(key: Mapping[str, Any], index: int) -> dict[str, Any]:
    """Cache key of window *index* of the stream keyed by *key*."""
    return {**key, "kind": _WINDOW_KIND, "window": int(index)}


def _record_to_json(record: WindowRecord) -> dict[str, Any]:
    return {
        "window": record.window,
        "status": record.status,
        "labels": (
            np.asarray(record.labels).tolist()
            if record.labels is not None
            else None
        ),
        "failure": _failure_to_json(record.failure),
        "pair": (
            pair_relations_to_json(record.pair)
            if record.pair is not None
            else None
        ),
        "pair_failure": _failure_to_json(record.pair_failure),
        "alerts": [alert.to_dict() for alert in record.alerts],
    }


def _record_from_json(entry: Mapping[str, Any]) -> WindowRecord:
    """Parse one stored window record (any format); raises on malformed."""
    status = str(entry["status"])
    if status not in ("ok", "empty", "quarantined"):
        raise ValueError(f"unknown window status {status!r}")
    labels = entry.get("labels")
    if status == "ok" and labels is None:
        raise ValueError("ok window without labels")
    return WindowRecord(
        window=int(entry["window"]),
        status=status,
        labels=(
            np.asarray(labels, dtype=np.int32) if labels is not None else None
        ),
        failure=_failure_from_json(entry.get("failure")),
        pair=(
            pair_relations_from_json(entry["pair"])
            if entry.get("pair") is not None
            else None
        ),
        pair_failure=_failure_from_json(entry.get("pair_failure")),
        alerts=tuple(
            AlertRecord.from_dict(alert) for alert in entry.get("alerts") or ()
        ),
    )


def save_checkpoint(
    cache: PipelineCache,
    key: Mapping[str, Any],
    records: list[WindowRecord],
) -> None:
    """Commit *records*, the windows completed so far, under the stream key.

    Stores the newest record as its own window entry, then the head
    naming all ``len(records)`` windows.  Earlier records are written
    too when the entry just before the newest is absent — the first
    save of a run resumed from an inline (format 1/2) checkpoint, or of
    a caller that hands over a whole list at once.
    """
    first = max(len(records) - 1, 0)
    if first and not cache.has(_window_key(key, first - 1)):
        first = 0
    for index in range(first, len(records)):
        cache.put(_window_key(key, index), _record_to_json(records[index]))
    cache.put(key, {"format": _CHECKPOINT_FORMAT, "n": len(records)})


def load_checkpoint(
    cache: PipelineCache,
    key: Mapping[str, Any],
) -> list[WindowRecord] | None:
    """Fetch and materialise a checkpoint, or ``None``.

    Any problem — wrong schema, a window entry missing or failing its
    digest, malformed matrices, inconsistent shapes — drops the head
    and returns ``None`` so the run simply starts cold.
    """
    head = cache.get(key)
    if head is None:
        return None
    try:
        fmt = head["format"]
        if fmt not in _ACCEPTED_FORMATS:
            raise ValueError(f"checkpoint format {fmt!r}")
        if fmt != _CHECKPOINT_FORMAT:  # formats 1 and 2 hold records inline
            return [_record_from_json(entry) for entry in head["windows"]]
        n = head["n"]
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"checkpoint window count {n!r}")
        records = []
        for index in range(n):
            entry = cache.get(_window_key(key, index))
            if entry is None:
                raise ValueError(f"window entry #{index} missing or corrupt")
            records.append(_record_from_json(entry))
        return records
    except (KeyError, TypeError, ValueError, ReproError) as error:
        log.warning("discarding corrupt stream checkpoint: %s", error)
        cache.invalidate(key)
        return None
