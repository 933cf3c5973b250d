"""Campaign checkpointing: a JSONL stream of completed jobs.

A paper-scale campaign is minutes-to-hours of compute spread over
hundreds of independent ``(policy, chip, dark_fraction)`` jobs.  The
checkpoint makes that work durable: every completed job appends one
self-contained JSONL record (its :class:`~repro.sim.results.LifetimeResult`
plus, when observability is on, its per-job metrics snapshot), flushed
to disk immediately.  An interrupted campaign re-run with the same
checkpoint path skips every recorded job and merges the stored results
and metrics back in, so the final aggregates are bit-identical to an
uninterrupted run.

Records are keyed by ``(policy, chip_id, dark_fraction_min,
config_digest)`` (:func:`job_keys`; the policy part digests its
knobs).  The config digest hashes the full
:class:`~repro.sim.config.SimulationConfig` *and* fingerprints of the
chip population and aging table, so a checkpoint can never leak results
across different configurations, silicon, or physics — a mismatched run
simply sees no usable records.  One file therefore serves a whole
dark-fraction sweep: each floor's jobs carry a distinct digest.

The format tolerates dirty shutdowns: a process killed mid-append
leaves at most one truncated final line, which the loader skips.

Batched campaigns (``batch_size``) checkpoint at the same per-chip
grain: a batch unit appends one record per chip under that chip's own
job key, with the unit's metrics snapshot attached to the *last* record
of the unit and ``None`` on the others (merging the one snapshot
reconstructs the unit's whole contribution).  Because keys never encode
the batching, a resume may re-group the surviving jobs into different
batches — or none — without changing any replayed result.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import warnings
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from repro.obs import MetricsSnapshot, TimerStats, get_registry
from repro.sim.export import result_from_dict, result_to_dict
from repro.sim.results import LifetimeResult

#: Format marker written into every record; bumped on layout changes so
#: an old checkpoint degrades to "no usable records" instead of
#: mis-parsing.  Version 2: config fields enter the campaign digest
#: through the canonical type-tagged encoding of :func:`_hash_value`
#: instead of ``repr`` (whose numpy truncation could collide two
#: different configs, and whose formatting can drift across library
#: versions), so version-1 digests are not comparable.  Version 3: job
#: keys carry a digest of the policy's attributes (:func:`job_keys`),
#: so a version-2 record cannot tell which knobs produced it.
CHECKPOINT_VERSION = 3


def _hash_array(hasher, array) -> None:
    data = np.ascontiguousarray(array)
    hasher.update(str(data.dtype).encode())
    hasher.update(str(data.shape).encode())
    hasher.update(data.tobytes())


def _hash_value(hasher, value) -> None:
    """Feed one config value into ``hasher`` canonically.

    ``repr`` is not a stable encoding: numpy elides large arrays to
    ``...`` (so two different arrays can share a repr, colliding their
    digests and serving stale cache hits) and scalar formatting can
    drift across interpreter or library versions (so one config can
    miss its own checkpoint after an upgrade).  Every branch below
    writes a type tag plus a length-framed, byte-exact encoding
    instead; containers recurse, arrays hash dtype + shape + raw bytes.
    """
    update = hasher.update
    if value is None:
        update(b"none;")
    elif isinstance(value, (bool, np.bool_)):
        update(b"true;" if value else b"false;")
    elif isinstance(value, (int, np.integer)):
        encoded = str(int(value)).encode()
        update(b"int%d:" % len(encoded))
        update(encoded)
    elif isinstance(value, (float, np.floating)):
        update(b"float:")
        update(np.float64(value).tobytes())
    elif isinstance(value, complex):
        update(b"complex:")
        update(np.float64(value.real).tobytes())
        update(np.float64(value.imag).tobytes())
    elif isinstance(value, str):
        encoded = value.encode()
        update(b"str%d:" % len(encoded))
        update(encoded)
    elif isinstance(value, (bytes, bytearray)):
        update(b"bytes%d:" % len(value))
        update(bytes(value))
    elif isinstance(value, np.ndarray):
        update(b"array:")
        _hash_array(hasher, value)
    elif isinstance(value, (list, tuple)):
        tag = b"list" if isinstance(value, list) else b"tuple"
        update(tag + b"%d:" % len(value))
        for item in value:
            _hash_value(hasher, item)
    elif isinstance(value, (set, frozenset)):
        encodings = sorted(_hash_value_digest(item) for item in value)
        update(b"set%d:" % len(encodings))
        for encoding in encodings:
            update(encoding)
    elif isinstance(value, dict):
        keyed = sorted(
            ((_hash_value_digest(key), key) for key in value),
            key=lambda pair: pair[0],
        )
        update(b"dict%d:" % len(keyed))
        for encoded_key, key in keyed:
            update(encoded_key)
            _hash_value(hasher, value[key])
    elif is_dataclass(value) and not isinstance(value, type):
        nested = fields(value)
        update(b"dataclass:")
        _hash_value(hasher, type(value).__qualname__)
        update(b"%d:" % len(nested))
        for f in nested:
            _hash_value(hasher, f.name)
            _hash_value(hasher, getattr(value, f.name))
    else:
        # Last resort for foreign objects: the repr is still framed and
        # qualified by the concrete type, so at least distinct types
        # with agreeing reprs cannot collide.
        encoded = repr(value).encode()
        update(b"other:")
        _hash_value(hasher, type(value).__qualname__)
        update(b"%d:" % len(encoded))
        update(encoded)


def _hash_value_digest(value) -> bytes:
    """Standalone canonical digest of one value (for order-free sets)."""
    hasher = hashlib.sha256()
    _hash_value(hasher, value)
    return hasher.digest()


def campaign_digest(config, population=None, table=None) -> str:
    """Hex digest identifying a campaign's invariants.

    Hashes every :class:`SimulationConfig` field plus (when given) the
    population's silicon and the aging table's grids, so two campaigns
    share a digest exactly when their jobs are interchangeable.  Fields
    are encoded canonically (:func:`_hash_value`), never through
    ``repr``: array-valued fields hash their raw bytes, so numpy print
    truncation can neither collide two configs nor destabilize one
    config's digest across versions.
    """
    hasher = hashlib.sha256()
    for f in fields(config):
        _hash_value(hasher, f.name)
        _hash_value(hasher, getattr(config, f.name))
    if population is not None:
        for chip in population:
            hasher.update(chip.chip_id.encode())
            _hash_array(hasher, chip.fmax_init_ghz)
            _hash_array(hasher, chip.leakage_scale)
    if table is not None:
        for array in (
            table.temp_grid_k,
            table.duty_grid,
            table.age_grid_years,
            table.values,
        ):
            _hash_array(hasher, array)
    return hasher.hexdigest()[:16]


def job_keys(jobs, dark_fraction_min: float, digest: str) -> list[str]:
    """The checkpoint key of each ``(policy, chip)`` job of one floor.

    The policy part is its name plus a canonical digest of its
    attributes (computed once per policy object), so a differently
    configured policy of the same name never replays another's results.
    """
    policies: dict[int, str] = {}
    for policy, _ in jobs:
        if id(policy) not in policies:
            digest_hex = _hash_value_digest(vars(policy)).hex()[:12]
            policies[id(policy)] = f"{policy.name}#{digest_hex}"
    floor = float(dark_fraction_min)
    return [
        f"{policies[id(policy)]}|{chip.chip_id}|{floor!r}|{digest}"
        for policy, chip in jobs
    ]


# ----------------------------------------------------------------------
# snapshot (de)serialization
# ----------------------------------------------------------------------
def snapshot_to_dict(snapshot: MetricsSnapshot) -> dict:
    """JSON-compatible form of a metrics snapshot (lossless)."""
    return {
        "counters": dict(snapshot.counters),
        "gauges": dict(snapshot.gauges),
        "timers": {
            name: [s.count, s.total_s, s.min_s, s.max_s]
            for name, s in snapshot.timers.items()
        },
        "events": [dict(e) for e in snapshot.events],
        "dropped_events": snapshot.dropped_events,
    }


def snapshot_from_dict(data: dict) -> MetricsSnapshot:
    """Inverse of :func:`snapshot_to_dict`."""
    return MetricsSnapshot(
        counters=dict(data.get("counters", {})),
        gauges=dict(data.get("gauges", {})),
        timers={
            name: TimerStats(int(c), float(t), float(lo), float(hi))
            for name, (c, t, lo, hi) in data.get("timers", {}).items()
        },
        events=[dict(e) for e in data.get("events", [])],
        dropped_events=int(data.get("dropped_events", 0)),
    )


@dataclass
class CheckpointRecord:
    """One completed job as stored on disk."""

    key: str
    result: LifetimeResult
    snapshot: MetricsSnapshot | None


class DurableAppender:
    """A long-lived append handle with per-record durability.

    One ``O_APPEND`` descriptor is opened lazily on first write and held
    for the store's lifetime — the old open/fsync/close-per-record
    scheme cost O(records) opens on the daemon's hot path and let
    concurrent writers interleave through the buffering layer.  Every
    :meth:`append` issues one unbuffered ``write`` (the kernel applies
    ``O_APPEND`` positioning atomically, so whole records from
    concurrent processes land contiguously, never spliced) followed by
    ``fsync`` — the same durability the per-record reopen provided.
    In-process concurrent writers are serialized by a lock.

    If the file ends mid-line (a prior process died mid-append), the
    first write is prefixed with a newline so the new record starts on
    its own line instead of fusing with the torn tail and becoming
    unreadable itself.
    """

    def __init__(self, path: str, line_framed: bool = True):
        self.path = os.fspath(path)
        self._line_framed = bool(line_framed)
        self._lock = threading.Lock()
        self._handle = None

    def _open(self) -> None:
        needs_newline = False
        if self._line_framed and os.path.exists(self.path):
            with open(self.path, "rb") as probe:
                probe.seek(0, os.SEEK_END)
                if probe.tell() > 0:
                    probe.seek(-1, os.SEEK_END)
                    needs_newline = probe.read(1) != b"\n"
        self._handle = open(self.path, "ab", buffering=0)
        if needs_newline:
            self._handle.write(b"\n")

    def append(self, data: bytes) -> int:
        """Durably append ``data``; returns the offset it was written at
        (meaningful only while this process is the sole writer).

        The offset is the file's size just before the write, not a
        counter kept since open, so it stays right if the file shrank
        or grew under the held handle.
        """
        with self._lock:
            if self._handle is None:
                self._open()
            offset = os.fstat(self._handle.fileno()).st_size
            self._handle.write(data)
            os.fsync(self._handle.fileno())
            return offset

    def close(self) -> None:
        """Release the append handle (reopened lazily on next append)."""
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __del__(self):  # pragma: no cover - GC ordering is not pinned
        try:
            self.close()
        except Exception:
            pass


def scan_jsonl(path, version, keep, *, counter, label, rerun) -> tuple[int, bool]:
    """Feed every ``version`` record of a JSONL file to ``keep``.

    ``keep(data, offset, length)`` receives each parsed record with the
    byte offset and length of its line, and rejects a malformed record
    by raising ``ValueError``, ``KeyError`` or ``TypeError``.  A torn
    *final* line is the expected signature of a dirty shutdown and is
    skipped silently (its job re-runs).  A malformed *mid-file* line is
    real corruption: it is counted in the ``counter`` obs counter and
    reported with a :class:`RuntimeWarning` naming ``label`` and the
    line number, because its job will ``rerun`` every time until the
    file is repaired.  Records of another version are skipped silently
    by design (the format marker exists so layout changes degrade to
    "no usable records").  Returns ``(skipped_lines, truncated_tail)``.
    """
    if not os.path.exists(path):
        return 0, False
    with open(path, "rb") as handle:
        lines = handle.readlines()
    registry = get_registry()
    skipped = 0
    truncated = False
    offset = 0
    for number, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if stripped:
            try:
                data = json.loads(stripped)
                if not isinstance(data, dict):
                    raise TypeError("record is not a JSON object")
                if data.get("version") == version:
                    keep(data, offset, len(raw))
            except (ValueError, KeyError, TypeError):
                if number == len(lines):
                    truncated = True
                else:
                    skipped += 1
                    registry.inc(counter)
                    warnings.warn(
                        f"{label}: skipping malformed record at line "
                        f"{number} of {len(lines)} (mid-file corruption, "
                        f"not a dirty shutdown); its job will {rerun}",
                        RuntimeWarning,
                        stacklevel=3,
                    )
        offset += len(raw)
    return skipped, truncated


class CampaignCheckpoint:
    """Append-only JSONL store of completed campaign jobs.

    Opening the store loads every valid record already on disk (an
    absent file is an empty store).  :meth:`append` writes one record
    through a held :class:`DurableAppender` handle (single write +
    fsync), so a crash after a job completes never loses that job and
    the daemon's hot path pays no per-record open.

    Loading follows :func:`scan_jsonl`'s rules (:attr:`truncated_tail`,
    :attr:`skipped_lines`, obs counter ``checkpoint.skipped_lines``).
    """

    def __init__(self, path: str):
        self.path = os.fspath(path)
        self._records: dict[str, CheckpointRecord] = {}
        self.skipped_lines, self.truncated_tail = scan_jsonl(
            self.path,
            CHECKPOINT_VERSION,
            self._keep,
            counter="checkpoint.skipped_lines",
            label=f"checkpoint {self.path}",
            rerun="re-run",
        )
        self._appender = DurableAppender(self.path)

    def _keep(self, data: dict, offset: int, length: int) -> None:
        snapshot = data.get("snapshot")
        if snapshot is not None:
            snapshot = snapshot_from_dict(snapshot)
        self._records[data["key"]] = CheckpointRecord(
            key=data["key"],
            result=result_from_dict(data["result"]),
            snapshot=snapshot,
        )

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key: str) -> bool:
        return key in self._records

    def __enter__(self) -> "CampaignCheckpoint":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def get(self, key: str) -> CheckpointRecord | None:
        """The stored record for ``key`` (``None`` when not recorded)."""
        return self._records.get(key)

    def append(
        self,
        key: str,
        result: LifetimeResult,
        snapshot: MetricsSnapshot | None = None,
    ) -> None:
        """Durably record one completed job."""
        record = CheckpointRecord(key=key, result=result, snapshot=snapshot)
        payload = {
            "version": CHECKPOINT_VERSION,
            "key": key,
            "result": result_to_dict(result),
            "snapshot": (
                snapshot_to_dict(snapshot) if snapshot is not None else None
            ),
        }
        self._appender.append(json.dumps(payload).encode() + b"\n")
        self._records[key] = record

    def close(self) -> None:
        """Release the append handle (safe to call repeatedly)."""
        self._appender.close()
