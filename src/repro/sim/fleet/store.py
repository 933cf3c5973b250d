"""Append-only columnar result store for fleet campaigns.

A million-job fleet cannot hold a million
:class:`~repro.sim.results.LifetimeResult` objects: each carries every
epoch's temperature/duty/health arrays.  The store keeps the fleet's
memory O(aggregate) by writing each completed job to disk the moment it
finishes and keeping only a tiny in-memory index:

``scalars.jsonl``
    One line per job: format version, the content-addressed job key
    (:func:`repro.sim.checkpoint.job_keys`), the scalar summary every
    aggregate needs (:func:`result_scalars`), and a block table of
    ``name -> [byte offset, element count]`` pointers into the blocks
    file.
``blocks.bin``
    Raw little-endian ``float32`` trajectory blocks (per-epoch average
    frequency, the final health map), concatenated.  Compact — a
    20-epoch, 64-core job is ~336 bytes — and random-accessible via the
    scalar line's offsets.

Blocks are written *before* the scalar line that references them, so a
crash can never publish a record whose payload is missing; a torn final
scalar line is the dirty-shutdown signature (skipped on load, its job
re-runs, the orphaned block bytes stay unreferenced and harmless).
Scalar lines flow through the checkpoint layer's
:class:`~repro.sim.checkpoint.DurableAppender` — one held ``O_APPEND``
handle, one write + fsync per record.

The store doubles as the fleet's content-addressed result cache: a job
key already present answers a re-submission without re-simulating
(``key in store`` / :meth:`ResultStore.record`).  The in-memory index
is ``key -> (offset, length)`` only — ~100 bytes per job, while results
themselves stay on disk.  One process writes at a time (the daemon);
concurrent *readers* are safe because records are immutable once
written.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from repro.obs import get_registry
from repro.sim.checkpoint import DurableAppender, scan_jsonl
from repro.sim.results import LifetimeResult
from repro.util.constants import AMBIENT_KELVIN

#: Format marker of scalar lines; bumped on layout changes so an old
#: store degrades to "no usable records" instead of mis-parsing.
#: Version 2: job keys carry a digest of the policy's knobs
#: (:func:`repro.sim.checkpoint.job_keys`); skipping version-1 lines
#: also keeps their jobs from being folded a second time, under their
#: new keys, into the daemon's running aggregates.
STORE_VERSION = 2

#: Block names every record carries (missing data stores empty blocks).
BLOCK_NAMES = ("avg_fmax", "final_health")


class ShortBlockError(ValueError):
    """``blocks.bin`` ends before a block its scalar line points at.

    Blocks are written before the line that references them, so a
    short read means the blocks file was truncated or replaced after
    the fact; answering from the partial block would silently corrupt
    the fold (``cores``, ``dead_cores``, the health histogram).
    """

    def __init__(self, path: str, offset: int, expected: int, actual: int):
        super().__init__(
            f"{path}: block at byte {offset} is short: expected "
            f"{expected} bytes, read {actual}"
        )
        self.path = path
        self.offset = offset
        self.expected = expected
        self.actual = actual


def _json_safe(value: float) -> float | None:
    """``None`` for non-finite floats (strict-JSON friendly)."""
    return None if (value is None or not math.isfinite(value)) else float(value)


def result_scalars(result: LifetimeResult, *, requirement_ghz: float) -> dict:
    """The per-job scalar summary the fleet aggregates are built from.

    This is the *single* fold input shared by the daemon's streaming
    store and one-shot campaign aggregation
    (:func:`repro.sim.fleet.aggregates.aggregate_campaign`), so both
    report identical numbers for identical jobs.
    """
    years = result.years()
    return {
        "chip_id": result.chip_id,
        "policy": result.policy_name,
        "dark": float(result.dark_fraction_min),
        "epochs": len(result.epochs),
        "cores": int(result.fmax_init_ghz.size),
        "dtm_events": int(result.total_dtm_events()),
        "dtm_migrations": int(result.total_dtm_migrations()),
        "qos_violations": int(result.total_qos_violations()),
        "temp_rise_k": _json_safe(result.mean_temp_rise_k(AMBIENT_KELVIN)),
        "chip_aging_rate": _json_safe(result.chip_fmax_aging_rate()),
        "avg_aging_rate": _json_safe(result.avg_fmax_aging_rate()),
        "lifetime_years": float(years[-1]) if years.size else 0.0,
        "mttf_years": _json_safe(
            result.lifetime_at_requirement_years(requirement_ghz)
        ),
        "requirement_ghz": float(requirement_ghz),
        "mean_comm": _json_safe(result.mean_comm_cost()),
    }


def result_blocks(result: LifetimeResult) -> dict[str, np.ndarray]:
    """The compact ``float32`` trajectory blocks stored per job."""
    final_health = (
        result.epochs[-1].health_after if result.epochs else np.empty(0)
    )
    return {
        "avg_fmax": np.asarray(
            result.avg_fmax_trajectory_ghz(), dtype=np.float32
        ),
        "final_health": np.asarray(final_health, dtype=np.float32),
    }


class ResultStore:
    """Append-only columnar store of completed fleet jobs.

    Opening scans ``scalars.jsonl`` once to build the key index (line
    offsets only; the records stay on disk) through the checkpoint's
    :func:`~repro.sim.checkpoint.scan_jsonl` rules: a torn final line
    sets :attr:`truncated_tail`, mid-file corruption is counted in
    :attr:`skipped_lines` (obs counter ``fleet.store_skipped_lines``).
    Duplicate keys keep the *last* record, so a re-appended job (crash
    between block and scalar writes) self-heals.
    """

    def __init__(self, directory: str):
        self.directory = os.fspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.scalars_path = os.path.join(self.directory, "scalars.jsonl")
        self.blocks_path = os.path.join(self.directory, "blocks.bin")
        self._index: dict[str, tuple[int, int]] = {}
        self.skipped_lines, self.truncated_tail = scan_jsonl(
            self.scalars_path,
            STORE_VERSION,
            self._keep,
            counter="fleet.store_skipped_lines",
            label=f"result store {self.scalars_path}",
            rerun="re-simulate",
        )
        self._scalars = DurableAppender(self.scalars_path)
        self._blocks = DurableAppender(self.blocks_path, line_framed=False)
        self._read_handle = None
        self._blocks_handle = None

    def _keep(self, data: dict, offset: int, length: int) -> None:
        self._index[data["key"]] = (offset, length)

    # ------------------------------------------------------------------
    # the content-addressed cache face
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, key: str) -> bool:
        return key in self._index

    def keys(self):
        """The stored job keys (insertion order of the index)."""
        return self._index.keys()

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def append(
        self, key: str, result: LifetimeResult, *, requirement_ghz: float
    ) -> dict:
        """Durably store one completed job; returns its record dict.

        The returned record is byte-equivalent to what a later
        :meth:`record` read returns (JSON round-trips floats exactly),
        so incremental aggregates folded from it match aggregates
        rebuilt from the store.
        """
        blocks = {}
        for name, array in result_blocks(result).items():
            data = array.tobytes()
            block_offset = self._blocks.append(data) if data else 0
            blocks[name] = [block_offset, int(array.size)]
        record = {
            "version": STORE_VERSION,
            "key": key,
            "scalars": result_scalars(result, requirement_ghz=requirement_ghz),
            "blocks": blocks,
        }
        raw = (json.dumps(record) + "\n").encode()
        offset = self._scalars.append(raw)
        self._index[key] = (offset, len(raw))
        get_registry().inc("fleet.jobs_stored")
        return record

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def record(self, key: str) -> dict | None:
        """The stored record for ``key`` (``None`` when not stored)."""
        location = self._index.get(key)
        if location is None:
            return None
        offset, length = location
        if self._read_handle is None:
            self._read_handle = open(self.scalars_path, "rb")
        self._read_handle.seek(offset)
        return json.loads(self._read_handle.read(length))

    def block(self, record: dict, name: str) -> np.ndarray:
        """One trajectory block of ``record`` as a ``float32`` array.

        Raises :class:`ShortBlockError` when the blocks file holds fewer
        bytes than the record says.
        """
        offset, count = record["blocks"][name]
        if count == 0:
            return np.empty(0, dtype=np.float32)
        if self._blocks_handle is None:
            self._blocks_handle = open(self.blocks_path, "rb")
        self._blocks_handle.seek(offset)
        data = self._blocks_handle.read(4 * count)
        if len(data) != 4 * count:
            raise ShortBlockError(self.blocks_path, offset, 4 * count, len(data))
        return np.frombuffer(data, dtype=np.float32)

    def records(self):
        """Stream every stored record, one read at a time, in index order
        (a superseded duplicate yields only its last record)."""
        for key in self._index:
            yield self.record(key)

    def bytes_on_disk(self) -> int:
        """Total store footprint (scalar lines + blocks)."""
        total = 0
        for path in (self.scalars_path, self.blocks_path):
            if os.path.exists(path):
                total += os.path.getsize(path)
        return total

    def close(self) -> None:
        """Release all held handles (reopened lazily when used again)."""
        self._scalars.close()
        self._blocks.close()
        for attribute in ("_read_handle", "_blocks_handle"):
            handle = getattr(self, attribute)
            if handle is not None:
                handle.close()
                setattr(self, attribute, None)

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
