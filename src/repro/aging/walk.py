"""The aging-table walk behind every ``estimateNextHealth`` caller.

Algorithm 1 scores each candidate with one inverse-plus-forward walk of
the 3D aging table (:meth:`repro.aging.tables.AgingTable.next_health`).
:class:`WalkEngine` answers the same question in two steps, with
results bit-identical to the table method:

1. **Idle closed form** (:meth:`WalkEngine._idle_health`): an element
   with duty at or below the duty grid's first point, a finite
   temperature and health at most 1 accrues no stress, and on a
   monotone table whose duty-0 slice is exactly 1.0 (physical tables;
   ``AgingTable._idle_exact``) its walk reduces to a closed form that
   reproduces the table's bits.  The duty weight ``fd`` is exactly 0,
   so the two duty-1 corners carry weight exactly 0 and add ``+0.0``;
   ``(1-ft)*1.0 + ft*1.0`` rounds to exactly 1.0 for every ``ft`` in
   [0, 1], so every blended inverse column is 1.0.  A degraded element
   (h < 1) therefore clamps to the age-axis edge and reads 1.0 back,
   returning ``h``; a pristine one (h = 1) inverts to age 0 and reads
   ``S = ((w0*omy + w0*fy) + w2*omy) + w2*fy`` with ``w0 = 1-ft``,
   ``w2 = ft`` and ``fy`` located at ``0.0 + epoch`` — the eight-corner
   forward sum with its zero corners dropped, in the same order —
   returning ``min(S, h)``.  Campaign batches are ~80% idle (dark cores
   and every not-chosen core of a candidate row).

2. **The table walk** (``AgingTable._walk_flat``) for the stressed
   remainder.  The walk computes each element from its own inputs
   alone, so walking the subset returns the bits a whole-batch walk
   would.

The engine holds no state: its output and counters are a pure function
of its inputs.  It times itself under ``aging.walk`` and counts
``aging.walk_idle`` (elements answered by the closed form).
"""

from __future__ import annotations

import numpy as np

from repro.aging.tables import AgingTable, _axis_weights
from repro.obs import get_registry

__all__ = ["WalkEngine"]


class WalkEngine:
    """Table walk with the idle closed form; results bit-identical to
    :meth:`AgingTable.next_health`."""

    def __init__(self, table: AgingTable) -> None:
        self.table = table

    def next_health(self, temp_k, duty, current_health, epoch_years) -> np.ndarray:
        """:meth:`AgingTable.next_health`, answering idle elements in
        closed form.

        Mirrors the table method's broadcasting and validation exactly.
        Idle elements (see the module doc) take the closed form when the
        table admits it; only the rest walk.
        """
        if epoch_years < 0:
            raise ValueError("epoch_years must be non-negative")
        temp_b = np.atleast_1d(np.asarray(temp_k, dtype=float))
        duty_b = np.atleast_1d(np.asarray(duty, dtype=float))
        if temp_b.shape != duty_b.shape:
            temp_b, duty_b = np.broadcast_arrays(temp_b, duty_b)
        health = np.atleast_1d(np.asarray(current_health, dtype=float))
        if health.shape != temp_b.shape:
            health = np.broadcast_to(health, temp_b.shape)
        shape = temp_b.shape
        t = np.ascontiguousarray(temp_b, dtype=float).reshape(-1)
        d = np.ascontiguousarray(duty_b, dtype=float).reshape(-1)
        h = np.ascontiguousarray(health, dtype=float).reshape(-1)
        if t.size == 0:
            return np.empty(shape)
        obs = get_registry()
        with obs.timer("aging.walk"):
            table = self.table
            idle_idx = ()
            # A NaN epoch propagates through the walk; it gets no shortcut.
            if table._idle_exact and epoch_years == epoch_years:
                idle = d <= table.duty_grid[0]
                idle &= h <= 1.0
                idle &= np.isfinite(t)
                idle_idx = np.flatnonzero(idle)
            if len(idle_idx) == 0:
                out = table._walk_flat(t, d, h, epoch_years)
            else:
                obs.inc("aging.walk_idle", idle_idx.size)
                out = np.empty(t.shape[0])
                out[idle_idx] = self._idle_health(
                    t[idle_idx], h[idle_idx], epoch_years
                )
                if idle_idx.size < t.shape[0]:
                    busy = np.flatnonzero(~idle)
                    out[busy] = table._walk_flat(
                        t[busy], d[busy], h[busy], epoch_years
                    )
        return out.reshape(shape)

    def _idle_health(self, t, h, epoch_years) -> np.ndarray:
        """Next health of idle elements, bit-identical to the walk.

        Degraded elements keep ``h``; pristine ones read the duty-0
        forward sum at age ``0.0 + epoch`` (derivation in the module
        doc).  ``fy`` is the very ``_axis_weights`` value the walk
        locates after its age-0 clamp; the locate is elementwise, so
        one call on that single age gives the same bits.
        """
        out = h.copy()
        fresh = np.flatnonzero(h == 1.0)
        if fresh.size:
            table = self.table
            _, ft = _axis_weights(table.temp_grid_k, t[fresh], table._temp_spans)
            _, fy = _axis_weights(
                table.age_grid_years, np.array([0.0 + epoch_years]),
                table._age_spans,
            )
            fy = fy[0]
            omy = 1.0 - fy
            w0 = 1.0 - ft
            s = w0 * omy
            s += w0 * fy
            s += ft * omy
            s += ft * fy
            out[fresh] = np.minimum(s, 1.0)
        return out
