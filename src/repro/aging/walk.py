"""Delta-aware, deduplicating aging-table walk engine.

BENCH_PR7.json put ~68% of the batched decision phase inside the aging
table walk itself (:meth:`repro.aging.tables.AgingTable.next_health`),
making the walk the campaign-wide floor.  This module exploits the
massive *input redundancy* of Algorithm 1's candidate batches: within
one lockstep round, candidate rows differ from their lane's base
placement in a single duty/health column plus a thermally-perturbed
temperature vector, and across rounds/epochs dark cores (duty exactly 0)
and unchanged placements repeat bit for bit.  Four cooperating layers:

0. **Idle closed form** (:meth:`WalkEngine._idle_health`): an element
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
   and every not-chosen core of a candidate row), so only the stressed
   remainder reaches the layers below.

1. **Bit-exact dedup** (:meth:`WalkEngine._walk_deduped`): pack each
   element's (T, d, h) float64 *bit patterns* into an integer key,
   ``np.unique`` the flattened batch, walk once per unique element and
   scatter back.  The walk is a pure per-element function — every
   kernel on the path (axis location, corner weighting, count-table
   bounds, blend samples, the forward trilinear read) computes element
   ``i``'s output from element ``i``'s inputs alone, and
   ``repro.aging.tables._sum_corners`` guards the one place NumPy's
   reduction order could depend on batch size — so walking the unique
   representatives is provably bit-identical to walking every element.

2. **Delta-aware memo** (:class:`_DeltaMemo`): round-over-round reuse.
   Results of prior walks are memoized under the exact (T, d, h) bit
   triple (per epoch length); a later batch probes the memo by hash and
   *verifies the full bit triple* before accepting, so a hit returns
   the identical float64 the walk would recompute — hash collisions can
   cause a miss, never a wrong answer.  Because real campaign batches
   only repeat when placements genuinely repeat (dark cores, unchanged
   lanes), the memo self-gates: it stays active while its observed
   reuse (an EMA over dedup + memo hits) pays for the probes and
   clears itself when the workload offers no redundancy.

3. **Fused next-health shift** (:meth:`WalkEngine._located_shift`): the
   inverse walk reports, per element, the age-grid index its
   equivalent age landed on *exactly* (the common case: ~85% of
   campaign inverses resolve to grid points — pristine cores at age 0
   and edge-clamped dark cores).  For those elements the forward
   locate after ``age += epoch`` is a table lookup into a precomputed
   ``_axis_weights(grid, grid + epoch)`` pair instead of a fresh
   clip/searchsorted/divide: ``grid[k] + epoch`` is the *same IEEE
   sum* whether computed per element or once per grid point, so the
   gathered (index, fraction) pairs are bit-identical.

An **opt-in approximate mode** (``SimulationConfig.approx_table_walk``,
off by default) snaps temperatures to a tolerance before keying *and*
walking, trading a bounded health error for dedup/memo hit rates that
no longer require bit-equal temperatures.  The error is bounded by
``max|∂health/∂T| * tol/2`` along the walked table — the table's
largest temperature-direction slope times the worst-case snap distance
— and the bound is asserted empirically in ``tests/test_aging_walk.py``.
The default mode never approximates anything.

Escape hatches: ``SimulationConfig.walk_dedup`` / CLI
``--no-walk-dedup`` route straight back to
:meth:`AgingTable.next_health` (and ``--approx-table-walk`` is ignored
there, since snapping lives in the engine).

Observability: the engine times itself under ``aging.walk`` and counts
``aging.walk_idle`` (elements answered by the idle closed form),
``aging.walk_unique`` (of the rest, unique elements after intra-batch
dedup — the load submitted to the memo/walk layers),
``aging.walk_dedup_hits``
(elements answered by an intra-batch duplicate) and
``aging.walk_delta_hits`` (of the unique elements, those answered by
the cross-call memo instead of a fresh walk).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from repro.aging.tables import AgingTable, _axis_weights
from repro.obs import get_registry

__all__ = [
    "WalkOptions",
    "WalkEngine",
    "configure_walk_engine",
    "current_walk_options",
    "get_walk_engine",
    "walk_next_health",
    "walk_options",
]


_UNSET = object()

#: Calls during which the delta memo stays active unconditionally,
#: gathering evidence of reuse before the EMA gate takes over.
_WARMUP_CALLS = 8

#: Reuse EMA below which the memo deactivates (and clears): probes cost
#: a couple of searchsorted passes per call, so a few percent of hits
#: pays for them.
_REUSE_FLOOR = 0.02

#: EMA smoothing for the observed reuse fraction.
_EMA_KEEP = 0.8

#: Dedup scatter is applied only when at least this fraction of the
#: batch is duplicated — below it, the gather/scatter costs more than
#: the walks it saves.
_MIN_DUP_SHIFT = 3  # duplicates >= n >> 3, i.e. 12.5%

#: Batches below this many elements skip the dedup/memo probe layers
#: entirely: the sort probe and memo hashing cost a fixed few
#: microseconds that a tiny batch's walk cannot amortize (BENCH_PR8
#: measured the layers at ~10% on the per-chip path, whose batches
#: are mostly one chip's core count).  Bit-identity is unaffected —
#: the probes only ever route work, never change results.
_PROBE_FLOOR = 128

#: After the reuse-EMA gate has deactivated the memo, only every
#: ``_PROBE_HOLDOFF + 1``-th call pays the dedup sort probe; the probe
#: that does run still observes the duplicate fraction, so a workload
#: that turns redundant (e.g. approx mode switching on) re-raises the
#: EMA and reactivates the layers within a probing call.
_PROBE_HOLDOFF = 15


@dataclass(frozen=True)
class WalkOptions:
    """Process/context-scoped walk-engine options.

    ``dedup=False`` bypasses the engine entirely (the escape hatch);
    ``approx_tol`` enables the approximate mode with that snap
    tolerance in kelvin (``None`` = exact, the default).
    """

    dedup: bool = True
    approx_tol: float | None = None

    def __post_init__(self) -> None:
        if self.approx_tol is not None and not self.approx_tol > 0:
            raise ValueError("approx_tol must be positive (or None)")


_process_options = WalkOptions()
_override_stack: list[WalkOptions] = []


def configure_walk_engine(*, dedup=None, approx_tol=_UNSET) -> WalkOptions:
    """Set process-level walk options (the CLI's ``--no-walk-dedup``).

    ``None``/unset arguments keep the current setting.  Returns the new
    process-level options.  Context overrides from :func:`walk_options`
    still take precedence.
    """
    global _process_options
    base = _process_options
    _process_options = WalkOptions(
        dedup=base.dedup if dedup is None else bool(dedup),
        approx_tol=base.approx_tol if approx_tol is _UNSET else approx_tol,
    )
    return _process_options


def current_walk_options() -> WalkOptions:
    """The options in effect: innermost :func:`walk_options` context, or
    the process-level defaults."""
    return _override_stack[-1] if _override_stack else _process_options


@contextmanager
def walk_options(dedup=None, approx_tol=_UNSET):
    """Scoped walk options; ``None``/unset arguments inherit.

    The simulators wrap each run in this so
    ``SimulationConfig.walk_dedup`` / ``approx_table_walk`` govern every
    table walk the run performs, nested runs included.
    """
    base = current_walk_options()
    merged = WalkOptions(
        dedup=base.dedup if dedup is None else bool(dedup),
        approx_tol=base.approx_tol if approx_tol is _UNSET else approx_tol,
    )
    _override_stack.append(merged)
    try:
        yield merged
    finally:
        _override_stack.pop()


def _mix_keys(t_bits, d_bits, h_bits) -> np.ndarray:
    """64-bit hash of the (T, d, h) bit triple (vectorized).

    A multiply/rotate/xor mix in the spirit of splitmix64: each input
    word is folded in with a distinct odd multiplier and the running
    state is rotated between folds so nearby bit patterns (consecutive
    health floats, snapped temperatures) spread across the hash space.
    Collisions are tolerated — the memo verifies the full triple before
    trusting a hit — so the hash only has to be *good*, not perfect.
    """
    k = t_bits * np.uint64(0x9E3779B97F4A7C15)
    k ^= (k >> np.uint64(23)) | (k << np.uint64(41))
    k += d_bits * np.uint64(0xC2B2AE3D27D4EB4F)
    k ^= (k >> np.uint64(47)) | (k << np.uint64(17))
    k += h_bits * np.uint64(0x165667B19E3779F9)
    return k


class _DeltaMemo:
    """Exact-match memo of prior walks, stored as sorted hash blocks.

    Each :meth:`insert` appends one block — the batch's hashes sorted,
    alongside the raw (T, d, h) bit triples and results.  Lookups probe
    every block with one ``searchsorted`` each and accept a hit only
    when the *stored triple's bits equal the query's bits*, so a hit
    returns exactly the float64 the walk produced for those inputs —
    the delta path can go wrong only by missing, never by answering.
    Blocks consolidate (merge-sort, first-seen wins per hash) once
    enough accumulate, and the oldest entries are evicted beyond a size
    cap — an LSM tree in miniature, sized for tens of lockstep rounds.
    """

    __slots__ = ("blocks", "size")

    MAX_BLOCKS = 8
    MAX_ENTRIES = 1 << 18

    def __init__(self) -> None:
        self.blocks: list[tuple] = []  # (sorted_hash, t, d, h, result)
        self.size = 0

    def lookup(self, t_bits, d_bits, h_bits, out) -> np.ndarray:
        """Fill ``out`` where memoized; returns the hit mask."""
        found = np.zeros(t_bits.shape[0], dtype=bool)
        if not self.blocks:
            return found
        hashes = _mix_keys(t_bits, d_bits, h_bits)
        for hs, bt, bd, bh, bres in self.blocks:
            pending = np.flatnonzero(~found)
            if pending.size == 0:
                break
            hp = hashes[pending]
            pos = np.searchsorted(hs, hp)
            inb = pos < hs.size
            cand = pending[inb]
            p = pos[inb]
            ok = (
                (hs[p] == hp[inb])
                & (bt[p] == t_bits[cand])
                & (bd[p] == d_bits[cand])
                & (bh[p] == h_bits[cand])
            )
            hit = cand[ok]
            if hit.size:
                out[hit] = bres[p[ok]]
                found[hit] = True
        return found

    def insert(self, t_bits, d_bits, h_bits, results) -> None:
        if t_bits.size == 0:
            return
        hashes = _mix_keys(t_bits, d_bits, h_bits)
        order = np.argsort(hashes, kind="stable")
        hs = hashes[order]
        keep = np.ones(hs.size, dtype=bool)
        # Same-hash entries within one batch: keep the first.  Equal
        # triples memoize the same value either way; a colliding
        # distinct triple merely keeps missing.
        keep[1:] = hs[1:] != hs[:-1]
        kept = order[keep]
        self.blocks.append(
            (hs[keep], t_bits[kept], d_bits[kept], h_bits[kept], results[kept])
        )
        self.size += int(kept.size)
        if len(self.blocks) > self.MAX_BLOCKS:
            self._consolidate()
        while self.size > self.MAX_ENTRIES and len(self.blocks) > 1:
            dropped = self.blocks.pop(0)
            self.size -= int(dropped[0].size)

    def _consolidate(self) -> None:
        hs = np.concatenate([b[0] for b in self.blocks])
        cols = [np.concatenate([b[i] for b in self.blocks]) for i in (1, 2, 3, 4)]
        order = np.argsort(hs, kind="stable")  # oldest block first per hash
        hs = hs[order]
        keep = np.ones(hs.size, dtype=bool)
        keep[1:] = hs[1:] != hs[:-1]
        kept = order[keep]
        self.blocks = [(hs[keep],) + tuple(c[kept] for c in cols)]
        self.size = int(kept.size)


class WalkEngine:
    """Per-table walk engine; results bit-identical to
    :meth:`AgingTable.next_health` in the default (exact) mode.

    Obtained via :func:`get_walk_engine`, which caches one engine on
    the table object (tables are process-lived and shared across
    epochs/chips, so the memo sees every round).  The engine is a pure
    cache: :meth:`AgingTable.__getstate__` drops it from pickles, so
    campaign workers rebuild an empty one lazily.
    """

    def __init__(self, table: AgingTable) -> None:
        # Only store the reference here — this may run while the table
        # itself is mid-unpickle (see AgingTable.__getstate__).
        self.table = table
        self._memos: dict[str, _DeltaMemo] = {}
        self._shift_cache: dict[str, tuple] = {}
        self._calls = 0
        self._reuse_ema = 0.0
        self._probe_holdoff = 0
        self._last_delta_hits = 0

    # ------------------------------------------------------------------
    # public entry
    # ------------------------------------------------------------------
    def next_health(
        self, temp_k, duty, current_health, epoch_years, approx_tol=None
    ) -> np.ndarray:
        """Engine-routed :meth:`AgingTable.next_health`.

        Mirrors the table method's broadcasting and validation exactly;
        in exact mode (``approx_tol is None``) the returned array is
        bit-identical to the table's.  With ``approx_tol`` set,
        temperatures are snapped to the tolerance grid *before both
        keying and walking*, so the memoized value and the walked value
        of a snapped input always agree; the health error is bounded by
        the table's worst temperature slope times ``tol/2``.

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
            if approx_tol is not None:
                if not approx_tol > 0:
                    raise ValueError("approx_table_walk tolerance must be positive")
                # Snap to the tolerance grid: at most tol/2 away from
                # the true temperature, and every element within the
                # same tol bucket now shares identical bits.
                t = np.round(t / approx_tol) * approx_tol
            table = self.table
            idle_idx = ()
            # A NaN epoch propagates through the walk; it gets no shortcut.
            if table._idle_exact and epoch_years == epoch_years:
                idle = d <= table.duty_grid[0]
                idle &= h <= 1.0
                idle &= np.isfinite(t)
                idle_idx = np.flatnonzero(idle)
            if len(idle_idx) == 0:
                out = self._walk_deduped(t, d, h, epoch_years, obs)
            else:
                obs.inc("aging.walk_idle", idle_idx.size)
                out = np.empty(t.shape[0])
                out[idle_idx] = self._idle_health(
                    t[idle_idx], h[idle_idx], epoch_years
                )
                if idle_idx.size < t.shape[0]:
                    busy = np.flatnonzero(~idle)
                    out[busy] = self._walk_deduped(
                        t[busy], d[busy], h[busy], epoch_years, obs
                    )
        return out.reshape(shape)

    # ------------------------------------------------------------------
    # layer 0: idle closed form
    # ------------------------------------------------------------------
    def _idle_health(self, t, h, epoch_years) -> np.ndarray:
        """Next health of idle elements, bit-identical to the walk.

        Degraded elements keep ``h``; pristine ones read the duty-0
        forward sum at age ``0.0 + epoch`` (derivation in the module
        doc).  ``fy`` is the zero-age slot of the shift cache — the very
        ``_axis_weights`` value the walk locates after its age-0 clamp.
        """
        out = h.copy()
        fresh = np.flatnonzero(h == 1.0)
        if fresh.size:
            table = self.table
            _, ft = _axis_weights(table.temp_grid_k, t[fresh], table._temp_spans)
            fy = self._shift_pair(epoch_years)[1][-1]
            omy = 1.0 - fy
            w0 = 1.0 - ft
            s = w0 * omy
            s += w0 * fy
            s += ft * omy
            s += ft * fy
            out[fresh] = np.minimum(s, 1.0)
        return out

    # ------------------------------------------------------------------
    # layer 1: bit-exact intra-batch dedup
    # ------------------------------------------------------------------
    def _walk_deduped(self, t, d, h, epoch_years, obs) -> np.ndarray:
        """Unique the (T, d, h) bit triples; walk representatives only.

        Keys are built by factorizing each component's bit patterns to
        small ids and combining arithmetically — one u64 unique per
        component plus one combined int64 unique, an order of magnitude
        cheaper than a structured-dtype unique over the raw triples.
        First-occurrence representatives make the scatter provably
        bit-identical: the walk is elementwise-pure (see module doc),
        so element ``i`` and its representative compute the same IEEE
        sequence from the same input bits.
        """
        n = t.shape[0]
        # Probe bypass: tiny batches can't amortize the sort/hash probes
        # (fixed microseconds vs a short walk), and once the reuse EMA
        # has self-deactivated the memo, most calls skip the probe too —
        # every ``_PROBE_HOLDOFF + 1``-th call still probes so a
        # workload that turns redundant is noticed and reactivates the
        # layers.  Bypassed calls walk everything; results identical.
        if n < _PROBE_FLOOR:
            obs.inc("aging.walk_unique", n)
            return self._walk_core(t, d, h, epoch_years)
        if self._probe_holdoff > 0:
            self._probe_holdoff -= 1
            obs.inc("aging.walk_unique", n)
            return self._walk_core(t, d, h, epoch_years)
        t_bits = t.view(np.uint64)
        d_bits = d.view(np.uint64)
        h_bits = h.view(np.uint64)
        # Cheap dup probe first: a plain sort + adjacent compare.  The
        # common campaign batch has all-distinct temperatures (the
        # dense thermal influence matmul perturbs every element), and
        # paying ``return_inverse``'s extra permutation scatter there
        # just to discard it was the probe's dominant cost.
        st = np.sort(t_bits)
        if n > 1 and (st[1:] == st[:-1]).any():
            ut, t_ids = np.unique(t_bits, return_inverse=True)
            ud, d_ids = np.unique(d_bits, return_inverse=True)
            uh, h_ids = np.unique(h_bits, return_inverse=True)
            key = (t_ids.astype(np.int64) * ud.size + d_ids) * uh.size + h_ids
            ukey, first, inv = np.unique(
                key, return_index=True, return_inverse=True
            )
            u = ukey.size
            if n - u >= n >> _MIN_DUP_SHIFT:
                obs.inc("aging.walk_unique", u)
                obs.inc("aging.walk_dedup_hits", n - u)
                out_w = self._walk_memoized(
                    t_bits[first], d_bits[first], h_bits[first],
                    t[first], d[first], h[first], epoch_years, obs,
                )
                self._note_reuse((n - u + self._last_delta_hits) / n)
                return out_w[inv]
        obs.inc("aging.walk_unique", n)
        out = self._walk_memoized(
            t_bits, d_bits, h_bits, t, d, h, epoch_years, obs
        )
        self._note_reuse(self._last_delta_hits / n)
        return out

    def _note_reuse(self, fraction: float) -> None:
        self._calls += 1
        self._reuse_ema = (
            _EMA_KEEP * self._reuse_ema + (1.0 - _EMA_KEEP) * fraction
        )
        if self._calls >= _WARMUP_CALLS and self._reuse_ema <= _REUSE_FLOOR:
            # Memo gate is off: hold the probes off for a stretch too.
            self._probe_holdoff = _PROBE_HOLDOFF

    # ------------------------------------------------------------------
    # layer 2: delta-aware cross-call memo
    # ------------------------------------------------------------------
    def _walk_memoized(
        self, t_bits, d_bits, h_bits, t, d, h, epoch_years, obs
    ) -> np.ndarray:
        """Answer bit-exact repeats from the memo; walk only the misses.

        Self-gating: active during a short warmup and for as long as the
        observed reuse EMA (intra-batch duplicates + memo hits) clears
        ``_REUSE_FLOOR``.  Campaign batches whose temperatures are all
        bit-distinct (the dense thermal influence matmul perturbs every
        element) deactivate the memo after warmup and pay nothing; a
        redundant workload — repeated placements, approx mode —
        re-activates it through the duplicate fraction the dedup layer
        keeps reporting.
        """
        self._last_delta_hits = 0
        active = self._calls < _WARMUP_CALLS or self._reuse_ema > _REUSE_FLOOR
        if not active:
            if self._memos:
                self._memos.clear()
            return self._walk_core(t, d, h, epoch_years)
        key = float(epoch_years).hex()
        memo = self._memos.get(key)
        if memo is None:
            if len(self._memos) >= 8:
                self._memos.clear()
            memo = self._memos[key] = _DeltaMemo()
        out = np.empty(t.shape[0])
        found = memo.lookup(t_bits, d_bits, h_bits, out)
        hits = int(np.count_nonzero(found))
        if hits:
            obs.inc("aging.walk_delta_hits", hits)
            self._last_delta_hits = hits
        if hits == t.shape[0]:
            return out
        if hits:
            miss = np.flatnonzero(~found)
            res = self._walk_core(t[miss], d[miss], h[miss], epoch_years)
            out[miss] = res
            memo.insert(t_bits[miss], d_bits[miss], h_bits[miss], res)
        else:
            res = self._walk_core(t, d, h, epoch_years)
            out[:] = res
            memo.insert(t_bits, d_bits, h_bits, res)
        return out

    # ------------------------------------------------------------------
    # layer 3: the walk itself, with shared bounds + fused age shift
    # ------------------------------------------------------------------
    def _walk_core(self, t, d, h, epoch_years) -> np.ndarray:
        """One inverse+forward walk over flat arrays.

        Textually mirrors :meth:`AgingTable.next_health` (locate (T, d)
        once, invert, advance, read, clamp) with two engine-only
        accelerations that change no bits: count bounds shared across
        (cell, weight-positivity, health) groups
        (:meth:`_shared_bounds`) and the fused age-axis locate for
        on-grid inverse ages (:meth:`_located_shift`).
        """
        table = self.table
        if not table._age_monotone:
            # Synthetic non-monotone tables use the exhaustive reference
            # inverse; nothing here to fuse.
            return table.next_health(t, d, h, epoch_years)
        it, ft = _axis_weights(table.temp_grid_k, t, table._temp_spans)
        idx_d, fd = _axis_weights(table.duty_grid, d, table._duty_spans)
        weights = table._corner_weights(ft, fd)
        rows, bases = table._corner_rows(it, idx_d)
        bounds = self._shared_bounds(rows, weights, h)
        grid_index = np.empty(t.shape[0], dtype=np.intp)
        ages = table._ages_located(
            it, ft, idx_d, fd, h, weights, rows, bases,
            bounds=bounds, grid_index=grid_index,
        )
        ages += epoch_years
        iy, fy = self._located_shift(ages, grid_index, epoch_years)
        new_health = table._health_located(
            it, ft, idx_d, fd, iy, fy, weights, bases[0]
        )
        return np.minimum(new_health, h)

    def _shared_bounds(self, rows, weights, h):
        """Count bounds computed once per (cell, positivity, health) group.

        The bounds of :meth:`AgingTable._count_bounds` are an exact
        function of the corner row set (determined by ``rows[0]``), the
        *actual* positivity pattern of the four corner weights, and the
        health bits — note positivity of the weight products themselves,
        not of the (ft, fd) factors: ``(1-ft)*(1-fd)`` can underflow to
        exactly 0.0 with both factors positive, and the bounds must see
        the same zero-weight exclusions the blend sees.  Grouping by
        that triple and gathering the representatives' bounds therefore
        reproduces every element's integers exactly.  Worth it only
        when health values repeat heavily (campaign batches: a few
        hundred distinct healths across ~13k elements), so it bails to
        per-element bounds otherwise.

        The size gate reflects the measured crossover: the two keying
        sorts cost ~O(n log n) up front, while the per-element
        ``_count_bounds`` they displace is a handful of vectorized
        searchsorted/reduction passes — cheap until the batch is large.
        On campaign-shaped batches the hoist only pays for itself from
        a few thousand elements up (cross-lane batched decisions);
        per-chip decision batches (~0.1-2k) lose ~100us per call to it.
        """
        n = h.shape[0]
        if n < 3072:
            return None
        uh, h_ids = np.unique(h.view(np.uint64), return_inverse=True)
        if uh.size > n >> 3:
            return None
        wpos = weights > 0.0
        pose = (
            wpos[0].astype(np.intp)
            | (wpos[1].astype(np.intp) << 1)
            | (wpos[2].astype(np.intp) << 2)
            | (wpos[3].astype(np.intp) << 3)
        )
        cell_pos = (rows[0] << 4) | pose
        key = cell_pos * uh.size + h_ids
        ukey, rep, inv = np.unique(key, return_index=True, return_inverse=True)
        if ukey.size > n >> 1:
            return None
        lo_b, hi_b, floor = self.table._count_bounds(
            rows[:, rep], wpos[:, rep], h[rep]
        )
        return lo_b[inv], hi_b[inv], floor[inv]

    def _located_shift(self, ages, grid_index, epoch_years):
        """Locate ``ages`` on the age axis, reusing on-grid positions.

        ``grid_index[i] == k`` certifies the *pre-shift* inverse age was
        exactly ``grid[k]`` (or exactly 0.0 for the ``n_y`` sentinel),
        so the shifted age equals ``grid[k] + epoch`` — the identical
        IEEE sum whether formed per element or once per grid slot.
        Locating the precomputed ``grid + epoch`` vector once and
        gathering therefore returns bit-identical (index, fraction)
        pairs; off-grid interpolants (``-1``) run through
        ``_axis_weights`` on their subset, elementwise as always.
        """
        table = self.table
        n = ages.shape[0]
        on_grid = grid_index >= 0
        n_on = int(np.count_nonzero(on_grid))
        if n_on * 2 < n:
            return _axis_weights(table.age_grid_years, ages, table._age_spans)
        iy_all, fy_all = self._shift_pair(epoch_years)
        iy = np.empty(n, dtype=np.intp)
        fy = np.empty(n)
        gi = grid_index[on_grid]
        iy[on_grid] = iy_all[gi]
        fy[on_grid] = fy_all[gi]
        off = ~on_grid
        if n_on < n:
            iy_o, fy_o = _axis_weights(
                table.age_grid_years, ages[off], table._age_spans
            )
            iy[off] = iy_o
            fy[off] = fy_o
        return iy, fy

    def _shift_pair(self, epoch_years):
        """``_axis_weights`` of every grid age plus ``epoch`` (cached)."""
        key = float(epoch_years).hex()
        pair = self._shift_cache.get(key)
        if pair is None:
            if len(self._shift_cache) >= 64:
                self._shift_cache.clear()
            # Slot n_y holds the zero-age clamp (0.0 + epoch), which the
            # age grid itself need not contain.
            table = self.table
            shifted = np.append(table.age_grid_years, 0.0) + epoch_years
            pair = _axis_weights(table.age_grid_years, shifted, table._age_spans)
            self._shift_cache[key] = pair
        return pair


def get_walk_engine(table: AgingTable) -> WalkEngine:
    """The table's cached engine, created lazily on first use."""
    engine = getattr(table, "_walk_engine", None)
    if engine is None:
        engine = WalkEngine(table)
        table._walk_engine = engine
    return engine


def walk_next_health(
    table, temp_k, duty, current_health, epoch_years
) -> np.ndarray:
    """:meth:`AgingTable.next_health` routed through the walk engine.

    The single entry point the estimation layers call: honors the
    current :class:`WalkOptions` — ``dedup=False`` (the
    ``--no-walk-dedup`` escape hatch) goes straight to the table method,
    bypassing the engine (including its idle closed form and any
    approximate mode, which lives in the engine's keying); otherwise the
    engine walks with the options' tolerance.
    """
    opts = current_walk_options()
    if not opts.dedup:
        return table.next_health(temp_k, duty, current_health, epoch_years)
    return get_walk_engine(table).next_health(
        temp_k, duty, current_health, epoch_years, approx_tol=opts.approx_tol
    )
