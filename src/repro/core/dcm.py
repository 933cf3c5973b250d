"""Dark Core Map selection policies.

Three policies, matching the progression of the paper's Section II
analysis (Fig. 2):

* :func:`contiguous_dcm` — the naive dense block (DCM-1 of Fig. 2a):
  minimizes communication distance, maximizes thermal trouble,
* :func:`temperature_optimized_dcm` — spreads the powered-on cores to
  minimize the predicted peak temperature, ignoring variation,
* :func:`variation_aware_dcm` — Hayat's map (Fig. 2h/p): jointly
  considers thermal spreading, each core's (aged, variation-dependent)
  frequency against the workload's requirements, and health preservation
  of the fastest cores.

All policies return a :class:`repro.mapping.DarkCoreMap` with exactly
``num_on`` powered-on cores; :func:`variation_aware_dcm` also returns
the fast cores it reserved (:func:`select_reserved`), which Hayat then
power-fences.
"""

from __future__ import annotations

import numpy as np

from repro.floorplan import Floorplan
from repro.mapping import DarkCoreMap


def _check_num_on(num_on: int, num_cores: int) -> None:
    if not 1 <= num_on <= num_cores:
        raise ValueError(f"num_on must lie in [1, {num_cores}], got {num_on}")


def select_reserved(
    fmax_now_ghz: np.ndarray,
    num_on: int,
    reserve_fraction: float = 0.08,
    required_ghz: np.ndarray | None = None,
) -> np.ndarray:
    """Indices of the fastest cores Hayat keeps dark and fenced.

    Never reserves so many cores that the ``num_on`` budget cannot be
    met from the remainder, and — when the workload's requirements are
    supplied — never so many that the remaining cores cannot cover every
    thread's frequency demand (on a slow chip the fast cores may simply
    be needed; reserving them would force the mapper to violate
    throughput, which deadlines forbid: "if possible considering tasks'
    deadline", Section II).
    """
    fmax_now_ghz = np.asarray(fmax_now_ghz, dtype=float)
    n = fmax_now_ghz.shape[0]
    budget = min(int(round(reserve_fraction * n)), n - num_on)
    if budget <= 0:
        return np.array([], dtype=int)
    order = np.argsort(fmax_now_ghz)[::-1]
    if required_ghz is None:
        return np.sort(order[:budget])
    demands = np.sort(np.asarray(required_ghz, dtype=float))[::-1]
    for k in range(budget, 0, -1):
        available = np.sort(fmax_now_ghz[order[k:]])[::-1]
        m = min(len(demands), len(available))
        if m == len(demands) and (available[:m] >= demands[:m]).all():
            return np.sort(order[:k])
    return np.array([], dtype=int)


def contiguous_dcm(floorplan: Floorplan, num_on: int) -> DarkCoreMap:
    """A dense block of powered-on cores, filled row-major from a corner.

    The Fattah-style mapper favours contiguous regions; this is the DCM
    such a mapper implies, and the paper's Fig. 2(a) baseline.
    """
    _check_num_on(num_on, floorplan.num_cores)
    return DarkCoreMap.from_on_indices(floorplan.num_cores, np.arange(num_on))


def temperature_optimized_dcm(
    floorplan: Floorplan,
    num_on: int,
    influence: np.ndarray,
    core_power_w: float = 4.0,
) -> DarkCoreMap:
    """Greedy thermal spreading via the influence matrix.

    Cores are switched on one at a time; each step picks the core whose
    activation minimizes the resulting predicted peak temperature rise,
    assuming every active core dissipates ``core_power_w``.  With a
    uniform power assumption this yields the checkerboard-like spread
    patterns of Fig. 2(h) without reference to variation.
    """
    _check_num_on(num_on, floorplan.num_cores)
    influence = np.asarray(influence, dtype=float)
    n = floorplan.num_cores
    if influence.shape != (n, n):
        raise ValueError("influence matrix must be (num_cores, num_cores)")
    # Column c of ``contrib`` is candidate c's thermal fingerprint;
    # scoring all columns and selecting afterwards beats re-gathering
    # the candidate columns every iteration.
    contrib = influence * core_power_w
    on = np.zeros(n, dtype=bool)
    rise = np.zeros(n)
    for _ in range(num_on):
        candidates = np.flatnonzero(~on)
        # Peak rise if candidate c joins: max over nodes of current rise
        # plus c's column fingerprint.
        peak_after = (rise[:, None] + contrib).max(axis=0)
        best = candidates[int(np.argmin(peak_after[candidates]))]
        on[best] = True
        rise = rise + contrib[:, best]
    return DarkCoreMap(on)


def variation_aware_dcm(
    floorplan: Floorplan,
    num_on: int,
    influence: np.ndarray,
    fmax_now_ghz: np.ndarray,
    required_ghz: np.ndarray,
    health: np.ndarray | None = None,
    core_power_w=4.0,
    balance_threshold: float = 0.15,
) -> tuple[DarkCoreMap, np.ndarray]:
    """Hayat's DCM: thermal spreading + variation awareness (Fig. 2h/p).

    Built as a *stable* base spread pattern plus deterministic
    variation-aware amendments, so that the selected set barely changes
    between epochs (concentrated wear is cheaper than rotation under the
    concave ``y^(1/6)`` aging law), while still:

    * keeping the chip's fastest cores (:func:`select_reserved`) dark
      (health-preserved for critical single-threaded work and
      late-lifetime slack) unless coverage demands them,
    * swapping out cores too slow for even the easiest requirement,
    * wear-leveling with hysteresis: only when the health spread inside
      the selected set exceeds ``balance_threshold`` is the most-worn
      selected core retired in favour of the healthiest adequate dark
      core — balancing without per-epoch churn.

    Parameters
    ----------
    fmax_now_ghz:
        Per-core current (aged) safe frequency.
    required_ghz:
        The mix's per-thread frequency requirements (any length).
    health:
        Optional current health map (enables the wear-leveling step).
    core_power_w:
        Expected per-core dissipation for the thermal greedy — a scalar,
        or a per-core vector reflecting leakage variation (high-leakage
        cores then pay a larger thermal footprint and tend to stay dark,
        the cherry-picking effect of [26]).

    Returns ``(dcm, reserved)``: the map and the sorted indices of the
    reserved fast cores.
    """
    _check_num_on(num_on, floorplan.num_cores)
    influence = np.asarray(influence, dtype=float)
    fmax_now_ghz = np.asarray(fmax_now_ghz, dtype=float)
    required_ghz = np.sort(np.asarray(required_ghz, dtype=float))
    n = floorplan.num_cores
    if required_ghz.size == 0:
        raise ValueError("required_ghz must contain at least one requirement")
    if fmax_now_ghz.shape != (n,):
        raise ValueError("fmax_now_ghz must be a flat per-core vector")
    health = np.ones(n) if health is None else np.asarray(health, dtype=float)

    reserved = select_reserved(fmax_now_ghz, num_on, required_ghz=required_ghz)
    f_easiest = required_ghz[0]
    blocked = fmax_now_ghz < f_easiest
    blocked[reserved] = True
    power = np.broadcast_to(
        np.asarray(core_power_w, dtype=float), (n,)
    )
    if (power <= 0).any():
        raise ValueError("core_power_w must be positive")

    # Stable thermal base: greedy spreading over *all* cores, blind to
    # variation.  Depends only on the influence matrix, so the pattern
    # is identical every epoch; variation awareness is applied as
    # minimal swaps below.  A base that reshuffled whenever a mask bit
    # flipped would rotate wear across the die — expensive under the
    # concave y^(1/6) aging law.
    # Column c of ``contrib`` is candidate c's thermal fingerprint
    # (power-weighted influence); scoring all columns and selecting
    # afterwards beats re-gathering candidate columns every iteration.
    contrib = influence * power[None, :]
    on = np.zeros(n, dtype=bool)
    rise = np.zeros(n)
    for _ in range(num_on):
        candidates = np.flatnonzero(~on)
        peak_after = (rise[:, None] + contrib).max(axis=0)
        best = candidates[int(np.argmin(peak_after[candidates]))]
        on[best] = True
        rise = rise + contrib[:, best]

    # Minimal variation-aware amendment: swap each blocked-but-selected
    # core for the thermally best acceptable dark core, one at a time.
    for bad in np.flatnonzero(on & blocked):
        candidates = np.flatnonzero(~on & ~blocked)
        if candidates.size == 0:
            break
        on[bad] = False
        rise = rise - contrib[:, bad]
        peak_after = (rise[:, None] + contrib).max(axis=0)
        best = candidates[int(np.argmin(peak_after[candidates]))]
        on[best] = True
        rise = rise + contrib[:, best]

    # Wear-leveling with hysteresis: retire the most-worn selected core
    # only when the in-set health spread is large.
    selected = np.flatnonzero(on)
    dark_ok = np.flatnonzero(~on & ~blocked)
    if dark_ok.size and health[selected].min() < health.max() - balance_threshold:
        worn = selected[int(np.argmin(health[selected]))]
        fresh = dark_ok[int(np.argmax(health[dark_ok]))]
        if health[fresh] > health[worn] + balance_threshold:
            on[worn] = False
            on[fresh] = True

    dcm = DarkCoreMap(on)
    return _repair_coverage(dcm, fmax_now_ghz, required_ghz), reserved


def _repair_coverage(
    dcm: DarkCoreMap, fmax_now_ghz: np.ndarray, required_sorted: np.ndarray
) -> DarkCoreMap:
    """Ensure the selected cores can host every thread requirement.

    Greedy selection optimizes aggregate scores and may leave the set
    short of fast-enough cores for the stiffest threads.  This pass
    swaps the least-adequate selected cores for the slowest dark cores
    that close the gap, preserving ``num_on``.  The target level is
    quantized upward to a coarse grid so that epoch-to-epoch jitter in
    thread requirements does not pick different repair cores (set
    stability is worth a little extra margin).
    """
    on = dcm.powered_on.copy()
    for _ in range(dcm.num_cores):
        selected = np.sort(fmax_now_ghz[on])[::-1]
        demands = np.sort(required_sorted)[::-1]
        k = min(len(selected), len(demands))
        deficit = np.flatnonzero(selected[:k] < demands[:k])
        if deficit.size == 0:
            return DarkCoreMap(on)
        # Find the slowest dark core that meets the unmet demand.
        need_exact = demands[deficit[0]]
        need = np.ceil(need_exact / 0.25) * 0.25
        dark = np.flatnonzero(~on)
        fast_dark = dark[fmax_now_ghz[dark] >= need]
        if fast_dark.size == 0:  # margin unavailable; use the exact need
            fast_dark = dark[fmax_now_ghz[dark] >= need_exact]
        if fast_dark.size == 0:
            return DarkCoreMap(on)  # nothing can close the gap; mapper copes
        incoming = fast_dark[int(np.argmin(fmax_now_ghz[fast_dark]))]
        on_idx = np.flatnonzero(on)
        outgoing = on_idx[int(np.argmin(fmax_now_ghz[on_idx]))]
        on[outgoing] = False
        on[incoming] = True
    return DarkCoreMap(on)
