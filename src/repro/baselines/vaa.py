"""VAA: variability- and aging-aware smart hill climbing (extended [28]).

Fattah et al.'s mapper optimizes *contiguity*: each application gets a
"first node" chosen by hill climbing, and its threads pack onto the
nearest suitable cores, which minimizes on-chip communication but
concentrates heat.  Per the paper's fairness extensions, this version

* knows each core's current (aged, variation-dependent) safe frequency
  and only assigns threads to cores meeting their requirement,
* maps for maximum throughput: among equally-near cores it prefers the
  fastest (which is precisely what burns the chip's best cores),
* runs threads at their required frequency, not faster,
* supports epoch knowledge and DTM (driven by the simulator).

What it deliberately lacks — the paper's point of comparison — is any
notion of thermal spreading via dark cores or of preserving healthy /
fast cores for later lifetime.
"""

from __future__ import annotations

import numpy as np

from repro.floorplan import Floorplan
from repro.mapping.state import ChipState, DarkCoreMap
from repro.workload.mix import WorkloadMix


def _climb(
    floorplan: Floorplan,
    score: np.ndarray,
    start: int,
) -> int:
    """Greedy hill climb over the mesh: follow improving neighbors."""
    current = start
    while True:
        neighbors = floorplan.neighbors(current)
        best = max(neighbors, key=lambda c: score[c], default=current)
        if score[best] > score[current]:
            current = best
        else:
            return current


class VAAManager:
    """The extended-[28] baseline policy.

    Parameters
    ----------
    neighborhood_radius:
        Mesh radius (hops) of the region-quality score used by the
        first-node hill climb.
    boost:
        Apply the thermally-blind max-throughput turbo after mapping
        (every busy core jumps to its safe maximum; DTM cleans up).
        Default off = the paper's threads-run-at-fmin behaviour.
    """

    name = "vaa"

    def __init__(self, neighborhood_radius: int = 2, boost: bool = False):
        if neighborhood_radius < 1:
            raise ValueError("neighborhood_radius must be >= 1")
        self.neighborhood_radius = int(neighborhood_radius)
        self.boost = bool(boost)

    def prepare_epoch(self, ctx, mix: WorkloadMix, epoch_years: float) -> ChipState:
        """Contiguously map each application around a hill-climbed center."""
        hops = ctx.noc.hop_matrix
        health_now = ctx.measured_health()
        fmax_now = ctx.chip.fmax_init_ghz * health_now
        floorplan = ctx.floorplan
        n = ctx.chip.num_cores
        num_on = len(mix.threads)
        if num_on > ctx.max_on_cores:
            raise ValueError(
                f"mix has {num_on} threads but the dark-silicon floor "
                f"allows only {ctx.max_on_cores} powered-on cores"
            )

        free = np.ones(n, dtype=bool)
        chosen: dict[int, int] = {}  # thread index -> core
        threads = mix.threads
        # Stiffest applications first: they have the fewest feasible
        # regions, the same ordering rationale as Algorithm 1.
        apps = sorted(
            mix.applications,
            key=lambda a: max(t.fmin_ghz for t in a.threads),
            reverse=True,
        )
        thread_index_of = {id(t): i for i, t in enumerate(threads)}

        for app in apps:
            fmins = np.array([t.fmin_ghz for t in app.threads])
            center = self._first_node(floorplan, hops, free, fmax_now, fmins)
            order = np.argsort(hops[center] + 1e-3 * (fmax_now.max() - fmax_now))
            app_threads = sorted(
                app.threads, key=lambda t: t.fmin_ghz, reverse=True
            )
            for thread in app_threads:
                placed = False
                for core in order:
                    if free[core] and fmax_now[core] >= thread.fmin_ghz:
                        chosen[thread_index_of[id(thread)]] = int(core)
                        free[core] = False
                        placed = True
                        break
                if not placed:
                    # Max-throughput fallback: fastest remaining core,
                    # run at its safe frequency (QoS violation recorded
                    # through throughput metrics).
                    candidates = np.flatnonzero(free)
                    if candidates.size == 0:
                        break
                    core = int(candidates[np.argmax(fmax_now[candidates])])
                    chosen[thread_index_of[id(thread)]] = core
                    free[core] = False

        on_cores = np.array(sorted(chosen.values()), dtype=int)
        dcm = DarkCoreMap.from_on_indices(n, on_cores)
        state = ChipState(n, threads, dcm)
        for thread_index, core in chosen.items():
            thread = threads[thread_index]
            freq = min(thread.fmin_ghz, float(fmax_now[core]))
            state.place(thread_index, core, max(freq, 1e-3))
        if self.boost:
            from repro.core.boost import blind_boost

            blind_boost(state, fmax_now)
        return state

    def prepare_epoch_batch(
        self, ctxs, mixes, epoch_years: float
    ) -> list[ChipState]:
        """Epoch decisions for a whole chip batch: one
        :meth:`prepare_epoch` per lane (VAA shares no work across
        chips), so a subclass override is honoured."""
        return [
            self.prepare_epoch(ctx, mix, epoch_years)
            for ctx, mix in zip(ctxs, mixes)
        ]

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _first_node(
        self,
        floorplan: Floorplan,
        hops: np.ndarray,
        free: np.ndarray,
        fmax_now: np.ndarray,
        fmins: np.ndarray,
    ) -> int:
        """Smart hill climbing for the application's first node.

        The region-quality score of a center counts how many of the
        application's thread requirements could be satisfied by free
        cores within the neighborhood radius (a square-region heuristic
        like [28]'s), with a small bonus for aggregate frequency
        headroom — the max-throughput extension.
        """
        within = hops <= self.neighborhood_radius
        feasible = free[None, :] & (fmax_now[None, :] >= fmins.min())
        count = (within & feasible).sum(axis=1).astype(float)
        headroom = np.where(feasible, fmax_now[None, :], 0.0).sum(axis=1)
        score = count + 1e-3 * headroom
        score[~free] = -np.inf
        start_candidates = np.flatnonzero(free)
        if start_candidates.size == 0:
            raise RuntimeError("no free cores left for first-node selection")
        start = int(start_candidates[np.argmax(score[start_candidates])])
        return _climb(floorplan, score, start)
