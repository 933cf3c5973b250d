"""Offline-generated 3D aging tables and their run-time lookups.

The paper avoids online aging simulation by precomputing, per design,
a table of frequency-degradation factors over (temperature, duty cycle,
age) and, at run time, (a) locating each core's current position in the
table from its monitored health and (b) following a new path along the
age axis under the predicted temperature/duty of the next epoch.

Two lookups are provided, both vectorized over cores/candidates:

* :meth:`AgingTable.health` — trilinear interpolation of
  ``health = fmax(y)/fmax(0)`` at (T, d, y);
* :meth:`AgingTable.equivalent_age` — the inverse along the age axis:
  given (T, d) and a measured health, the age that stress history is
  equivalent to.

The age axis is geometric: the ``y^(1/6)`` reaction-diffusion envelope
is steep near zero, and equivalent ages can far exceed calendar age when
a core that aged hot is re-evaluated at a cooler temperature (the
stress-rate ratio enters to the 6th power).  Ages beyond the table clamp
to its edge, which slightly *over*-estimates further aging — the safe
direction for a management layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.aging.estimator import CoreAgingEstimator


def _default_temp_grid() -> np.ndarray:
    return np.arange(290.0, 431.0, 10.0)


def _default_duty_grid() -> np.ndarray:
    # Geometric below 1.0: the d^(1/6) dependence of Eq. 7 is steep near
    # zero duty, where linear spacing interpolates poorly.
    return np.concatenate([[0.0], np.geomspace(0.02, 1.0, 12)])


def _default_age_grid() -> np.ndarray:
    return np.concatenate([[0.0], np.geomspace(0.05, 120.0, 31)])


def _axis_weights(grid: np.ndarray, values: np.ndarray, spans: np.ndarray | None = None):
    """Locate ``values`` on ``grid``: lower indices and linear weights.

    ``np.minimum``/``np.maximum`` replace the ``np.clip`` wrapper (same
    values, far less dispatch overhead — this runs once per axis per
    candidate batch inside Algorithm 1's scoring loop).  ``spans`` may
    carry the precomputed ``np.diff(grid)`` — the identical segment
    widths, one gather instead of two plus a subtraction.
    """
    values = np.minimum(np.maximum(values, grid[0]), grid[-1])
    # After the clip every value is >= grid[0], so the right-bisection
    # index is >= 1 and the lower clamp of the old ``np.clip(idx, 0, .)``
    # was dead — only the upper clamp (values == grid[-1]) can bind.
    idx = np.searchsorted(grid, values, side="right") - 1
    idx = np.minimum(idx, len(grid) - 2)
    if spans is None:
        span = grid[idx + 1] - grid[idx]
    else:
        span = spans[idx]
    frac = (values - grid[idx]) / span
    return idx, frac


def _sum_corners(stack: np.ndarray) -> np.ndarray:
    """Left-to-right sum over the leading (corner) axis.

    ``np.add.reduce`` over the outer axis accumulates the slices in
    order — the same IEEE sequence as an explicit ``+=`` loop — as long
    as each slice holds more than one element.  A degenerate batch
    collapses to a contiguous 1-d reduction, where NumPy switches to
    pairwise partial sums and changes the rounding order, so tiny
    batches take the explicit loop instead (the kernel-count saving
    only matters for large ones anyway).
    """
    if stack[0].size > 1:
        return np.add.reduce(stack, axis=0)
    out = stack[0]
    for corner in range(1, stack.shape[0]):
        out = out + stack[corner]
    return out


#: Absolute slack covering the floating-point rounding of a bilinear
#: blend of values in (0, 1]: four products and three sums accumulate
#: well under 10 ulps (~2.5e-15); 1e-12 leaves three orders of
#: magnitude of safety while still pinning ambiguity to values that
#: genuinely hug the queried health.
_BLEND_MARGIN = 1e-12


@dataclass
class AgingTable:
    """The 3D table: ``values[i_T, i_d, i_y]`` = relative fmax in (0, 1]."""

    temp_grid_k: np.ndarray
    duty_grid: np.ndarray
    age_grid_years: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        expected = (
            len(self.temp_grid_k),
            len(self.duty_grid),
            len(self.age_grid_years),
        )
        if self.values.shape != expected:
            raise ValueError(
                f"table values must have shape {expected}, got {self.values.shape}"
            )
        # NaN fails every comparison below, so it would pass both the
        # monotonicity and the range check: reject non-finite entries
        # first (tables may come from ``.npz`` files via :meth:`load`).
        for name, grid in (
            ("temp_grid_k", self.temp_grid_k),
            ("duty_grid", self.duty_grid),
            ("age_grid_years", self.age_grid_years),
        ):
            if not np.isfinite(grid).all():
                raise ValueError(f"{name} must be finite")
            if len(grid) < 2 or (np.diff(grid) <= 0).any():
                raise ValueError(f"{name} must be strictly increasing, length >= 2")
        if not np.isfinite(self.values).all():
            raise ValueError("values must be finite")
        if (self.values <= 0).any() or (self.values > 1.0 + 1e-12).any():
            raise ValueError("health values must lie in (0, 1]")
        # Flat views for the hot lookups: the same elements gathered by
        # row offset instead of fancy 3D indexing (which materializes an
        # index product per corner).  Bit-identical, several times
        # cheaper per call.
        self.values = np.ascontiguousarray(self.values)
        n_d, n_y = len(self.duty_grid), len(self.age_grid_years)
        self._values2d = self.values.reshape(-1, n_y)
        self._values_flat = self.values.reshape(-1)
        self._row_stride = n_d * n_y
        # Physical tables decrease along the age axis; when every stored
        # curve does, the inverse lookup may bisect (see
        # :meth:`_ages_located`).  Non-monotone (synthetic) tables fall
        # back to the exhaustive comparison.
        self._age_monotone = bool((np.diff(self.values, axis=2) <= 0.0).all())
        # Physical tables also hold exactly 1.0 along the zero-stress
        # duty slice; then an idle element's walk has an exact closed
        # form (see :meth:`repro.aging.walk.WalkEngine.next_health`).
        self._idle_exact = self._age_monotone and bool(
            (self.values[:, 0, :] == 1.0).all()
        )
        self._temp_spans = np.diff(self.temp_grid_k)
        self._duty_spans = np.diff(self.duty_grid)
        self._age_spans = np.diff(self.age_grid_years)
        if self._age_monotone:
            # Per-curve count tables for the inverse lookup:
            # ``_edge_counts[r, q]`` = number of age columns of curve
            # ``r`` whose health strictly exceeds ``_count_edges[q]``.
            # A blended (convex-combination) curve's count lies between
            # the min and max of its four corner-curve counts, giving
            # :meth:`_ages_located` a bracket without sampling the
            # blend.  With the edge set equal to every distinct stored
            # value, no curve crosses a threshold strictly inside a
            # bucket, so the gathered counts are the *exact* per-corner
            # counts at the queried health; huge tables fall back to a
            # dyadic grid whose bounds are looser but still valid (a
            # bucket's lower/upper edges bound the counts inside it).
            n_rows = self._values2d.shape[0]
            edges = np.unique(self._values2d)
            exact = n_rows * (edges.size + 2) <= 2_000_000
            if not exact:
                edges = np.arange(1, 257) / 256.0
            # Column q of the count table corresponds to threshold
            # ``edges[q - 1]`` with column 0 an implicit ``-inf`` (all
            # columns exceed), so a right-bisection of ``edges`` indexes
            # it directly — no ``- 1`` correction kernels in the hot
            # path.  The trailing sentinel column covers thresholds
            # above the top edge: nothing exceeds.
            with_inf = np.concatenate(([-np.inf], edges))
            counts = np.empty((n_rows, edges.size + 2), dtype=np.intp)
            for row, curve in enumerate(self._values2d):
                ascending = np.sort(curve)
                counts[row, :-1] = n_y - np.searchsorted(
                    ascending, with_inf, side="right"
                )
            counts[:, -1] = 0
            self._count_edges = edges
            self._edge_counts = counts
            self._counts_exact = exact
            # Length of each curve's leading constant run — lets the
            # inverse lookup resolve a whole ambiguous span with one
            # blend sample when every participating corner is flat
            # across it (see :meth:`_ages_located`).
            neq = self._values2d != self._values2d[:, :1]
            self._flat_prefix = np.where(neq.any(axis=1), neq.argmax(axis=1), n_y)
        # Combined (T, d) x age corner offsets for the forward trilinear
        # gather: one broadcast add instead of three.
        self._corner_offsets = np.array(
            [0, n_y, n_d * n_y, (n_d + 1) * n_y], dtype=np.intp
        ).reshape(4, 1) + np.array([0, 1], dtype=np.intp)

    @property
    def max_age_years(self) -> float:
        """Upper edge of the age axis."""
        return float(self.age_grid_years[-1])

    # ------------------------------------------------------------------
    # forward lookup
    # ------------------------------------------------------------------
    def health(self, temp_k, duty, age_years) -> np.ndarray:
        """Trilinear-interpolated health at (T, d, y); broadcasts."""
        temp_k, duty, age_years = np.broadcast_arrays(
            np.asarray(temp_k, dtype=float),
            np.asarray(duty, dtype=float),
            np.asarray(age_years, dtype=float),
        )
        it, ft = _axis_weights(self.temp_grid_k, temp_k, self._temp_spans)
        idx_d, fd = _axis_weights(self.duty_grid, duty, self._duty_spans)
        iy, fy = _axis_weights(self.age_grid_years, age_years, self._age_spans)
        return self._health_located(it, ft, idx_d, fd, iy, fy)

    def _health_located(self, it, ft, idx_d, fd, iy, fy, wtd=None, base0=None) -> np.ndarray:
        """Trilinear blend from pre-located axis positions.

        The eight corners are gathered from the flat value array in one
        fancy index of shape ``(4, 2) + batch`` — (T, d) corner major,
        age corner minor — matching, element for element, the corner
        order of the original 3D fancy-indexing form.  The weight tensor
        is the outer product of the bilinear (T, d) corner weights with
        ``(1-fy, fy)``: each entry is the very ``(wt*wd)*wy`` product
        the unstacked loop computed, and ``np.add.reduce`` over the
        flattened corner axis (length 8, below NumPy's pairwise block)
        accumulates left to right — the identical IEEE product-and-sum
        sequence, so results are bit-identical.  ``wtd`` may carry the
        stacked (T, d) weights from :meth:`_corner_weights`, computed
        once and shared with the inverse lookup.
        """
        n_y = len(self.age_grid_years)
        n_d = len(self.duty_grid)
        shape = np.shape(iy)
        nd = len(shape)
        if base0 is None:
            base0 = (it * n_d + idx_d) * n_y
        base = base0 + iy
        # (T, d) corner offsets crossed with the two age columns: one
        # gather of all eight corners, contiguous in the corner-major
        # order the weights below follow.
        offsets = self._corner_offsets.reshape((4, 2) + (1,) * nd)
        corners = self._values_flat[base + offsets]
        if wtd is None:
            wtd = self._corner_weights(ft, fd)
        omy = 1.0 - fy
        wy = np.stack([omy, fy])
        weights = wtd[:, None, ...] * wy[None, ...]
        corners *= weights
        return _sum_corners(corners.reshape((8,) + shape))

    def _corner_weights(self, ft, fd) -> np.ndarray:
        """Stacked bilinear (T, d) corner weights, shape ``(4,) + batch``.

        Row order (00, 01, 10, 11) matches both the corner-row order of
        :meth:`_ages_located` and the ``wtd``-major nest of
        :meth:`_health_located`; each row holds the same ``(1-ft)...``
        product the unstacked expressions computed, so sharing the array
        between lookups changes no bits.
        """
        omt, omd = 1.0 - ft, 1.0 - fd
        weights = np.empty((4,) + np.shape(ft))
        np.multiply(omt, omd, out=weights[0, ...])
        np.multiply(omt, fd, out=weights[1, ...])
        np.multiply(ft, omd, out=weights[2, ...])
        np.multiply(ft, fd, out=weights[3, ...])
        return weights

    # ------------------------------------------------------------------
    # inverse lookup (the "current position in the 3D table")
    # ------------------------------------------------------------------
    def _health_curves(self, temp_k, duty) -> np.ndarray:
        """Bilinear (T, d) blend of the age-axis curves: ``(batch, n_y)``."""
        temp_k = np.atleast_1d(np.asarray(temp_k, dtype=float))
        duty = np.atleast_1d(np.asarray(duty, dtype=float))
        temp_k, duty = np.broadcast_arrays(temp_k, duty)
        it, ft = _axis_weights(self.temp_grid_k, temp_k, self._temp_spans)
        idx_d, fd = _axis_weights(self.duty_grid, duty, self._duty_spans)
        return self._curves_located(it, ft, idx_d, fd)

    def _curves_located(self, it, ft, idx_d, fd) -> np.ndarray:
        """Age-axis curves from pre-located (T, d) positions.

        Row gathers on the 2D ``(n_T*n_d, n_y)`` view fetch the same
        four curves as ``values[it, idx_d + dd, :]``; the per-corner
        weight products and the left-to-right sum match the original
        expression, so the blend is bit-identical.
        """
        rows = it * len(self.duty_grid) + idx_d
        v2 = self._values2d
        omt, omd = 1 - ft, 1 - fd
        curves = (
            (omt * omd)[:, None] * v2[rows]
            + (omt * fd)[:, None] * v2[rows + 1]
            + (ft * omd)[:, None] * v2[rows + len(self.duty_grid)]
            + (ft * fd)[:, None] * v2[rows + len(self.duty_grid) + 1]
        )
        return curves

    def _corner_rows(self, it, idx_d):
        """Stacked (4, batch) corner row indices and flat base offsets.

        Row order (00, 01, 10, 11) matches :meth:`_corner_weights`.
        """
        n_d = len(self.duty_grid)
        rows = np.empty((4,) + np.shape(it), dtype=np.intp)
        rows[0] = it * n_d + idx_d
        rows[1] = rows[0] + 1
        rows[2] = rows[0] + n_d
        rows[3] = rows[2] + 1
        return rows, rows * len(self.age_grid_years)

    def _count_bounds(self, rows, pos, health_b):
        """Count-table bounds of the blended crossing: (lo_b, hi_b, floor).

        ``lo_b``/``hi_b`` bracket the number of age columns whose
        blended health strictly exceeds ``health_b``, and ``floor`` is
        the shortest leading flat run among the participating corners.
        The bounds depend only on the corner row set, the positivity
        pattern ``pos`` of the corner weights, and the health bits.

        The count tables (see ``__post_init__``) split the columns
        rigorously, *including* floating-point rounding of the blend
        itself: a blend is a convex combination of its four corner
        values, computed with a handful of IEEE products and sums, so
        it lies within ``_BLEND_MARGIN`` of the corner interval.
        Columns where even the max corner stays below ``h - margin``
        can never exceed ``h``; columns where the min corner exceeds
        ``h + margin`` always do (for non-increasing curves those are
        exactly the first ``min corner count at h + margin`` columns).
        Zero-weight corners contribute an exact ``+0.0`` to the blend
        (their values never matter bit-for-bit), so they are excluded
        from the bounds.  That keeps e.g. dark cores — duty exactly 0,
        whose other duty corner would otherwise drag in an unrelated
        curve — tightly bracketed by the curves actually blended.
        """
        n_y = len(self.age_grid_years)
        margin = _BLEND_MARGIN
        edges = self._count_edges
        counts = self._edge_counts
        # Right-bisection of the sentinel-free edge array indexes the
        # count table directly (column 0 is the implicit ``-inf``).
        b_sure = np.searchsorted(edges, health_b + margin, side="right")
        b_maybe = np.searchsorted(edges, health_b - margin, side="right")
        if not self._counts_exact:
            # Dyadic buckets: the stored edges bracket the in-bucket
            # counts, so take the conservative side of each bucket.
            b_sure += 1
        lo_b = np.where(pos, counts[rows, b_sure], n_y).min(axis=0)
        hi_b = np.where(pos, counts[rows, b_maybe], 0).max(axis=0)
        flat_floor = np.where(pos, self._flat_prefix[rows], n_y).min(axis=0)
        return lo_b, hi_b, flat_floor

    def _ages_located(
        self, it, ft, idx_d, fd, health_b, weights=None, rows=None, bases=None
    ) -> np.ndarray:
        """Inverse age lookup from pre-located (T, d) positions.

        For monotone tables the exhaustive ``(batch, n_y)`` curve
        comparison is replaced by precomputed per-corner count tables
        that bracket the blended curve's crossing, plus a handful of
        single-column blend samples for the residual ambiguous columns
        (see the inline commentary).  Each blended sample and the final
        interpolation reproduce, element for element, the products and
        sums of the full-curve path, so results are bit-identical to
        :meth:`_ages_on_curves`.  ``weights``, ``rows``, and ``bases``
        may carry the stacked corner weights
        (:meth:`_corner_weights`) and corner row/offset indices
        (:meth:`_corner_rows`) so a caller that also performs the
        forward read (:meth:`_walk_flat`) computes them once.
        """
        if not self._age_monotone:
            curves = self._curves_located(it, ft, idx_d, fd)
            return self._ages_on_curves(curves, health_b)
        if rows is None:
            rows, bases = self._corner_rows(it, idx_d)
        # Bilinear corner weights stacked (4, batch): one in-place
        # (4, batch) product per blend replaces four per-corner
        # products; per element the multiply and the left-to-right
        # accumulation are the same IEEE ops as the unstacked
        # ``w00*g0 + w01*g1 + w10*g2 + w11*g3`` expression.
        if weights is None:
            weights = self._corner_weights(ft, fd)
        count = self._crossing_counts(health_b, weights, rows, bases)
        return self._interpolate_counts(count, health_b, weights, bases)

    def _crossing_counts(self, health_b, weights, rows, bases) -> np.ndarray:
        """Number of age columns whose blended health strictly exceeds
        the target (monotone tables only).

        count = number of age columns whose blended health strictly
        exceeds the target, bracketed by the count tables (see
        :meth:`_count_bounds`).  Only the residual ambiguous columns
        — corner values hugging the target, e.g. pristine health 1.0
        against the flat start of every curve — are sampled, with the
        very IEEE products and left-to-right sums of the full-curve
        blend, so the count is bit-identical to
        :meth:`_ages_on_curves`.  Corners mostly agree, so the bulk
        of a batch needs no sample at all or a single vectorized
        comparison, and only genuine corner disagreement — a
        near-dead hot corner next to a pristine cool one — gathers
        its few ambiguous columns.
        """
        n_y = len(self.age_grid_years)
        flat = self._values_flat
        lo_b, hi_b, flat_floor = self._count_bounds(rows, weights > 0.0, health_b)
        gap = hi_b - lo_b
        # A positive corner that is constant over the ambiguous columns
        # (all inside its leading flat run) contributes the same addend
        # to every one of those blends; when all positive corners are,
        # the whole span shares one blended value — one sample decides
        # every ambiguous column at once.  A gap of one column is the
        # trivial span; the classic non-trivial case is a flat duty-0
        # curve against pristine health, ambiguous across the entire
        # age axis yet a single comparison.  The sample is taken for
        # the whole batch (gap-0 elements add ``gap == 0`` regardless
        # of the comparison, and the column clamp only ever binds for
        # them) — cheaper than the subset gathers it replaces when, as
        # in Algorithm 1's scoring batches, most elements are ambiguous.
        one_sample = (gap <= 1) | (hi_b <= flat_floor)
        g = flat[bases + np.minimum(lo_b, n_y - 1)]
        g *= weights
        acc = _sum_corners(g)
        count = lo_b + np.where((acc > health_b) & one_sample, gap, 0)
        wide = np.flatnonzero(~one_sample)
        if wide.size:
            # Genuine corner disagreement over a sloped stretch — e.g. a
            # near-dead hot corner next to a pristine cool one.  Only
            # the ambiguous columns ``[lo_b, hi_b)`` can decide the
            # count: every column below ``lo_b`` blends above the
            # target and every column at or past ``hi_b`` blends below
            # it (the bracket argument of :meth:`_count_bounds`), so a
            # gap-padded gather — rows padded to the widest gap, pad
            # columns masked out — counts exactly what the full-curve
            # comparison counted, without materializing ``n_y``-wide
            # curves.  The blends themselves are the same IEEE products
            # and left-to-right sums either way.
            lo_w = lo_b[wide]
            cols = lo_w[:, None] + np.arange(int(gap[wide].max()))
            live = cols < hi_b[wide, None]
            np.minimum(cols, n_y - 1, out=cols)
            g = flat[bases[:, wide, None] + cols[None, :, :]]
            g *= weights[:, wide, None]
            acc = _sum_corners(g)
            count[wide] = lo_w + np.count_nonzero(
                (acc > health_b[wide, None]) & live, axis=1
            )
        return count

    def _interpolate_counts(self, count, health_b, weights, bases) -> np.ndarray:
        """Ages from crossing counts: blend both bracketing columns.

        Elements with ``count == 0`` (age 0) or ``count == n_y`` (edge
        clamp) take fixed values, so the two-column blend only has to
        run on the interior elements; when enough of the batch sits on
        those fixed values — the common campaign shape, where pristine
        and fenced-dark cores dominate — the blend gathers the interior
        subset instead.  Either branch computes the identical IEEE
        products, sums and quotient per interior element, so the choice
        (a pure cost heuristic) never changes a bit.
        """
        n_y = len(self.age_grid_years)
        batch = count.shape[0]
        flat = self._values_flat
        lo = np.minimum(np.maximum(count - 1, 0), n_y - 2)
        at_start = count == 0
        at_end = count == n_y
        interior = np.flatnonzero(~at_start & ~at_end)
        if interior.size * 4 >= batch * 3:
            # Mostly interior: the full-batch blend skips the subset
            # gathers (fixed-value elements are overridden below).
            cols = np.empty((2, batch), dtype=np.intp)
            cols[0] = lo
            np.add(lo, 1, out=cols[1])
            g = flat[bases[:, None, :] + cols]
            g *= weights[:, None, :]
            acc = _sum_corners(g)
            h_lo, h_hi = acc[0], acc[1]  # h_hi smaller or equal to h_lo
            span = h_lo - h_hi
            # Masked divide instead of errstate + where: zero-span
            # segments keep the 0.0 fill, dividing elements produce the
            # identical quotient, and the invalid operation never
            # executes.
            frac = np.zeros(batch)
            np.divide(h_lo - health_b, span, out=frac, where=span > 0)
            frac = np.minimum(np.maximum(frac, 0.0), 1.0)
            ages = self.age_grid_years[lo] + frac * self._age_spans[lo]
        else:
            lo_i = lo[interior]
            cols = np.empty((2, interior.size), dtype=np.intp)
            cols[0] = lo_i
            np.add(lo_i, 1, out=cols[1])
            g = flat[bases[:, None, interior] + cols]
            g *= weights[:, None, interior]
            acc = _sum_corners(g)
            h_lo, h_hi = acc[0], acc[1]
            span = h_lo - h_hi
            frac = np.zeros(interior.size)
            np.divide(h_lo - health_b[interior], span, out=frac, where=span > 0)
            frac = np.minimum(np.maximum(frac, 0.0), 1.0)
            ages = np.zeros(batch)
            ages[interior] = (
                self.age_grid_years[lo_i] + frac * self._age_spans[lo_i]
            )
        ages = np.where(at_start, 0.0, ages)
        ages = np.where(at_end, self.max_age_years, ages)
        return ages

    def _ages_on_curves(self, curves, health_b) -> np.ndarray:
        """Invert pre-blended age-axis curves for ``health_b`` targets."""
        # Curves decrease along the age axis.  Count how many grid points
        # still exceed the target health; that locates the bracketing
        # segment.
        count = np.count_nonzero(curves > health_b[:, None], axis=1)
        lo = np.clip(count - 1, 0, curves.shape[1] - 2)
        rows = np.arange(curves.shape[0])
        h_lo = curves[rows, lo]
        h_hi = curves[rows, lo + 1]  # smaller or equal to h_lo
        span = h_lo - h_hi
        # Masked divide, matching the fast path's idiom: zero-span
        # segments keep the 0.0 fill, dividing elements produce the
        # identical quotient, and the invalid operation never executes
        # (so no errstate guard is needed).
        frac = np.zeros(curves.shape[0])
        np.divide(h_lo - health_b, span, out=frac, where=span > 0)
        frac = np.clip(frac, 0.0, 1.0)
        ages = self.age_grid_years[lo] + frac * (
            self.age_grid_years[lo + 1] - self.age_grid_years[lo]
        )
        ages = np.where(count == 0, 0.0, ages)
        ages = np.where(count == curves.shape[1], self.max_age_years, ages)
        return ages

    def equivalent_age(self, temp_k, duty, health) -> np.ndarray:
        """Age (years) at which (T, d) stress would reach ``health``.

        Vectorized over the batch.  Health >= the curve's start maps to
        age 0; health <= the curve's end clamps to the table edge.  A
        zero-duty curve is flat at 1.0, where any degraded health has no
        finite equivalent age — the edge clamp applies (such cores will
        simply not age further, matching the physics of zero stress).
        """
        health = np.atleast_1d(np.asarray(health, dtype=float))
        temp_k = np.atleast_1d(np.asarray(temp_k, dtype=float))
        duty = np.atleast_1d(np.asarray(duty, dtype=float))
        if temp_k.shape != duty.shape:
            temp_k, duty = np.broadcast_arrays(temp_k, duty)
        it, ft = _axis_weights(self.temp_grid_k, temp_k, self._temp_spans)
        idx_d, fd = _axis_weights(self.duty_grid, duty, self._duty_spans)
        health_b = health if health.shape == it.shape else np.broadcast_to(
            health, it.shape
        )
        return self._ages_located(it, ft, idx_d, fd, health_b)

    def next_health(self, temp_k, duty, current_health, epoch_years) -> np.ndarray:
        """One table walk: re-index by health, advance the age axis.

        This is the run-time ``estimateNextHealth`` primitive of
        Algorithm 1 (line 15): find each core's equivalent position for
        the *predicted* (T, d) of the next epoch, move ``epoch_years``
        along the age axis, and read the resulting health.

        The (T, d) axes are located once and shared between the inverse
        walk and the forward read — the dominant cost of Algorithm 1's
        candidate scoring loop — with results bit-identical to the
        compose-of-public-lookups form this replaces.
        """
        if epoch_years < 0:
            raise ValueError("epoch_years must be non-negative")
        temp_b = np.atleast_1d(np.asarray(temp_k, dtype=float))
        duty_b = np.atleast_1d(np.asarray(duty, dtype=float))
        if temp_b.shape != duty_b.shape:
            temp_b, duty_b = np.broadcast_arrays(temp_b, duty_b)
        health = np.atleast_1d(np.asarray(current_health, dtype=float))
        health_b = health if health.shape == temp_b.shape else np.broadcast_to(
            health, temp_b.shape
        )
        return self._walk_flat(temp_b, duty_b, health_b, epoch_years)

    def _walk_flat(self, temp_b, duty_b, health_b, epoch_years) -> np.ndarray:
        """The walk itself on equal-shape arrays, validation done.

        The per-element kernel :meth:`next_health` runs after
        broadcasting, and the one the walk engine
        (:class:`repro.aging.walk.WalkEngine`) sends its stressed
        elements through.  Every step computes element ``i`` from
        element ``i``'s inputs alone (:func:`_sum_corners` guards the
        one reduction whose order could depend on batch size), so
        walking any subset returns the same bits as walking the whole.
        """
        it, ft = _axis_weights(self.temp_grid_k, temp_b, self._temp_spans)
        idx_d, fd = _axis_weights(self.duty_grid, duty_b, self._duty_spans)
        weights = self._corner_weights(ft, fd)
        rows, bases = self._corner_rows(it, idx_d)
        ages = self._ages_located(
            it, ft, idx_d, fd, health_b, weights, rows, bases
        )
        ages += epoch_years
        iy, fy = _axis_weights(self.age_grid_years, ages, self._age_spans)
        new_health = self._health_located(
            it, ft, idx_d, fd, iy, fy, weights, bases[0]
        )
        # Health is monotone non-increasing under additional stress; the
        # clamp guards interpolation wiggle at segment boundaries.
        return np.minimum(new_health, health_b)

    def save(self, path: str) -> None:
        """Persist to an ``.npz`` file."""
        np.savez(
            path,
            temp_grid_k=self.temp_grid_k,
            duty_grid=self.duty_grid,
            age_grid_years=self.age_grid_years,
            values=self.values,
        )

    @classmethod
    def load(cls, path: str) -> "AgingTable":
        """Load a table persisted by :meth:`save`."""
        data = np.load(path)
        return cls(
            temp_grid_k=data["temp_grid_k"],
            duty_grid=data["duty_grid"],
            age_grid_years=data["age_grid_years"],
            values=data["values"],
        )


def build_aging_table(
    estimator: CoreAgingEstimator | None = None,
    temp_grid_k: np.ndarray | None = None,
    duty_grid: np.ndarray | None = None,
    age_grid_years: np.ndarray | None = None,
) -> AgingTable:
    """Offline table generation (start-up-time effort, once per design)."""
    if estimator is None:
        estimator = CoreAgingEstimator()
    temp_grid_k = (
        _default_temp_grid() if temp_grid_k is None else np.asarray(temp_grid_k)
    )
    duty_grid = _default_duty_grid() if duty_grid is None else np.asarray(duty_grid)
    age_grid_years = (
        _default_age_grid() if age_grid_years is None else np.asarray(age_grid_years)
    )
    cls = type(estimator)
    if (
        getattr(cls, "relative_fmax", None) is CoreAgingEstimator.relative_fmax
        and getattr(cls, "aged_critical_delay_ps", None)
        is CoreAgingEstimator.aged_critical_delay_ps
    ):
        # Stock estimator: one broadcast evaluation of the whole grid,
        # bit-identical to the scalar loop (see relative_fmax_grid).
        values = estimator.relative_fmax_grid(
            temp_grid_k, duty_grid, age_grid_years
        )
    else:
        # A subclass overrode the scalar evaluation (e.g. fault-injection
        # estimators in tests) — honor it point by point.
        values = np.empty((len(temp_grid_k), len(duty_grid), len(age_grid_years)))
        for i, temp in enumerate(temp_grid_k):
            for j, duty in enumerate(duty_grid):
                for k, age in enumerate(age_grid_years):
                    values[i, j, k] = estimator.relative_fmax(temp, duty, age)
    return AgingTable(temp_grid_k, duty_grid, age_grid_years, values)


@lru_cache(maxsize=1)
def default_aging_table() -> AgingTable:
    """The table for the default synthesized design, built once per process.

    Table generation is the paper's "start-up time effort for a given
    chip"; callers that don't customize the design or grids should share
    this cached instance.
    """
    return build_aging_table()
