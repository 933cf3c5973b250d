"""2D-mesh NoC topology with dimension-ordered (XY) routing.

One router per core tile, links between mesh neighbors.  XY routing is
deterministic: a flit first travels along X to the destination column,
then along Y — the standard deadlock-free choice, and the one Fattah-
style mappers assume when they optimize hop counts.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.floorplan import Floorplan

#: Process-wide all-pairs route tables keyed by mesh shape; see
#: :meth:`MeshTopology._route_csr`.
_ROUTE_CSR_CACHE: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}


class MeshTopology:
    """Routing and link bookkeeping for a mesh the size of a floorplan.

    Directed links are indexed: for each ordered neighbor pair
    ``(a, b)`` there is one link id.
    """

    def __init__(self, floorplan: Floorplan):
        self.floorplan = floorplan
        self.num_nodes = floorplan.num_cores
        links = []
        for a in range(self.num_nodes):
            for b in floorplan.neighbors(a):
                links.append((a, b))
        self._links = links
        self._link_index = {pair: i for i, pair in enumerate(links)}

    @property
    def num_links(self) -> int:
        """Number of directed links."""
        return len(self._links)

    @property
    def links(self) -> list[tuple[int, int]]:
        """Directed links as ``(from_node, to_node)`` pairs (copy)."""
        return list(self._links)

    def hop_count(self, src: int, dst: int) -> int:
        """Manhattan hop distance (XY routes are minimal)."""
        return self.floorplan.manhattan_distance(src, dst)

    @cached_property
    def hop_matrix(self) -> np.ndarray:
        """All-pairs hop counts (read-only: VAA's decision, the NoC
        metrics and Hayat's communication term share it)."""
        n = self.num_nodes
        cols = self.floorplan.cols
        rows_idx, cols_idx = np.divmod(np.arange(n), cols)
        hops = np.abs(rows_idx[:, None] - rows_idx[None, :]) + np.abs(
            cols_idx[:, None] - cols_idx[None, :]
        )
        hops.flags.writeable = False
        return hops

    def route(self, src: int, dst: int) -> list[int]:
        """Link ids of the XY route from ``src`` to ``dst``.

        Empty for ``src == dst``.  X (column) correction first, then Y.
        """
        fp = self.floorplan
        row_s, col_s = fp.position(src)
        row_d, col_d = fp.position(dst)
        path = []
        node = src
        while col_s != col_d:
            step = 1 if col_d > col_s else -1
            nxt = fp.index(row_s, col_s + step)
            path.append(self._link_index[(node, nxt)])
            node = nxt
            col_s += step
        while row_s != row_d:
            step = 1 if row_d > row_s else -1
            nxt = fp.index(row_s + step, col_s)
            path.append(self._link_index[(node, nxt)])
            node = nxt
            row_s += step
        return path

    @cached_property
    def _route_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """All-pairs XY routes in CSR form: ``(indptr, link_ids)``.

        Pair ``(src, dst)`` maps to row ``src * num_nodes + dst``; the
        row's slice of ``link_ids`` lists the route's links in travel
        order.  Routes and link ids are fully determined by the mesh
        shape, so the table is built once per process per (rows, cols)
        and shared by every topology instance — a fresh ``ChipContext``
        each epoch must not re-pay ~n^2 Python routings.
        """
        key = (self.floorplan.rows, self.floorplan.cols)
        cached = _ROUTE_CSR_CACHE.get(key)
        if cached is not None:
            return cached
        n = self.num_nodes
        indptr = np.zeros(n * n + 1, dtype=np.intp)
        rows: list[list[int]] = []
        for src in range(n):
            for dst in range(n):
                path = self.route(src, dst) if src != dst else []
                rows.append(path)
                indptr[src * n + dst + 1] = indptr[src * n + dst] + len(path)
        link_ids = np.fromiter(
            (link for path in rows for link in path),
            dtype=np.intp,
            count=int(indptr[-1]),
        )
        indptr.flags.writeable = False
        link_ids.flags.writeable = False
        _ROUTE_CSR_CACHE[key] = (indptr, link_ids)
        return indptr, link_ids

    def link_loads(self, traffic: np.ndarray) -> np.ndarray:
        """Per-link load for a node-to-node traffic matrix.

        ``traffic[i, j]`` is the rate from node ``i`` to ``j`` (any
        consistent unit); the result sums every flow over its XY route.

        Flows are accumulated through the precomputed route table with
        ``np.add.at`` in the same row-major flow order (and per-flow
        route order) as the reference per-flow loop, so the float sums
        are bit-identical to it.
        """
        traffic = np.asarray(traffic, dtype=float)
        if traffic.shape != (self.num_nodes, self.num_nodes):
            raise ValueError("traffic matrix shape mismatch")
        if (traffic < 0).any():
            raise ValueError("traffic rates must be non-negative")
        loads = np.zeros(self.num_links)
        indptr, link_ids = self._route_csr
        flat = traffic.reshape(-1)
        flows = np.nonzero(flat)[0]  # row-major == (src, dst) loop order
        if flows.size == 0:
            return loads
        starts = indptr[flows]
        counts = indptr[flows + 1] - starts
        total = int(counts.sum())
        if total == 0:
            return loads
        # Expand the CSR slices: for each flow, its route's link ids.
        cum = np.cumsum(counts) - counts
        idx = np.arange(total) - np.repeat(cum, counts) + np.repeat(starts, counts)
        np.add.at(loads, link_ids[idx], np.repeat(flat[flows], counts))
        return loads
