"""Layer spans recorded from outside the program.

The benchmark changes nothing under ``src/``.  To see where a run spends
its time it replaces each layer's entry point *where the caller looks it
up* -- a module global such as ``repro.sim.batch.compile_segment`` (the
name ``repro.sim.batch`` imported), or a class attribute such as
``DTMPolicy.enforce`` -- with a wrapper that records a span, and puts
every original back when the traced run ends.

A span is ``(id, parent id, op id, name, start, end, size)``.  Spans are
kept in memory and aggregated (or written as JSONL) at the end.  A
layer's self time is its span's duration minus the duration of its
direct child spans, so the self times of every span under one op plus
the op's own (root) self time add up to the op's wall time exactly.
Wrappers record nothing outside an op, so untraced ops interleaved with
traced ones in the same process run the original code path plus one
attribute test per call.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from dataclasses import dataclass

import numpy as np


def _rows(index):
    """Size of a call as the row count of positional argument ``index``."""
    return lambda args, kwargs: int(np.shape(args[index])[0])


def _elements(index):
    """Size of a call as the element count of positional argument ``index``."""
    return lambda args, kwargs: int(np.size(args[index]))


@dataclass(frozen=True)
class Layer:
    """One traced layer: its span name and every lookup site it has."""

    name: str
    sites: tuple[str, ...]
    #: ``(args, kwargs) -> int`` work size of one call, or None.
    size: object = None
    #: Per-layer metric suffix for the summed sizes (``rows``/``elements``).
    size_label: str | None = None


#: Every wrapped entry point, as ``"module:attribute"`` or
#: ``"module:Class.attribute"``.  A function imported by name into
#: several modules is patched in each caller's namespace.
LAYERS = (
    # Algorithm 1 and its kernels, batched path.
    Layer(
        "core.prepare_epoch_batch",
        (
            "repro.core.manager:HayatManager.prepare_epoch_batch",
            "repro.baselines.vaa:VAAManager.prepare_epoch_batch",
        ),
    ),
    Layer("core.map_threads_batch", ("repro.core.mapper_batch:map_threads_batch",)),
    Layer(
        "core.delta_eval",
        (
            "repro.core.delta_eval:DeltaEvaluator.solve_base",
            "repro.core.delta_eval:DeltaEvaluator.candidate_temps",
        ),
    ),
    Layer(
        "thermal.predict_batch",
        ("repro.thermal.predictor:ThermalPredictor.predict_batch",),
        size=_rows(1),
        size_label="rows",
    ),
    Layer("core.dcm", ("repro.core.manager:variation_aware_dcm",)),
    Layer(
        "aging.walk",
        (
            "repro.aging.walk:WalkEngine.next_health",
            "repro.aging.tables:AgingTable.next_health",
        ),
        size=_elements(1),
        size_label="elements",
    ),
    # Algorithm 1 and the lifetime loop, per-chip path.
    Layer(
        "core.prepare_epoch",
        (
            "repro.core.manager:HayatManager.prepare_epoch",
            "repro.baselines.vaa:VAAManager.prepare_epoch",
        ),
    ),
    Layer("core.map_threads", ("repro.core.mapper:HayatMapper.map_threads",)),
    Layer("thermal.predict", ("repro.thermal.predictor:ThermalPredictor.predict",)),
    Layer("thermal.coupled", ("repro.sim.simulator:solve_coupled_steady_state",)),
    Layer("sim.run_segment", ("repro.sim.window:FusedWindowEngine.run_segment",)),
    Layer("thermal.step", ("repro.thermal.rcnet:TransientIntegrator.step",)),
    Layer("sim.lifetime_run", ("repro.sim.simulator:LifetimeSimulator.run",)),
    Layer("aging.advance", ("repro.aging.health:HealthState.advance",)),
    # Settle and window of the batched engine.
    Layer(
        "thermal.coupled_batch",
        ("repro.sim.batch:solve_coupled_steady_state_batch",),
        size=_rows(2),
        size_label="rows",
    ),
    Layer("dtm.enforce", ("repro.dtm.policy:DTMPolicy.enforce",)),
    Layer(
        "sim.compile_segment",
        ("repro.sim.batch:compile_segment", "repro.sim.simulator:compile_segment"),
    ),
    Layer("thermal.step_batch", ("repro.thermal.rcnet:TransientIntegrator.step_batch",)),
    Layer("sim.batch_run", ("repro.sim.batch:BatchLifetimeSimulator.run",)),
    Layer("aging.advance_batch", ("repro.sim.batch:advance_batch",)),
    Layer(
        "noc.evaluate_mapping",
        ("repro.sim.batch:evaluate_mapping", "repro.sim.simulator:evaluate_mapping"),
    ),
    Layer("sim.chip_context", ("repro.sim.context:ChipContext.__init__",)),
    Layer(
        "sim.supervisor",
        (
            "repro.sim.campaign:run_supervised_jobs",
            "repro.sim.fleet.daemon:run_supervised_jobs",
        ),
    ),
    # Set-up.
    Layer(
        "variation.generate_population",
        (
            "repro.variation.population:generate_population",
            "repro.sim.fleet.daemon:generate_population",
        ),
    ),
    Layer(
        "aging.default_aging_table",
        (
            "repro.aging.tables:default_aging_table",
            "repro.sim.fleet.daemon:default_aging_table",
        ),
    ),
    # The fleet service.
    Layer("fleet.submit_request", ("repro.sim.fleet.daemon:submit_request",)),
    Layer("fleet.process_once", ("repro.sim.fleet.daemon:FleetDaemon.process_once",)),
    Layer("fleet.aggregate_store", ("repro.sim.fleet.daemon:aggregate_store",)),
    Layer(
        "fleet.aggregates_to_dict",
        ("repro.sim.fleet.aggregates:FleetAggregates.to_dict",),
    ),
    Layer("fleet.campaign_digest", ("repro.sim.fleet.daemon:campaign_digest",)),
    Layer("fleet.store_append", ("repro.sim.fleet.store:ResultStore.append",)),
    Layer("fleet.write_status", ("repro.sim.fleet.daemon:FleetDaemon._write_status",)),
)

#: Name of the root span the benchmark opens around each traced op.
ROOT = "op"


def resolve(site: str):
    """``(owner, attribute, original)`` for a ``module:[Class.]attr`` site.

    Class attributes are read from the class's own ``__dict__`` so a
    method inherited from a base class is rejected instead of being
    shadowed on the subclass.
    """
    module_name, _, path = site.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        if attribute not in owner.__dict__:
            raise AttributeError(f"{site}: not defined on {owner.__name__} itself")
        original = owner.__dict__[attribute]
    else:
        original = getattr(owner, attribute)
    if not callable(original):
        raise TypeError(f"{site}: {original!r} is not callable")
    return owner, attribute, original


class Tracer:
    """Span recorder plus the patch table that feeds it.

    Use as a context manager: entering installs every wrapper, leaving
    restores every original (also on error).  :meth:`op` opens the root
    span of one traced op; calls outside an op are not recorded.
    """

    def __init__(self):
        #: ``[id, parent, op, name, start, end, size]`` per span.
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = None
        self._patches: list[tuple] = []

    # -- patching -------------------------------------------------------
    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            for layer in LAYERS:
                for site in layer.sites:
                    owner, attribute, original = resolve(site)
                    wrapper = self._wrap(layer.name, original, layer.size)
                    setattr(owner, attribute, wrapper)
                    self._patches.append((owner, attribute, original))
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.restore()

    def _wrap(self, name: str, fn, size):
        tracer = self

        def traced(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            span = tracer._open(name, size(args, kwargs) if size else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(span)

        return functools.update_wrapper(traced, fn)

    # -- recording ------------------------------------------------------
    def _open(self, name: str, size: int) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [len(self.spans), parent, self._op, name, time.perf_counter(), None, size]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def _close(self, span: list) -> None:
        span[5] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def op(self, op_id):
        """Trace one op under a root span named :data:`ROOT`."""
        if self._op is not None:
            raise RuntimeError("ops do not nest")
        self._op = op_id
        span = self._open(ROOT, 0)
        try:
            yield
        finally:
            self._close(span)
            self._op = None

    # -- reading --------------------------------------------------------
    def summary(self, ops) -> dict:
        """Per-name ``calls``/``self_s``/``total_s``/``size`` over the
        spans of the op ids in ``ops``.

        The root span is reported under :data:`ROOT`.
        """
        ops = set(ops)
        child_time = [0.0] * len(self.spans)
        for span_id, parent, _, _, start, end, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for span_id, _, op, name, start, end, size in self.spans:
            if op not in ops:
                continue
            entry = out.setdefault(
                name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "size": 0}
            )
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += (end - start) - child_time[span_id]
            entry["size"] += size
        return out

    def write_jsonl(self, path: str) -> int:
        """Write every span as one JSON line; returns the line count."""
        keys = ("id", "parent", "op", "name", "start", "end", "size")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")
        return len(self.spans)

