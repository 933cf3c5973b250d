"""Leakage-temperature coupled fixed point."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.obs import MetricsRegistry, use_registry
from repro.power import PowerModel
from repro.thermal import (
    ThermalRCNetwork,
    solve_coupled_steady_state,
    solve_coupled_steady_state_batch,
)
from repro.thermal.coupled import ThermalRunawayError


@pytest.fixture(scope="module")
def setup(chip, floorplan):
    net = ThermalRCNetwork(floorplan)
    pm = PowerModel.for_chip(chip)
    return net, pm


def _checkerboard(n_rows=8, n_cols=8):
    return np.array(
        [(r + c) % 2 == 0 for r in range(n_rows) for c in range(n_cols)]
    )


class TestCoupledSolve:
    def test_self_consistency(self, setup):
        """The returned temperatures reproduce themselves through one
        more power/thermal evaluation."""
        net, pm = setup
        on = _checkerboard()
        freq = np.full(64, 3.0) * on
        act = np.full(64, 0.6) * on
        temps, breakdown = solve_coupled_steady_state(net, pm, freq, act, on)
        again = net.steady_state(
            pm.evaluate(freq, act, temps, on).total_w
        )
        np.testing.assert_allclose(temps, again, atol=0.05)

    def test_hotter_than_leakage_free(self, setup):
        """Closing the loop adds heat versus a fixed-leakage estimate."""
        net, pm = setup
        on = _checkerboard()
        freq = np.full(64, 3.0) * on
        act = np.full(64, 0.6) * on
        temps, _ = solve_coupled_steady_state(net, pm, freq, act, on)
        first_pass = net.steady_state(
            pm.evaluate(freq, act, np.full(64, net.config.ambient_k), on).total_w
        )
        assert temps.mean() > first_pass.mean()

    def test_all_dark_is_near_ambient(self, setup):
        net, pm = setup
        off = np.zeros(64, dtype=bool)
        temps, breakdown = solve_coupled_steady_state(
            net, pm, np.zeros(64), np.zeros(64), off
        )
        # 64 gated cores leak ~1.2 W total; the rise is under 1 K.
        assert temps.max() - net.config.ambient_k < 1.0
        assert breakdown.chip_total_w == pytest.approx(64 * 0.019, rel=1e-6)

    def test_dense_cluster_hotter_than_spread(self, setup):
        net, pm = setup
        contiguous = np.zeros(64, dtype=bool)
        contiguous[:32] = True
        spread = _checkerboard()
        freq = np.full(64, 3.0)
        act = np.full(64, 0.6)
        t_dense, _ = solve_coupled_steady_state(
            net, pm, freq * contiguous, act * contiguous, contiguous
        )
        t_spread, _ = solve_coupled_steady_state(
            net, pm, freq * spread, act * spread, spread
        )
        assert t_dense.max() > t_spread.max()

    def test_rejects_bad_damping(self, setup):
        net, pm = setup
        on = _checkerboard()
        with pytest.raises(ValueError):
            solve_coupled_steady_state(
                net, pm, np.zeros(64), np.zeros(64), on, damping=0.0
            )

    def test_runaway_reported_not_silent(self, setup):
        """With max_iter too small the solver raises instead of
        returning an unconverged state."""
        net, pm = setup
        on = np.ones(64, dtype=bool)
        freq = np.full(64, 4.0)
        act = np.ones(64)
        with pytest.raises(ThermalRunawayError):
            solve_coupled_steady_state(net, pm, freq, act, on, max_iter=2)


#: Fixed point and gain of the synthetic limit-cycle loop below.
FIXED_K = 330.0
GAIN_K = 4.0


class _KinkedNetwork:
    """A loop whose damped Picard map has a stable 2-cycle.

    The target is ``FIXED_K - GAIN_K * tanh(P - FIXED_K)``.  At the
    default damping 0.6 the fixed point has slope -2 and the iterate
    locks into a ~3 K 2-cycle; at damping 0.3 the slope is -0.5 and no
    2-cycle exists, so one halving converges.
    """

    def __init__(self, num_cores=4):
        self.num_cores = num_cores
        self.config = SimpleNamespace(ambient_k=300.0)

    def steady_state(self, total_w):
        return FIXED_K - GAIN_K * np.tanh(total_w - FIXED_K)

    def steady_state_batch(self, total_w):
        return self.steady_state(total_w)


class _EchoPower:
    """``total_w`` echoes the temperature; ``leakage_scale`` shrinks a
    row's loop gain (0.25 converges without a halving)."""

    def evaluate(self, freq, activity, temps, powered_on):
        return SimpleNamespace(total_w=np.array(temps, dtype=float))

    def evaluate_batch(
        self, freq, activity, temps, powered_on, leakage_scale=None
    ):
        scale = 1.0 if leakage_scale is None else leakage_scale
        return SimpleNamespace(total_w=FIXED_K + scale * (temps - FIXED_K))


class TestLimitCycle:
    """A non-diverging solve that runs out of iterations restarts from
    its last iterate at halved damping before it raises."""

    def test_scalar_halves_damping_and_converges(self):
        net, pm = _KinkedNetwork(), _EchoPower()
        zeros = np.zeros(net.num_cores)
        on = np.ones(net.num_cores, dtype=bool)
        registry = MetricsRegistry()
        with use_registry(registry):
            temps, _ = solve_coupled_steady_state(net, pm, zeros, zeros, on)
        np.testing.assert_allclose(temps, FIXED_K, atol=0.05)
        assert registry.counter("thermal.coupled_damping_halvings") == 1
        assert registry.counter("thermal.coupled_iterations") > 400

    def test_scalar_still_raises_when_halvings_run_out(self):
        net, pm = _KinkedNetwork(), _EchoPower()
        zeros = np.zeros(net.num_cores)
        on = np.ones(net.num_cores, dtype=bool)
        # A zero tolerance no step can meet keeps every pass unconverged.
        with pytest.raises(ThermalRunawayError, match="damping halvings"):
            solve_coupled_steady_state(
                net, pm, zeros, zeros, on, max_iter=50, tol_k=0.0
            )

    def test_batch_restarts_only_cycling_rows(self):
        net, pm = _KinkedNetwork(), _EchoPower()
        shape = (3, net.num_cores)
        zeros = np.zeros(shape)
        on = np.ones(shape, dtype=bool)
        scale = np.ones(shape)
        scale[0] = 0.25
        scale[2] = 0.25
        registry = MetricsRegistry()
        with use_registry(registry):
            temps, _ = solve_coupled_steady_state_batch(
                net, pm, zeros, zeros, on, leakage_scale=scale
            )
        np.testing.assert_allclose(temps, FIXED_K, atol=0.05)
        assert registry.counter("thermal.coupled_damping_halvings") == 1
        # The converging rows never saw the restart: same bits as a
        # batch of those rows alone.
        alone, _ = solve_coupled_steady_state_batch(
            net, pm, zeros[[0, 2]], zeros[[0, 2]], on[[0, 2]],
            leakage_scale=scale[[0, 2]],
        )
        np.testing.assert_array_equal(temps[[0, 2]], alone)
