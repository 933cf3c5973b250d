"""Matrix-exponential integrator vs backward Euler."""

import numpy as np
import pytest

from repro.floorplan import Floorplan
from repro.thermal import ThermalRCNetwork, TransientIntegrator
from tests.exact_reference import ExactIntegrator


@pytest.fixture(scope="module")
def net():
    return ThermalRCNetwork(Floorplan(4, 4))


class TestExactIntegrator:
    def test_converges_to_steady_state(self, net):
        power = np.full(16, 3.0)
        integ = ExactIntegrator(net, dt_s=10.0)
        temps = integ.run(net.initial_temperatures(), power, num_steps=100)
        np.testing.assert_allclose(
            integ.core_temperatures(temps), net.steady_state(power), atol=1e-6
        )

    def test_step_composition(self, net):
        """Two dt steps equal one 2dt step exactly (group property)."""
        power = np.full(16, 2.0)
        short = ExactIntegrator(net, dt_s=1.0)
        long = ExactIntegrator(net, dt_s=2.0)
        start = net.initial_temperatures()
        two_short = short.step(short.step(start, power), power)
        one_long = long.step(start, power)
        np.testing.assert_allclose(two_short, one_long, rtol=1e-9)

    def test_backward_euler_agrees_at_small_steps(self, net):
        """BE converges to the exact solution as dt -> 0; at dt = tau/10
        the error after a fixed horizon must be small."""
        power = np.full(16, 4.0)
        horizon_s = 2.0
        exact = ExactIntegrator(net, dt_s=horizon_s)
        truth = exact.step(net.initial_temperatures(), power)

        dt = 0.002
        euler = TransientIntegrator(net, dt_s=dt)
        approx = euler.run(
            net.initial_temperatures(), power, num_steps=int(horizon_s / dt)
        )
        err = np.abs(
            euler.core_temperatures(approx) - exact.core_temperatures(truth)
        ).max()
        assert err < 0.1

    def test_backward_euler_error_shrinks_with_dt(self, net):
        power = np.full(16, 4.0)
        horizon_s = 1.0
        truth = ExactIntegrator(net, dt_s=horizon_s).step(
            net.initial_temperatures(), power
        )[:16]

        errors = []
        for dt in (0.05, 0.01):
            euler = TransientIntegrator(net, dt_s=dt)
            approx = euler.run(
                net.initial_temperatures(), power, num_steps=int(horizon_s / dt)
            )
            errors.append(np.abs(approx[:16] - truth).max())
        assert errors[1] < errors[0]

    def test_exact_decay_rate(self, net):
        """With zero power the rise decays; after one sink time constant
        the sink node's rise shrinks by ~e."""
        power = np.full(16, 3.0)
        hot = net.steady_state_all_nodes(power)
        sink_tau = (
            net.config.sink_heat_capacity_j_per_k * net.config.sink_to_ambient_r_kw
        )
        integ = ExactIntegrator(net, dt_s=sink_tau)
        cooled = integ.step(hot, np.zeros(16))
        amb = net.config.ambient_k
        ratio = (cooled[-1] - amb) / (hot[-1] - amb)
        # Multi-exponential decay: between 1/e (single pole) and ~0.6.
        assert 0.2 < ratio < 0.65

    def test_rejects_wrong_shape(self, net):
        integ = ExactIntegrator(net, dt_s=1.0)
        with pytest.raises(ValueError):
            integ.step(np.zeros(5), np.zeros(16))
