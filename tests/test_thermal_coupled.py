"""Leakage-temperature coupled fixed point."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.baselines import VAAManager
from repro.obs import MetricsRegistry, get_registry, use_registry
from repro.power import DynamicPowerModel, LeakageModel, PowerModel
from repro.sim import BatchLifetimeSimulator, ChipContext, SimulationConfig
from repro.sim import batch as batch_module
from repro.thermal import (
    ThermalRCNetwork,
    solve_coupled_steady_state,
    solve_coupled_steady_state_batch,
)
from repro.thermal.coupled import ThermalRunawayError
from repro.variation import generate_population
from tests.coupled_reference import reference_solve, reference_solve_batch


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
#: Fake loop constants: leakage ``NOMINAL_W * exp(BETA * (T - 330 K))``
#: per core, which the fake network reads back as a temperature offset.
NOMINAL_W = 2.0
BETA = 1e-3


class _KinkedNetwork:
    """A loop whose damped Picard map has a stable 2-cycle.

    Paired with :func:`_kinked_inputs`, a row's total power is
    ``NOMINAL_W * (1 + s * (exp(BETA * x) - 1))`` for ``x = T - FIXED_K``
    and leakage scale ``s``, and the target is ``FIXED_K - GAIN_K *
    tanh(s * (exp(BETA * x) - 1) / BETA)`` — within 0.2 % of ``FIXED_K -
    GAIN_K * tanh(s * x)`` near the fixed point.  At the default damping
    0.6 and ``s = 1`` the fixed point has slope -2 and the iterate locks
    into a ~3 K 2-cycle; at damping 0.3 the slope is -0.5 and no
    2-cycle exists, so one halving converges.  ``s = 0.25`` converges
    without a halving.
    """

    def __init__(self, num_cores=4):
        self.num_cores = num_cores
        self.config = SimpleNamespace(ambient_k=300.0)

    def steady_state_unchecked(self, total_w):
        return FIXED_K - GAIN_K * np.tanh((total_w / NOMINAL_W - 1.0) / BETA)

    # The counted entry points the reference loops call, counting like
    # ThermalRCNetwork's.
    def steady_state(self, total_w):
        get_registry().inc("thermal.steady_solves")
        return self.steady_state_unchecked(total_w)

    def steady_state_batch(self, total_w):
        get_registry().inc("thermal.steady_solves", total_w.shape[0])
        return self.steady_state_unchecked(total_w)


def _kinked_power(num_cores=4) -> PowerModel:
    """Dynamic power ``NOMINAL_W * activity`` at 1 GHz, and leakage
    ``NOMINAL_W * s * exp(BETA * (T - 330 K))`` (the fit's reference
    temperature is ``FIXED_K``)."""
    return PowerModel(
        DynamicPowerModel(ceff_nf=NOMINAL_W, vdd=1.0),
        LeakageModel(
            nominal_w=NOMINAL_W, beta_per_k=BETA, fit_limit_k=1e4
        ),
        np.ones(num_cores),
    )


def _kinked_inputs(scale):
    """``(freq, activity, powered_on)`` that give a row of leakage scale
    ``s`` the dynamic power ``NOMINAL_W * (1 - s)``."""
    scale = np.asarray(scale, dtype=float)
    return np.ones(scale.shape), 1.0 - scale, np.ones(scale.shape, dtype=bool)


class TestLimitCycle:
    """A non-diverging solve that runs out of iterations restarts from
    its last iterate at halved damping before it raises."""

    def test_scalar_halves_damping_and_converges(self):
        net, pm = _KinkedNetwork(), _kinked_power()
        freq, act, on = _kinked_inputs(np.ones(net.num_cores))
        registry = MetricsRegistry()
        with use_registry(registry):
            temps, _ = solve_coupled_steady_state(net, pm, freq, act, on)
        np.testing.assert_allclose(temps, FIXED_K, atol=0.05)
        assert registry.counter("thermal.coupled_damping_halvings") == 1
        assert registry.counter("thermal.coupled_iterations") > 400

    def test_scalar_still_raises_when_halvings_run_out(self):
        net, pm = _KinkedNetwork(), _kinked_power()
        freq, act, on = _kinked_inputs(np.ones(net.num_cores))
        # A zero tolerance no step can meet keeps every pass unconverged.
        with pytest.raises(ThermalRunawayError, match="damping halvings"):
            solve_coupled_steady_state(
                net, pm, freq, act, on, max_iter=50, tol_k=0.0
            )

    def test_batch_restarts_only_cycling_rows(self):
        net, pm = _KinkedNetwork(), _kinked_power()
        scale = np.ones((3, net.num_cores))
        scale[0] = 0.25
        scale[2] = 0.25
        freq, act, on = _kinked_inputs(scale)
        registry = MetricsRegistry()
        with use_registry(registry):
            temps, _ = solve_coupled_steady_state_batch(
                net, pm, freq, act, on, leakage_scale=scale
            )
        np.testing.assert_allclose(temps, FIXED_K, atol=0.05)
        assert registry.counter("thermal.coupled_damping_halvings") == 1
        # The converging rows never saw the restart: same bits as a
        # batch of those rows alone.
        alone, _ = solve_coupled_steady_state_batch(
            net, pm, freq[[0, 2]], act[[0, 2]], on[[0, 2]],
            leakage_scale=scale[[0, 2]],
        )
        np.testing.assert_array_equal(temps[[0, 2]], alone)


class TestInputValidation:
    @pytest.mark.parametrize("name", ["freq_ghz", "activity", "leakage_scale"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_is_a_value_error(self, setup, name, bad):
        """A NaN or infinite input is named at entry, not reported as a
        diverged (thermal runaway) iteration."""
        net, pm = setup
        on = np.ones((2, 64), dtype=bool)
        inputs = {
            "freq_ghz": np.full((2, 64), 3.0),
            "activity": np.full((2, 64), 0.5),
            "leakage_scale": np.tile(pm.leakage_scale, (2, 1)),
        }
        inputs[name][1, 7] = bad
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            solve_coupled_steady_state_batch(
                net, pm, inputs["freq_ghz"], inputs["activity"], on,
                leakage_scale=inputs["leakage_scale"],
            )

    def test_scalar_rejects_nan_activity(self, setup):
        net, pm = setup
        act = np.full(64, 0.5)
        act[3] = np.nan
        with pytest.raises(ValueError, match="activity must be finite"):
            solve_coupled_steady_state(
                net, pm, np.full(64, 3.0), act, np.ones(64, dtype=bool)
            )

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(damping=1.5), "damping"),
            (dict(freq_ghz=-1.0), "freq_ghz must be non-negative"),
            (dict(activity=1.5), "activity must lie in"),
            (dict(leakage_scale=0.0), "variation_scale must be positive"),
        ],
    )
    def test_range_checks_keep_their_messages(self, setup, kwargs, match):
        net, pm = setup
        args = dict(
            freq_ghz=3.0, activity=0.5, leakage_scale=1.0, damping=0.6
        )
        args.update(kwargs)
        with pytest.raises(ValueError, match=match):
            solve_coupled_steady_state_batch(
                net, pm,
                np.full((2, 64), args["freq_ghz"]),
                np.full((2, 64), args["activity"]),
                np.ones((2, 64), dtype=bool),
                damping=args["damping"],
                leakage_scale=np.full((2, 64), args["leakage_scale"]),
            )

    def test_shape_mismatch(self, setup):
        net, pm = setup
        with pytest.raises(ValueError, match="share shape"):
            solve_coupled_steady_state_batch(
                net, pm, np.zeros((2, 64)), np.zeros((3, 64)),
                np.ones((2, 64), dtype=bool),
            )
        with pytest.raises(ValueError, match="shape"):
            solve_coupled_steady_state(
                net, pm, np.zeros(63), np.zeros(64), np.ones(64, dtype=bool)
            )

    def test_empty_batch(self, setup):
        net, pm = setup
        temps, breakdown = solve_coupled_steady_state_batch(
            net, pm, np.zeros((0, 64)), np.zeros((0, 64)),
            np.zeros((0, 64), dtype=bool),
        )
        assert temps.shape == (0, 64)
        assert breakdown.dynamic_w.shape == (0, 64)
        assert breakdown.leakage_w.shape == (0, 64)


def _solve_counted(solver, *args, **kwargs):
    """Run a solver under a fresh registry: ``(outcome, counters)``.

    ``outcome`` is ``(temps, dynamic_w, leakage_w)``, or
    :class:`ThermalRunawayError` when the solver raised it.
    """
    registry = MetricsRegistry()
    with use_registry(registry):
        try:
            temps, breakdown = solver(*args, **kwargs)
        except ThermalRunawayError as error:
            outcome = type(error)
        else:
            outcome = (temps, breakdown.dynamic_w, breakdown.leakage_w)
    return outcome, registry.snapshot().counters


def assert_same_solve(got, want):
    """Bit equality of two :func:`_solve_counted` results."""
    (got_out, got_counters), (want_out, want_counters) = got, want
    assert got_counters == want_counters
    if isinstance(want_out, type):
        assert got_out is want_out
        return
    for got_arr, want_arr in zip(got_out, want_out):
        assert got_arr.shape == want_arr.shape
        assert np.array_equal(got_arr, want_arr)


def _random_states(rng, rows, hot=False):
    """``rows`` random chip states: DCMs, frequencies and activities."""
    on = rng.random((rows, 64)) < rng.uniform(0.3, 0.9)
    freq = rng.uniform(1.5, 4.0, (rows, 64)) * on
    act = rng.uniform(0.1, 1.0, (rows, 64)) * on
    if hot:
        on[:] = True
        freq[:] = 4.0
        act[:] = 1.0
    return freq, act, on


@pytest.fixture(scope="module")
def recorded_states(aging_table):
    """Coupled-solve inputs recorded from a short batched VAA run."""
    calls = []
    real = batch_module.solve_coupled_steady_state_batch

    def record(network, power_model, freq, act, on, **kwargs):
        calls.append((freq.copy(), act.copy(), on.copy(), kwargs["leakage_scale"]))
        return real(network, power_model, freq, act, on, **kwargs)

    cfg = SimulationConfig(
        lifetime_years=1.0, epoch_years=0.5, dark_fraction_min=0.5,
        window_s=3.0, seed=5,
    )
    ctxs = [
        ChipContext(chip, aging_table, dark_fraction_min=0.5)
        for chip in generate_population(3, seed=17)
    ]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(batch_module, "solve_coupled_steady_state_batch", record)
        BatchLifetimeSimulator(cfg).run(ctxs, VAAManager())
    assert calls
    return ctxs[0].network, ctxs[0].power_model, calls


class TestMatchesReference:
    """The kernel reproduces the per-pass power-model loops of
    ``tests/coupled_reference.py`` bit for bit, counters included."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("rows", [0, 1, 3, 8])
    @pytest.mark.parametrize("explicit_scale", [False, True])
    def test_random_batches(self, setup, population, seed, rows, explicit_scale):
        net, pm = setup
        rng = np.random.default_rng([seed, rows])
        freq, act, on = _random_states(rng, rows)
        kwargs = {}
        if explicit_scale:
            chips = rng.integers(len(population), size=rows)
            kwargs["leakage_scale"] = np.array(
                [population[c].leakage_scale for c in chips]
            ).reshape(rows, 64)
        assert_same_solve(
            _solve_counted(
                solve_coupled_steady_state_batch, net, pm, freq, act, on, **kwargs
            ),
            _solve_counted(reference_solve_batch, net, pm, freq, act, on, **kwargs),
        )

    def test_recorded_settle_states(self, recorded_states):
        net, pm, calls = recorded_states
        for freq, act, on, scale in calls:
            assert_same_solve(
                _solve_counted(
                    solve_coupled_steady_state_batch, net, pm, freq, act, on,
                    leakage_scale=scale,
                ),
                _solve_counted(
                    reference_solve_batch, net, pm, freq, act, on,
                    leakage_scale=scale,
                ),
            )

    @pytest.mark.parametrize("hot", [False, True])
    def test_all_dark_and_all_on_hot_rows(self, setup, hot):
        net, pm = setup
        rng = np.random.default_rng(11)
        freq, act, on = _random_states(rng, 3, hot=hot)
        if not hot:
            on[:] = False
        assert_same_solve(
            _solve_counted(solve_coupled_steady_state_batch, net, pm, freq, act, on),
            _solve_counted(reference_solve_batch, net, pm, freq, act, on),
        )

    def test_limit_cycle_fake(self):
        net, pm = _KinkedNetwork(), _kinked_power()
        scale = np.ones((3, net.num_cores))
        scale[1] = 0.25
        freq, act, on = _kinked_inputs(scale)
        got = _solve_counted(
            solve_coupled_steady_state_batch, net, pm, freq, act, on,
            leakage_scale=scale,
        )
        assert got[1]["thermal.coupled_damping_halvings"] == 2
        assert_same_solve(
            got,
            _solve_counted(
                reference_solve_batch, net, pm, freq, act, on, leakage_scale=scale
            ),
        )
        assert_same_solve(
            _solve_counted(solve_coupled_steady_state, net, pm, freq[0], act[0], on[0]),
            _solve_counted(reference_solve, net, pm, freq[0], act[0], on[0]),
        )

    @pytest.mark.parametrize(
        "kwargs", [dict(max_iter=2), dict(tol_k=0.0, max_iter=20)]
    )
    def test_failing_solves_raise_alike(self, setup, kwargs):
        """``max_iter=2`` runs out before converging, ``tol_k=0`` never
        converges; both raise after the same passes and halvings."""
        net, pm = setup
        freq, act, on = _random_states(np.random.default_rng(3), 3, hot=True)
        got = _solve_counted(
            solve_coupled_steady_state_batch, net, pm, freq, act, on, **kwargs
        )
        assert got[0] is ThermalRunawayError
        assert got[1]["thermal.coupled_damping_halvings"] == 3 * 3
        assert_same_solve(
            got, _solve_counted(reference_solve_batch, net, pm, freq, act, on, **kwargs)
        )
        scalar = _solve_counted(
            solve_coupled_steady_state, net, pm, freq[0], act[0], on[0], **kwargs
        )
        assert scalar[0] is ThermalRunawayError
        assert_same_solve(
            scalar,
            _solve_counted(reference_solve, net, pm, freq[0], act[0], on[0], **kwargs),
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_scalar_matches_reference_and_one_row_batch(self, setup, seed):
        net, pm = setup
        freq, act, on = _random_states(np.random.default_rng(seed), 1)
        scalar = _solve_counted(
            solve_coupled_steady_state, net, pm, freq[0], act[0], on[0]
        )
        assert_same_solve(
            scalar,
            _solve_counted(reference_solve, net, pm, freq[0], act[0], on[0]),
        )
        one_row = _solve_counted(
            solve_coupled_steady_state_batch, net, pm, freq, act, on
        )
        assert_same_solve(
            scalar,
            ((one_row[0][0][0], one_row[0][1][0], one_row[0][2][0]), one_row[1]),
        )
