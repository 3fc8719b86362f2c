import math
from dataclasses import replace

import numpy as np
import pytest

from presto.config import load_pso_job, load_scenario
from presto.controller import SatBounds
from presto.harness import DIVERGENCE_LIMIT, DivergenceError, run_scenario
from presto.plant import PlantParams
from presto.tuner import (
    C1,
    C2,
    VMAX_FRACTION,
    W,
    PsoConfig,
    TuneTemplate,
    fitness_settling_time,
    position_update,
    pso_run,
    velocity_update,
)
from reference import reference_pso_run


def sphere_cfg(seed=0, swarm=20, gens=100):
    return PsoConfig(
        bounds=((-5.0, 5.0), (-5.0, 5.0), (-5.0, 5.0)),
        swarm_size=swarm,
        max_generations=gens,
        seed=seed,
    )


CENTER = np.array([0.5, -1.2, 2.3])


def sphere(x, bound):
    return float(np.sum((x - CENTER) ** 2))


def row(*values):
    """A swarm of one particle: a 1 x n array."""
    return np.array([values])


class TestVelocityUpdate:
    # a box of width 20 caps the speed at VMAX_FRACTION * 20 = 4
    CAPS = np.array([VMAX_FRACTION * 20.0])

    def test_pure_inertia(self):
        # zero draws leave only the inertia term
        v = velocity_update(row(1.0), row(2.5), row(3.0), np.array([-4.0]),
                            row(0.0), row(0.0), self.CAPS)
        assert v[0, 0] == W * 2.5

    def test_attraction_vanishes_at_both_bests(self):
        x = row(3.0)
        v = velocity_update(x, row(1.0), x.copy(), x[0].copy(), row(0.7), row(0.9), self.CAPS)
        assert v[0, 0] == W

    def test_pinned_draw_arithmetic(self):
        # W*v + r1*C1*(P-X) + r2*C2*(G-X) = 0.72 + 0.745 + 0.745 = 2.21, inside the cap
        v = velocity_update(row(0.0), row(1.0), row(1.0), np.array([1.0]),
                            row(0.5), row(0.5), self.CAPS)
        assert v[0, 0] == pytest.approx(W + 0.5 * C1 + 0.5 * C2)
        assert v[0, 0] == pytest.approx(2.21)

    def test_speed_cap(self):
        # 0.72*5 + 1.49*10 + 1.49*10 = 33.4 before clamping
        v = velocity_update(row(0.0), row(5.0), row(10.0), np.array([10.0]),
                            row(1.0), row(1.0), self.CAPS)
        assert v[0, 0] == VMAX_FRACTION * 20.0 == 4.0
        v = velocity_update(row(0.0), row(-5.0), row(-10.0), np.array([-10.0]),
                            row(1.0), row(1.0), self.CAPS)
        assert v[0, 0] == -4.0

    def test_rows_move_independently_under_one_global_best(self):
        # each row takes its own draws and personal best; G is shared
        X = np.array([[0.0], [2.0]])
        v = velocity_update(X, np.zeros((2, 1)), X.copy(), np.array([1.0]),
                            np.zeros((2, 1)), np.array([[0.5], [1.0]]), self.CAPS)
        assert v[:, 0].tolist() == [0.5 * C2, -C2]


class TestPositionUpdate:
    LO, HI = np.array([-1.0]), np.array([6.0])

    def test_zero_velocity(self):
        x, v = position_update(row(5.0), row(0.0), self.LO, self.HI)
        assert x[0, 0] == 5.0 and v[0, 0] == 0.0

    def test_boundary_absorbs_velocity(self):
        x, v = position_update(row(5.0), row(2.0), self.LO, self.HI)
        assert x[0, 0] == 6.0 and v[0, 0] == 0.0

    def test_vector_addition(self):
        lo, hi = np.array([-10.0, -10.0]), np.array([10.0, 10.0])
        x, v = position_update(row(1.0, 1.0), row(0.5, -0.5), lo, hi)
        assert x[0] == pytest.approx([1.5, 0.5])
        assert v[0] == pytest.approx([0.5, -0.5])

    def test_only_the_clamped_component_is_absorbed(self):
        # row 0 leaves the box below in dimension 0, row 1 stays inside
        lo, hi = np.array([-1.0, -1.0]), np.array([6.0, 6.0])
        x, v = position_update(np.array([[0.0, 0.0], [1.0, 1.0]]),
                               np.array([[-3.0, 2.0], [1.0, -1.0]]), lo, hi)
        assert x.tolist() == [[-1.0, 2.0], [2.0, 0.0]]
        assert v.tolist() == [[0.0, 2.0], [1.0, -1.0]]


class TestPsoRun:
    def test_sphere_converges(self):
        for seed in (0, 1, 2):
            res = pso_run(sphere, sphere_cfg(seed=seed))
            assert res.best_cost < 1e-4, f"seed {seed}: {res.best_cost}"

    def test_history_nonincreasing(self):
        res = pso_run(sphere, sphere_cfg(seed=5, gens=60))
        assert all(b <= a + 1e-18 for a, b in zip(res.history, res.history[1:]))
        assert len(res.history) == 60

    def test_single_generation_reports_initial_best(self):
        calls = []

        def probe(x, bound):
            calls.append(x.copy())
            return sphere(x, bound)

        cfg = PsoConfig(bounds=((-5.0, 5.0),) * 3, swarm_size=2, max_generations=1, seed=3)
        res = pso_run(probe, cfg)
        assert len(calls) == 2
        assert res.best_cost == pytest.approx(min(sphere(c, math.inf) for c in calls))

    def test_seeded_determinism(self):
        a = pso_run(sphere, sphere_cfg(seed=9, gens=30))
        b = pso_run(sphere, sphere_cfg(seed=9, gens=30))
        assert a.history == b.history
        assert np.array_equal(a.best_x, b.best_x)

    def test_nonfinite_fitness_becomes_infinite_cost(self):
        def holed(x, bound):
            return math.nan if x[0] > 0 else sphere(x, bound)

        res = pso_run(holed, sphere_cfg(seed=6, gens=20))
        assert math.isfinite(res.best_cost)
        assert res.best_x[0] <= 0

    def test_all_infinite_costs_keep_particle_zero(self):
        seen = []

        def nowhere(x, bound):
            seen.append(x.copy())
            return math.inf

        res = pso_run(nowhere, sphere_cfg(seed=4, swarm=3, gens=4))
        assert res.best_cost == math.inf
        assert res.history == [math.inf] * 4
        assert np.array_equal(res.best_x, seen[0])

    def test_empty_bounds_rejected(self):
        with pytest.raises(ValueError, match=r"\[pso\] tune: must give at least one"):
            PsoConfig(bounds=())

    def test_numpy_scalar_fitness_is_accepted(self):
        def np_sphere(x, bound):
            return np.sum((x - CENTER) ** 2)  # np.float64, not float

        res = pso_run(np_sphere, sphere_cfg(seed=2, gens=40))
        assert res.best_cost < 1e-2

    @pytest.mark.parametrize("n_dims,swarm,seed", [(1, 2, 0), (3, 5, 7), (6, 20, 11)])
    def test_matches_the_per_particle_reference_bit_for_bit(self, n_dims, swarm, seed):
        rng = np.random.default_rng(seed)
        lo = rng.uniform(-5.0, 1.0, n_dims)
        cfg = PsoConfig(bounds=tuple(zip(lo, lo + rng.uniform(0.5, 9.0, n_dims))),
                        swarm_size=swarm, max_generations=12, seed=seed)
        center = rng.uniform(-3.0, 3.0, n_dims)
        evals = {"array": [], "reference": []}

        def rugged(log):
            def fitness(x, bound):
                log.append((x.tobytes(), bound))
                # a hole of nan costs over the top fifth of the first box
                hole = x[0] > lo[0] + 0.8 * (cfg.bounds[0][1] - lo[0])
                return math.nan if hole else float(np.sum((x - center) ** 2 + np.sin(3 * x)))
            return fitness

        res = pso_run(rugged(evals["array"]), cfg)
        best_x, best_cost, history = reference_pso_run(rugged(evals["reference"]), cfg)
        assert evals["array"] == evals["reference"]
        assert res.best_x.tobytes() == best_x.tobytes()
        assert res.best_cost == best_cost and res.history == history

    def test_box_and_speed_invariants_hold_throughout(self):
        cfg = PsoConfig(bounds=((-1.0, 2.0), (0.5, 3.5)), swarm_size=6,
                        max_generations=15, seed=8)
        seen = []

        def watcher(x, bound):
            seen.append(x.copy())
            return float(np.sum(x**2))

        pso_run(watcher, cfg)
        box = np.asarray(cfg.bounds)
        for x in seen:
            assert np.all(x >= box[:, 0] - 1e-12)
            assert np.all(x <= box[:, 1] + 1e-12)
        # seen runs generation by generation, particle by particle
        steps = np.diff(np.reshape(seen, (15, 6, 2)), axis=0)
        assert np.all(np.abs(steps) <= VMAX_FRACTION * (box[:, 1] - box[:, 0]) + 1e-12)


@pytest.fixture(scope="module")
def job():
    return load_pso_job("tune_s71")


class TestSettlingFitness:

    def test_positivity_gate_short_circuits(self, job, monkeypatch):
        import presto.harness as harness

        def boom(sc):
            raise AssertionError("gate must reject before simulating")

        monkeypatch.setattr(harness, "run_scenario", boom)
        _, template = job
        assert fitness_settling_time([-1.0, 5.0, 5.0], template) == math.inf

    def test_reference_gains_cost_is_the_settling_time(self, job):
        _, template = job
        cost = fitness_settling_time([4.0, 7.0, 10.0], template)
        assert math.isfinite(cost)
        assert 0.1 < cost < template.scenario.horizon

    def test_unsettled_run_pays_horizon_plus_overshoot(self, job):
        _, template = job
        short = replace(template.scenario, horizon=0.05)
        tpl = replace(template, scenario=short)
        cost = fitness_settling_time([4.0, 7.0, 10.0], tpl)
        assert cost > short.horizon

    def test_divergent_run_pays_horizon_plus_the_limit(self):
        # an unstable spring under a clamp far too weak to hold it
        base = load_scenario("s72")
        bad = replace(base, plant=PlantParams(K1=-50.0, K2=-19.97, g=-1.09),
                      tsmc=replace(base.tsmc, sat=SatBounds(-0.1, 0.1)), horizon=4.0)
        template = TuneTemplate(scenario=bad, names=("k",))
        cost = fitness_settling_time([bad.observer.k], template)
        assert cost == bad.horizon + DIVERGENCE_LIMIT

    def test_vector_length_checked(self, job):
        _, template = job
        with pytest.raises(ValueError):
            fitness_settling_time([1.0], template)


def full_horizon_fitness(design_vector, template: TuneTemplate) -> float:
    """The settling-time cost from a run over the whole horizon, never stopped early."""
    vec = [float(v) for v in design_vector]
    if any(v <= 0.0 for v in vec):
        return math.inf
    sc = template.scenario
    gains = dict(zip(template.names, vec))
    observer = {k: v for k, v in gains.items() if k in ("k", "beta0", "eps")}
    controller = {k: v for k, v in gains.items() if k not in observer}
    sc = replace(sc, observer=replace(sc.observer, **observer),
                 tsmc=replace(sc.tsmc, **controller))
    assert sc.settle_by is None
    try:
        trace, report = run_scenario(sc)
    except DivergenceError:
        return sc.horizon + DIVERGENCE_LIMIT
    if report.t_s is None:
        envelope = np.maximum(np.abs(trace.column("x1")), np.abs(trace.column("x2")))
        return sc.horizon + float(np.max(envelope))
    return report.t_s


def assert_bound_contract(cost, exact, bound):
    """A cost below its bound is the full-horizon cost; any other cost and
    the full-horizon cost are both at or above the bound."""
    if cost < bound:
        assert cost == exact
    else:
        assert exact >= bound


class TestEarlyStopEquivalence:
    def test_pso_answer_is_bit_identical(self, job):
        cfg, template = job
        evals = []  # (bound, cost, full-horizon cost) of each capped evaluation

        def capped(x, bound):
            cost = fitness_settling_time(x, replace(template, cutoff=bound))
            evals.append((bound, cost, full_horizon_fitness(x, template)))
            return cost

        early = pso_run(capped, cfg)
        full = pso_run(lambda x, bound: full_horizon_fitness(x, template), cfg)
        assert len(evals) == cfg.swarm_size * cfg.max_generations
        for bound, cost, exact in evals:
            assert_bound_contract(cost, exact, bound)
        assert any(cost != exact for _, cost, exact in evals)  # some runs were capped
        assert np.array_equal(early.best_x, full.best_x)
        assert early.best_cost == full.best_cost
        assert early.history == full.history

    def test_random_six_gain_candidates(self, job):
        # settled and unsettled candidates alike cost the same without a
        # cutoff, and keep the bound contract under a random one
        _, base = job
        names = ("k", "beta0", "eps", "alpha1", "beta1", "delta")
        template = TuneTemplate(scenario=replace(base.scenario, horizon=2.0), names=names)
        box = np.array([(0.5, 20.0), (5.0, 20.0), (0.5, 20.0), (1.0, 150.0), (0.5, 15.0),
                        (0.5, 8.0)])
        rng = np.random.default_rng(6)
        settled = 0
        for _ in range(40):
            x = box[:, 0] + rng.random(len(names)) * (box[:, 1] - box[:, 0])
            exact = full_horizon_fitness(x, template)
            assert fitness_settling_time(x, template) == exact, x
            bound = float(rng.uniform(0.0, 1.5 * template.scenario.horizon))
            cost = fitness_settling_time(x, replace(template, cutoff=bound))
            assert_bound_contract(cost, exact, bound)
            settled += exact < template.scenario.horizon
        assert 0 < settled < 40


class TestTuneTemplate:
    @pytest.mark.parametrize(
        "name,names,message",
        [
            ("s71", ("warp",), "cannot tune"),
            ("s74", ("k",), "no observer to tune"),
            ("s74", ("alpha1",), "no sliding-mode gains to tune"),
            ("s71", ("k", "tau"), "cannot tune 'tau' on kind tsmc"),
            ("s71", (), "at least one gain"),
            ("s71", ("k", "eps", "k"), "gain 'k' is listed twice"),
        ],
    )
    def test_rejects_gains_the_scenario_lacks(self, name, names, message):
        with pytest.raises(ValueError, match=message):
            TuneTemplate(scenario=load_scenario(name), names=names)

    def test_saturated_kind_tunes_tau(self):
        template = TuneTemplate(scenario=load_scenario("s72"), names=("k", "tau"))
        assert template.names == ("k", "tau")
