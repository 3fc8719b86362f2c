import math
from dataclasses import replace

import numpy as np
import pytest

from presto.config import load_pso_job
from presto.tuner import (
    Particle,
    PsoConfig,
    fitness_settling_time,
    position_update,
    pso_run,
    velocity_update,
)


class FixedRng:
    """Feeds predetermined uniform draws to velocity_update."""

    def __init__(self, *values):
        self.values = list(values)

    def random(self, n):
        return np.full(n, self.values.pop(0))


def sphere_cfg(seed=0, swarm=20, gens=100):
    return PsoConfig(
        bounds=((-5.0, 5.0), (-5.0, 5.0), (-5.0, 5.0)),
        swarm_size=swarm,
        max_generations=gens,
        seed=seed,
    )


CENTER = np.array([0.5, -1.2, 2.3])


def sphere(x):
    return float(np.sum((x - CENTER) ** 2))


class TestVelocityUpdate:
    def test_pure_inertia(self):
        cfg = PsoConfig(bounds=((-10.0, 10.0),), W=1.0, C1=1e-12, C2=1e-12,
                        v_max=(100.0,))
        p = Particle(X=np.array([1.0]), V=np.array([2.5]), P_best=np.array([1.0]))
        v = velocity_update(p, np.array([1.0]), cfg, FixedRng(0.0, 0.0))
        assert v[0] == pytest.approx(2.5)

    def test_attraction_vanishes_at_both_bests(self):
        cfg = PsoConfig(bounds=((-10.0, 10.0),), W=0.5, v_max=(100.0,))
        x = np.array([3.0])
        p = Particle(X=x, V=np.array([1.0]), P_best=x.copy())
        v = velocity_update(p, x.copy(), cfg, FixedRng(0.7, 0.9))
        assert v[0] == pytest.approx(0.5)

    def test_pinned_draw_arithmetic(self):
        # W*v + r1*C1*(P-X) + r2*C2*(G-X) = 0.7 + 1 + 1 = 2.7 before clamping
        cfg = PsoConfig(bounds=((-10.0, 10.0),), W=0.7, C1=2.0, C2=2.0, v_max=(100.0,))
        p = Particle(X=np.array([0.0]), V=np.array([1.0]), P_best=np.array([1.0]))
        v = velocity_update(p, np.array([1.0]), cfg, FixedRng(0.5, 0.5))
        assert v[0] == pytest.approx(2.7)

    def test_speed_cap(self):
        cfg = PsoConfig(bounds=((-10.0, 10.0),), W=1.0, C1=10.0, C2=10.0, v_max=(0.5,))
        p = Particle(X=np.array([0.0]), V=np.array([5.0]), P_best=np.array([10.0]))
        v = velocity_update(p, np.array([10.0]), cfg, FixedRng(1.0, 1.0))
        assert abs(v[0]) <= 0.5


class TestPositionUpdate:
    def test_zero_velocity(self):
        cfg = PsoConfig(bounds=((-1.0, 6.0),))
        p = Particle(X=np.array([5.0]), V=np.zeros(1), P_best=np.array([5.0]))
        x, v = position_update(p, np.zeros(1), cfg)
        assert x[0] == 5.0 and v[0] == 0.0

    def test_boundary_absorbs_velocity(self):
        cfg = PsoConfig(bounds=((-1.0, 6.0),))
        p = Particle(X=np.array([5.0]), V=np.zeros(1), P_best=np.array([5.0]))
        x, v = position_update(p, np.array([2.0]), cfg)
        assert x[0] == 6.0 and v[0] == 0.0

    def test_vector_addition(self):
        cfg = PsoConfig(bounds=((-10.0, 10.0), (-10.0, 10.0)))
        p = Particle(X=np.array([1.0, 1.0]), V=np.zeros(2), P_best=np.array([1.0, 1.0]))
        x, v = position_update(p, np.array([0.5, -0.5]), cfg)
        assert x == pytest.approx([1.5, 0.5])
        assert v == pytest.approx([0.5, -0.5])


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

        def probe(x):
            calls.append(x.copy())
            return sphere(x)

        cfg = PsoConfig(bounds=((-5.0, 5.0),) * 3, swarm_size=2, max_generations=1, seed=3)
        res = pso_run(probe, cfg)
        assert len(calls) == 2
        assert res.best_cost == pytest.approx(min(sphere(c) for c in calls))

    def test_seeded_determinism(self):
        a = pso_run(sphere, sphere_cfg(seed=9, gens=30))
        b = pso_run(sphere, sphere_cfg(seed=9, gens=30))
        assert a.history == b.history
        assert np.array_equal(a.best_x, b.best_x)

    def test_nonfinite_fitness_becomes_infinite_cost(self):
        def holed(x):
            return math.nan if x[0] > 0 else sphere(x)

        res = pso_run(holed, sphere_cfg(seed=6, gens=20))
        assert math.isfinite(res.best_cost)
        assert res.best_x[0] <= 0

    def test_numpy_scalar_fitness_is_accepted(self):
        def np_sphere(x):
            return np.sum((x - CENTER) ** 2)  # np.float64, not float

        res = pso_run(np_sphere, sphere_cfg(seed=2, gens=40))
        assert res.best_cost < 1e-2

    def test_box_and_speed_invariants_hold_throughout(self):
        cfg = PsoConfig(bounds=((-1.0, 2.0), (0.5, 3.5)), swarm_size=6,
                        max_generations=15, seed=8)
        seen = []

        def watcher(x):
            seen.append(x.copy())
            return float(np.sum(x**2))

        pso_run(watcher, cfg)
        box = np.asarray(cfg.bounds)
        for x in seen:
            assert np.all(x >= box[:, 0] - 1e-12)
            assert np.all(x <= box[:, 1] + 1e-12)


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
        short = replace(template.scenario, horizon=0.05, hold_duration=0.5)
        tpl = replace(template, scenario=short)
        cost = fitness_settling_time([4.0, 7.0, 10.0], tpl)
        assert cost > short.horizon

    def test_vector_length_checked(self, job):
        _, template = job
        with pytest.raises(ValueError):
            fitness_settling_time([1.0], template)
