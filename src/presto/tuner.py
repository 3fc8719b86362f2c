"""Particle swarm optimizer for the observer/controller design gains.

Plain global-best PSO: each particle keeps its best visited position, the
swarm shares one global best, and velocities blend inertia with draws
toward both.  Specifics that pin the behavior down:

* draws for generation g, particle i come from an independent stream seeded
  by (seed, g, i), so results are bit-reproducible no matter how fitness
  evaluations are scheduled; results are always reduced in particle order;
* velocities are clamped per dimension, positions are clamped to the search
  box with the offending velocity component zeroed (absorbing boundary);
* each generation evaluates current positions first and moves afterwards,
  so a single-generation run reports the best of the initial placements;
* non-finite fitness values count as +inf.

The stock fitness for gain tuning runs one closed-loop scenario with the
candidate gains patched in and scores it by settling time, with an
unsettled or divergent run penalized by horizon plus peak state excursion
so the ordering stays total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

if TYPE_CHECKING:
    from .harness import Scenario

__all__ = [
    "PsoConfig",
    "Particle",
    "PsoResult",
    "TuneTemplate",
    "DEFAULT_TUNE_BOXES",
    "velocity_update",
    "position_update",
    "pso_run",
    "fitness_settling_time",
]

# search boxes for tunable gains when a job does not give its own;
# chosen to contain the reference scenario's published values
DEFAULT_TUNE_BOXES: dict[str, tuple[float, float]] = {
    "k": (1e-3, 20.0),
    "beta0": (1e-3, 20.0),
    "eps": (1e-3, 20.0),
    "alpha1": (1e-3, 200.0),
    "beta1": (1e-3, 20.0),
    "delta": (1e-3, 10.0),
    "mu": (1e-6, 0.1),
    "tau": (1e-3, 10.0),
}


@dataclass(frozen=True)
class PsoConfig:
    """Swarm setup: box, size, coefficients, speed caps, seed.

    v_max defaults to 0.2 * (hi - lo) per dimension.  W, C1, C2 default to
    the usual constriction-flavored constants; they are artifact defaults,
    not tuned values.
    """

    bounds: tuple[tuple[float, float], ...]
    swarm_size: int = 20
    max_generations: int = 100
    seed: int = 0
    W: float = 0.72
    C1: float = 1.49
    C2: float = 1.49
    v_max: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.swarm_size < 2:
            raise ValueError("swarm_size must be >= 2")
        if self.max_generations < 1:
            raise ValueError("max_generations must be >= 1")
        if not (self.C1 > 0.0 and self.C2 > 0.0):
            raise ValueError("learning coefficients C1, C2 must be > 0")
        for lo, hi in self.bounds:
            if not (lo < hi):
                raise ValueError(f"bad search box [{lo}, {hi}]")
        if self.v_max is not None:
            if len(self.v_max) != len(self.bounds):
                raise ValueError("v_max must match the box dimension")
            if any(v <= 0.0 for v in self.v_max):
                raise ValueError("v_max entries must be > 0")

    @property
    def n_dims(self) -> int:
        return len(self.bounds)

    def speed_caps(self) -> np.ndarray:
        if self.v_max is not None:
            return np.asarray(self.v_max, dtype=float)
        box = np.asarray(self.bounds, dtype=float)
        return 0.2 * (box[:, 1] - box[:, 0])


@dataclass
class Particle:
    X: np.ndarray
    V: np.ndarray
    P_best: np.ndarray
    P_best_cost: float = math.inf


@dataclass
class PsoResult:
    best_x: np.ndarray
    best_cost: float
    history: list[float] = field(default_factory=list)


def _stream(seed: int, generation: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, generation, index]))


def velocity_update(
    p: Particle, G: np.ndarray, cfg: PsoConfig, rng: np.random.Generator
) -> np.ndarray:
    """New velocity: inertia plus random pulls toward both bests, clamped.

    v' = W*v + r1*C1*(P_best - X) + r2*C2*(G - X), with r1, r2 uniform
    per-dimension draws in [0, 1], then |v'_i| <= v_max_i.
    """
    r1 = rng.random(cfg.n_dims)
    r2 = rng.random(cfg.n_dims)
    v = cfg.W * p.V + r1 * cfg.C1 * (p.P_best - p.X) + r2 * cfg.C2 * (G - p.X)
    caps = cfg.speed_caps()
    return np.clip(v, -caps, caps)


def position_update(
    p: Particle, v_new: np.ndarray, cfg: PsoConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Move by the new velocity, then clamp to the box.

    Returns (position, velocity): any component clamped at a box face has
    its velocity zeroed, a simple deterministic absorbing boundary.
    """
    box = np.asarray(cfg.bounds, dtype=float)
    x_raw = p.X + v_new
    x = np.clip(x_raw, box[:, 0], box[:, 1])
    v = np.where(x == x_raw, v_new, 0.0)
    return x, v


def _sanitize_cost(c) -> float:
    try:
        v = float(c)
    except (TypeError, ValueError):
        return math.inf
    return v if math.isfinite(v) else math.inf


def pso_run(fitness: Callable[[np.ndarray], float], cfg: PsoConfig) -> PsoResult:
    """Run the swarm loop and return the global best with its cost history.

    Each generation: evaluate all positions in particle-index order,
    refresh personal and global bests, record the global best cost, then move every particle.  The
    recorded history is nonincreasing by construction.
    """
    box = np.asarray(cfg.bounds, dtype=float)
    caps = cfg.speed_caps()
    particles: list[Particle] = []
    for i in range(cfg.swarm_size):
        rng = _stream(cfg.seed, 0, i)
        x = box[:, 0] + rng.random(cfg.n_dims) * (box[:, 1] - box[:, 0])
        v = (2.0 * rng.random(cfg.n_dims) - 1.0) * caps
        particles.append(Particle(X=x, V=v, P_best=x.copy()))

    g_best: np.ndarray | None = None
    g_cost = math.inf
    history: list[float] = []
    for gen in range(1, cfg.max_generations + 1):
        costs = [_sanitize_cost(fitness(p.X)) for p in particles]
        for p, c in zip(particles, costs):
            if c < p.P_best_cost:
                p.P_best_cost = c
                p.P_best = p.X.copy()
            if c < g_cost:
                g_cost = c
                g_best = p.X.copy()
        history.append(g_cost)
        if gen == cfg.max_generations:
            break
        for i, p in enumerate(particles):
            rng = _stream(cfg.seed, gen, i)
            v = velocity_update(p, g_best, cfg, rng)
            p.X, p.V = position_update(p, v, cfg)
    assert g_best is not None
    return PsoResult(best_x=g_best, best_cost=g_cost, history=history)


@dataclass(frozen=True)
class TuneTemplate:
    """A scenario plus the ordered names of the gains the vector patches."""

    scenario: "Scenario"
    names: tuple[str, ...]

    def __post_init__(self):
        unknown = set(self.names) - set(DEFAULT_TUNE_BOXES)
        if unknown:
            raise ValueError(f"cannot tune {sorted(unknown)}; tunable: "
                             f"{sorted(DEFAULT_TUNE_BOXES)}")


def fitness_settling_time(design_vector: Sequence[float], template: TuneTemplate) -> float:
    """Cost of one candidate gain vector: closed-loop settling time.

    Nonpositive entries fail the positivity gate and cost +inf without
    simulating.  An unsettled or divergent run costs horizon plus the peak
    state magnitude reached, so every candidate is comparable.  Exponent
    pairs are never part of the vector; they are discrete, gate-constrained
    quantities and stay fixed in the template.
    """
    from . import harness  # local import; harness depends on this module's siblings

    vec = [float(v) for v in design_vector]
    if len(vec) != len(template.names):
        raise ValueError(f"vector has {len(vec)} entries for {len(template.names)} names")
    if any(v <= 0.0 for v in vec):
        return math.inf
    sc = _patch_scenario(template.scenario, dict(zip(template.names, vec)))
    try:
        trace, report = harness.run_scenario(sc)
    except harness.DivergenceError as err:
        peak = min(err.peak, 1e6)
        return sc.horizon + peak
    if report.t_s is None:
        x1 = trace.column("x1")
        x2 = trace.column("x2")
        peak = float(np.max(np.maximum(np.abs(x1), np.abs(x2))))
        return sc.horizon + peak
    return report.t_s


def _patch_scenario(scenario, updates: dict[str, float]):
    obs_keys = {k: v for k, v in updates.items() if k in ("k", "beta0", "eps")}
    ctl_keys = {
        k: v for k, v in updates.items() if k in ("alpha1", "beta1", "delta", "mu", "tau")
    }
    sc = scenario
    if obs_keys:
        if sc.observer is None:
            raise ValueError("template scenario has no observer to tune")
        sc = replace(sc, observer=replace(sc.observer, **obs_keys))
    if ctl_keys:
        if sc.tsmc is None:
            raise ValueError("template scenario has no sliding-mode gains to tune")
        tg = sc.tsmc
        kw = {}
        if "alpha1" in ctl_keys:
            kw["alphas"] = (ctl_keys["alpha1"],) + tg.alphas[1:]
        if "beta1" in ctl_keys:
            kw["betas"] = (ctl_keys["beta1"],) + tg.betas[1:]
        for name in ("delta", "mu", "tau"):
            if name in ctl_keys:
                kw[name] = ctl_keys[name]
        sc = replace(sc, tsmc=replace(tg, **kw))
    return sc
