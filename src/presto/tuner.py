"""Particle swarm optimizer for the observer/controller design gains.

Plain global-best PSO: each particle keeps its best visited position, the
swarm shares one global best, and velocities blend inertia with draws
toward both.  The swarm is held in arrays with one row per particle and one
column per gain: positions X, velocities V and personal bests P.  The
velocity and position laws act on the whole swarm at once.  Specifics that
pin the behavior down:

* draws for generation g, particle i come from an independent stream seeded
  by (seed, g, i), so results are bit-reproducible no matter how fitness
  evaluations are scheduled; results are always reduced in particle order;
* velocities are clamped per dimension, positions are clamped to the search
  box with the offending velocity component zeroed (absorbing boundary);
* each generation evaluates current positions first and moves afterwards,
  so a single-generation run reports the best of the initial placements;
* non-finite fitness values count as +inf;
* each evaluation is passed a bound, the particle's personal-best cost
  (+inf in generation 1).  Costs are only ever compared with a strict `<`,
  and the global best never exceeds a personal best, so a cost at or above
  the bound changes no best and no history entry.  A fitness may therefore
  return any value >= bound once it knows its cost is not below it
  (adaptive capping, as in ParamILS: Hutter et al., JAIR 36, 2009).

A tuning job names each gain it tunes with that gain's own search box;
`TUNABLE` lists the gains it may name.

The stock fitness for gain tuning runs one closed-loop scenario with the
candidate gains patched in and scores it by settling time; an unsettled run
costs horizon plus its peak state magnitude and a divergent one horizon
plus 1e6, so the ordering stays total.  A run that settles stops at its
first settling window: the tail is not simulated, so a divergence after
settling is not scored.  A run whose settling time can no longer beat the
bound stops too, and is scored as unsettled over the prefix it simulated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from . import harness
from .mathcore import linf_norm

__all__ = [
    "PsoConfig",
    "PsoResult",
    "TuneTemplate",
    "TUNABLE",
    "W",
    "C1",
    "C2",
    "VMAX_FRACTION",
    "velocity_update",
    "position_update",
    "pso_run",
    "fitness_settling_time",
]

# tunable gains of ObserverGains; the rest belong to TsmcGains
_OBSERVER_GAINS = ("k", "beta0", "eps")
# every gain a tuning job may name, each with its own search box
TUNABLE = _OBSERVER_GAINS + ("alpha1", "beta1", "delta", "mu", "tau")
# inertia, the pulls toward the personal and global bests, and each gain's speed
# cap as a fraction of its box width: the usual constriction-flavored constants
W, C1, C2, VMAX_FRACTION = 0.72, 1.49, 1.49, 0.2


@dataclass(frozen=True)
class PsoConfig:
    """Swarm setup: one finite search box per tuned gain, size, budget, seed.

    The swarm's own coefficients are the module constants W, C1, C2 and
    VMAX_FRACTION.
    """

    bounds: tuple[tuple[float, float], ...]
    swarm_size: int = 20
    max_generations: int = 40
    seed: int = 0

    def __post_init__(self):
        if not self.bounds:
            raise ValueError("[pso] tune: must give at least one search box")
        if self.swarm_size < 2:
            raise ValueError(f"[pso] swarm_size: must be >= 2, got {self.swarm_size}")
        if self.max_generations < 1:
            raise ValueError(f"[pso] generations: must be >= 1, got {self.max_generations}")
        if self.seed < 0:
            raise ValueError(f"[pso] seed: must be >= 0, got {self.seed}")
        for lo, hi in self.bounds:
            if not (0.0 < hi - lo < math.inf):  # finite edges, lo < hi, a finite width
                raise ValueError(f"[pso] tune: search box [{lo}, {hi}] must be finite "
                                 "with lo < hi")

    @property
    def n_dims(self) -> int:
        return len(self.bounds)


@dataclass
class PsoResult:
    best_x: np.ndarray
    best_cost: float
    history: list[float] = field(default_factory=list)


def _draws(seed: int, generation: int, shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Two swarm-shaped arrays of uniform draws in [0, 1); row i of each comes,
    in that order, from the independent stream seeded by (seed, generation, i)."""
    swarm_size, n_dims = shape
    R = np.array([np.random.default_rng(np.random.SeedSequence([seed, generation, i]))
                  .random((2, n_dims)) for i in range(swarm_size)])
    return R[:, 0], R[:, 1]


def velocity_update(X: np.ndarray, V: np.ndarray, P: np.ndarray, G: np.ndarray,
                    R1: np.ndarray, R2: np.ndarray, caps: np.ndarray) -> np.ndarray:
    """New velocities of the whole swarm: inertia plus random pulls toward
    each particle's best P and the global best G, clamped.

    V' = W*V + R1*C1*(P - X) + R2*C2*(G - X), with R1, R2 the uniform draws,
    then clamped per dimension to [-caps, caps].
    """
    return np.clip(W * V + R1 * C1 * (P - X) + R2 * C2 * (G - X), -caps, caps)


def position_update(X: np.ndarray, V: np.ndarray, lo: np.ndarray,
                    hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Move the whole swarm by V, then clamp to the box [lo, hi].

    Returns (positions, velocities): any component clamped at a box face has
    its velocity zeroed, a simple deterministic absorbing boundary.
    """
    x_raw = X + V
    x = np.clip(x_raw, lo, hi)
    return x, np.where(x == x_raw, V, 0.0)


def _sanitize_cost(c) -> float:
    try:
        v = float(c)
    except (TypeError, ValueError):
        return math.inf
    return v if math.isfinite(v) else math.inf


def pso_run(fitness: Callable[[np.ndarray, float], float], cfg: PsoConfig) -> PsoResult:
    """Run the swarm loop and return the global best with its cost history.

    Each generation: evaluate all positions in particle-index order,
    refresh personal and global bests, record the global best cost, then
    move every particle.  The recorded history is nonincreasing by
    construction.  `fitness(x, bound)` gets the particle's personal-best
    cost as `bound` (+inf in generation 1); it may return any value
    >= bound in place of a cost it knows is not below it, and the result
    is the same as with exact costs.  While every cost is +inf, the global
    best is particle 0's first position.
    """
    lo, hi = np.asarray(cfg.bounds, dtype=float).T
    caps = VMAX_FRACTION * (hi - lo)
    shape = (cfg.swarm_size, cfg.n_dims)
    U1, U2 = _draws(cfg.seed, 0, shape)
    X = lo + U1 * (hi - lo)
    V = (2.0 * U2 - 1.0) * caps
    P, p_cost = X.copy(), [math.inf] * cfg.swarm_size
    G, g_cost = X[0].copy(), math.inf
    history: list[float] = []
    for gen in range(1, cfg.max_generations + 1):
        for i in range(cfg.swarm_size):
            c = _sanitize_cost(fitness(X[i], p_cost[i]))
            if c < p_cost[i]:
                p_cost[i] = c
                P[i] = X[i]
            if c < g_cost:
                g_cost = c
                G = X[i].copy()
        history.append(g_cost)
        if gen == cfg.max_generations:
            break
        R1, R2 = _draws(cfg.seed, gen, shape)
        X, V = position_update(X, velocity_update(X, V, P, G, R1, R2, caps), lo, hi)
    return PsoResult(best_x=G, best_cost=g_cost, history=history)


@dataclass(frozen=True)
class TuneTemplate:
    """A scenario plus the ordered names of the gains the vector patches.

    At least one name, none twice, and every name must be a gain the
    scenario has: the observer gains need an observer, the others
    sliding-mode gains, and tau a saturated kind.  So `smc_baseline` cannot
    be tuned.  `cutoff` is the bound `fitness_settling_time` may stop a run
    at; `presto tune` sets it to each evaluation's `pso_run` bound.
    """

    scenario: harness.Scenario
    names: tuple[str, ...]
    cutoff: float = math.inf

    def __post_init__(self):
        unknown = set(self.names) - set(TUNABLE)
        if unknown:
            raise ValueError(f"[pso] tune: cannot tune {sorted(unknown)}; "
                             f"tunable: {sorted(TUNABLE)}")
        if not self.names:
            raise ValueError("[pso] tune: must name at least one gain to tune")
        twice = [name for name in self.names if self.names.count(name) > 1]
        if twice:
            raise ValueError(f"[pso] tune: gain {twice[0]!r} is listed twice; "
                             "list each gain once")
        sc = self.scenario
        if sc.observer is None and set(self.names) & set(_OBSERVER_GAINS):
            raise ValueError("[pso] tune: template scenario has no observer to tune")
        if sc.tsmc is None and set(self.names) - set(_OBSERVER_GAINS):
            raise ValueError("[pso] tune: template scenario has no sliding-mode gains to tune")
        if sc.kind == "tsmc" and "tau" in self.names:
            raise ValueError("[pso] tune: cannot tune 'tau' on kind tsmc: it has no saturated "
                             "input map")


def fitness_settling_time(design_vector: Sequence[float], template: TuneTemplate) -> float:
    """Cost of one candidate gain vector: closed-loop settling time.

    Nonpositive entries fail the positivity gate and cost +inf without
    simulating.  Otherwise the candidate is one scenario, the template's
    with the named gains and its `settle_by` bound set in a single
    `replace`, so it is built and checked once.  A settled run stops at its
    first settling window and costs its settling time; the tail is not
    simulated, so a divergence after settling is not scored.  An unsettled
    run costs horizon plus its peak state magnitude (the larger of the x1
    and x2 `linf_norm`s), a divergent one horizon + 1e6 (DIVERGENCE_LIMIT).
    Exponent pairs are never part of the vector; they are discrete,
    gate-constrained quantities fixed in the template.

    With `template.cutoff` below the horizon, the run also stops once no
    settling window can start before the cutoff (`Scenario.settle_by`).
    Such a capped run costs horizon plus the peak over the simulated
    prefix: more than the cutoff, as its uncapped cost is too, though not
    that cost.  Every cost below the cutoff is the uncapped cost exactly.  A
    cutoff at or past the horizon caps nothing, since an unsettled run's
    cost may still lie below it.  This is the `pso_run` bound contract;
    the two-argument call shape stays, so the bound travels in the template.
    """
    vec = [float(v) for v in design_vector]
    if len(vec) != len(template.names):
        raise ValueError(f"vector has {len(vec)} entries for {len(template.names)} names")
    if any(v <= 0.0 for v in vec):
        return math.inf
    gains = dict(zip(template.names, vec))
    observer = {name: gains.pop(name) for name in _OBSERVER_GAINS if name in gains}
    base = template.scenario
    sc = replace(base, observer=replace(base.observer, **observer),
                 tsmc=replace(base.tsmc, **gains),
                 settle_by=template.cutoff if template.cutoff < base.horizon else math.inf)
    try:
        trace, report = harness.run_scenario(sc)
    except harness.DivergenceError:
        return sc.horizon + harness.DIVERGENCE_LIMIT
    if report.t_s is None:
        return sc.horizon + max(linf_norm(trace, "x1"), linf_norm(trace, "x2"))
    return report.t_s
