"""Keyed-text configuration files for scenarios, tuning jobs, comparisons.

One flat INI-style file per job, one section per subsystem:

    [scenario]    kind, x0, dt, horizon, decimation, seed, metric rule...
    [plant]       K1, K2, g          (direct coefficients; preferred)
    [beam]        alpha, beta, lambda, quadrature_points, mass_term
    [disturbance] terms = A kind rate; ...   and/or table_file = path.csv
    [observer]    k, beta0, eps, p0, q0, z0_offset, smooth_sgn_width
    [controller]  alpha1, beta1, p1, q1, p2, q2, delta, mu, tau, u_min, u_max
    [smc]         Y, eta, Kg, K1_min, K1_max, K1_nominal
    [ekf]         Ts, q_diag, r, p0_diag, x0_hat
    [pso]         swarm_size, generations, seed, w, c1, c2, vmax_fraction,
                  tune = name lo hi; ...
    [compare]     scenarios = a.cfg, b.cfg, ...   labels = A, B, ...

Scenario kinds pull in their required sections and reject configs missing
them.  The environment variable PRESTO_SEED, when set, overrides every
scenario seed loaded through this module.  Config names that are not
existing paths fall back to the bundled files under presto/configs.
"""

from __future__ import annotations

import configparser
import os
from importlib import resources
from pathlib import Path

import numpy as np

from .controller import SatBounds, SmcGains, TsmcGains
from .estimator import EkfConfig
from .harness import Scenario
from .mathcore import ExponentPair
from .observer import ObserverGains
from .plant import BeamParams, DisturbanceSpec, DisturbanceTerm, PlantParams, galerkin_coefficients
from .tuner import DEFAULT_TUNE_BOXES, PsoConfig, TuneTemplate

__all__ = [
    "ConfigError",
    "resolve_config_path",
    "load_scenario",
    "load_compare_entries",
    "load_pso_job",
    "load_beam_params",
]


class ConfigError(ValueError):
    """Configuration file missing, malformed, or inconsistent."""


def resolve_config_path(name: str | Path) -> Path:
    """Existing path as-is; otherwise fall back to a bundled config name."""
    p = Path(name)
    if p.exists():
        return p
    stem = p.name if p.name.endswith(".cfg") else p.name + ".cfg"
    bundled = resources.files("presto").joinpath("configs").joinpath(stem)
    try:
        if bundled.is_file():
            return Path(str(bundled))
    except (OSError, TypeError):
        pass
    raise ConfigError(f"config file not found: {name}")


def _read(path: Path) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    loaded = cp.read(path)
    if not loaded:
        raise ConfigError(f"cannot read config file {path}")
    return cp


def _get_float(cp, section, key, default=None) -> float:
    try:
        if default is not None and not cp.has_option(section, key):
            return default
        return cp.getfloat(section, key)
    except (configparser.Error, ValueError) as err:
        raise ConfigError(f"[{section}] {key}: {err}") from err


def _get_int(cp, section, key, default=None) -> int:
    try:
        if default is not None and not cp.has_option(section, key):
            return default
        return cp.getint(section, key)
    except (configparser.Error, ValueError) as err:
        raise ConfigError(f"[{section}] {key}: {err}") from err


def _floats(raw: str) -> list[float]:
    return [float(tok) for tok in raw.replace(",", " ").split()]


def _require(cp, section, path):
    if not cp.has_section(section):
        raise ConfigError(f"{path}: missing required section [{section}]")


def load_beam_params(cp_or_path, section: str = "beam") -> BeamParams:
    cp = _read(resolve_config_path(cp_or_path)) if not isinstance(
        cp_or_path, configparser.ConfigParser
    ) else cp_or_path
    if not cp.has_section(section):
        raise ConfigError(f"missing [{section}] section")
    return BeamParams(
        alpha=_get_float(cp, section, "alpha"),
        beta=_get_float(cp, section, "beta"),
        lam=_get_float(cp, section, "lambda", 1.0),
        quadrature_points=_get_int(cp, section, "quadrature_points", 64),
    )


def _load_plant(cp, path) -> PlantParams:
    if cp.has_section("plant"):
        try:
            return PlantParams(
                K1=_get_float(cp, "plant", "K1"),
                K2=_get_float(cp, "plant", "K2"),
                g=_get_float(cp, "plant", "g"),
            )
        except ValueError as err:
            raise ConfigError(f"{path}: [plant]: {err}") from err
    if cp.has_section("beam"):
        bp = load_beam_params(cp)
        mass_term = cp.get("beam", "mass_term", fallback="as_printed")
        return galerkin_coefficients(bp, mass_term)
    raise ConfigError(f"{path}: needs a [plant] or [beam] section")


def _load_disturbance(cp, path) -> DisturbanceSpec:
    if not cp.has_section("disturbance"):
        return DisturbanceSpec()
    terms = []
    raw = cp.get("disturbance", "terms", fallback="").strip()
    if raw:
        for chunk in raw.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            parts = chunk.split()
            if len(parts) != 3:
                raise ConfigError(
                    f"{path}: disturbance term {chunk!r} is not 'amplitude kind rate'"
                )
            try:
                terms.append(
                    DisturbanceTerm(amplitude=float(parts[0]), kind=parts[1], rate=float(parts[2]))
                )
            except ValueError as err:
                raise ConfigError(f"{path}: disturbance term {chunk!r}: {err}") from err
    table = None
    table_file = cp.get("disturbance", "table_file", fallback="").strip()
    if table_file:
        table_path = Path(table_file)
        if not table_path.is_absolute():
            table_path = path.parent / table_path
        data = np.loadtxt(table_path, delimiter=",", ndmin=2)
        table = (tuple(data[:, 0]), tuple(data[:, 1]))
    return DisturbanceSpec(terms=tuple(terms), table=table)


def _load_observer(cp, path) -> ObserverGains:
    _require(cp, "observer", path)
    try:
        return ObserverGains(
            k=_get_float(cp, "observer", "k"),
            beta0=_get_float(cp, "observer", "beta0"),
            eps=_get_float(cp, "observer", "eps"),
            e0=ExponentPair(_get_int(cp, "observer", "p0"), _get_int(cp, "observer", "q0")),
            smooth_sgn_width=_get_float(cp, "observer", "smooth_sgn_width", 0.0),
        )
    except ValueError as err:
        raise ConfigError(f"{path}: [observer]: {err}") from err


def _load_tsmc(cp, path, saturated: bool) -> TsmcGains:
    _require(cp, "controller", path)
    sat = None
    tau = None
    if cp.has_option("controller", "u_min") or cp.has_option("controller", "u_max"):
        try:
            sat = SatBounds(
                u_min=_get_float(cp, "controller", "u_min"),
                u_max=_get_float(cp, "controller", "u_max"),
            )
        except ValueError as err:
            raise ConfigError(f"{path}: [controller] saturation: {err}") from err
    if cp.has_option("controller", "tau"):
        tau = _get_float(cp, "controller", "tau")
    if saturated and (sat is None or tau is None):
        raise ConfigError(f"{path}: saturated kinds need tau, u_min and u_max")
    try:
        return TsmcGains(
            alphas=(_get_float(cp, "controller", "alpha1"),),
            betas=(_get_float(cp, "controller", "beta1"),),
            exps=(
                ExponentPair(_get_int(cp, "controller", "p1"), _get_int(cp, "controller", "q1")),
                ExponentPair(_get_int(cp, "controller", "p2"), _get_int(cp, "controller", "q2")),
            ),
            delta=_get_float(cp, "controller", "delta"),
            mu=_get_float(cp, "controller", "mu"),
            tau=tau,
            sat=sat,
        )
    except ValueError as err:
        raise ConfigError(f"{path}: [controller]: {err}") from err


def _load_smc(cp, path) -> tuple[SmcGains, float]:
    _require(cp, "smc", path)
    try:
        gains = SmcGains(
            Y=_get_float(cp, "smc", "Y"),
            eta=_get_float(cp, "smc", "eta"),
            Kg=_get_float(cp, "smc", "Kg"),
            K1_min=_get_float(cp, "smc", "K1_min"),
            K1_max=_get_float(cp, "smc", "K1_max"),
        )
    except ValueError as err:
        raise ConfigError(f"{path}: [smc]: {err}") from err
    nominal = _get_float(cp, "smc", "K1_nominal")
    return gains, nominal


def _load_ekf(cp, path) -> EkfConfig:
    _require(cp, "ekf", path)
    try:
        q = _floats(cp.get("ekf", "q_diag"))
        p0 = _floats(cp.get("ekf", "p0_diag"))
        x0 = _floats(cp.get("ekf", "x0_hat"))
        if len(q) != 3 or len(p0) != 3 or len(x0) != 3:
            raise ValueError("q_diag, p0_diag and x0_hat each need three entries")
        return EkfConfig(
            Ts=_get_float(cp, "ekf", "Ts"),
            Q=np.diag(q),
            R=_get_float(cp, "ekf", "r"),
            P0=np.diag(p0),
            x0_hat=np.array(x0),
        )
    except (ValueError, configparser.Error) as err:
        raise ConfigError(f"{path}: [ekf]: {err}") from err


def load_scenario(name: str | Path) -> Scenario:
    """Load and validate one scenario config; PRESTO_SEED overrides the seed."""
    path = resolve_config_path(name)
    cp = _read(path)
    _require(cp, "scenario", path)
    kind = cp.get("scenario", "kind", fallback="").strip()
    x0_raw = _floats(cp.get("scenario", "x0", fallback="1.0 5.0"))
    if len(x0_raw) != 2:
        raise ConfigError(f"{path}: x0 needs two entries")
    seed = _get_int(cp, "scenario", "seed", 0)
    env_seed = os.environ.get("PRESTO_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError as err:
            raise ConfigError(f"PRESTO_SEED={env_seed!r} is not an integer") from err

    saturated = kind in ("tsmc_saturated", "adaptive_tsmc_saturated")
    tsmc = observer = ekf = smc = None
    smc_nominal = None
    if kind == "smc_baseline":
        smc, smc_nominal = _load_smc(cp, path)
    elif kind in ("tsmc", "tsmc_saturated", "adaptive_tsmc_saturated"):
        tsmc = _load_tsmc(cp, path, saturated)
        observer = _load_observer(cp, path)
        if kind == "adaptive_tsmc_saturated":
            ekf = _load_ekf(cp, path)
    else:
        raise ConfigError(f"{path}: unknown scenario kind {kind!r}")

    z0 = 0.0
    if cp.has_section("observer"):
        z0 = _get_float(cp, "observer", "z0_offset", 0.0)
    try:
        return Scenario(
            kind=kind,
            plant=_load_plant(cp, path),
            disturbance=_load_disturbance(cp, path),
            x0=(x0_raw[0], x0_raw[1]),
            dt=_get_float(cp, "scenario", "dt", 1e-4),
            horizon=_get_float(cp, "scenario", "horizon", 8.0),
            decimation=_get_int(cp, "scenario", "decimation", 10),
            seed=seed,
            tsmc=tsmc,
            observer=observer,
            ekf=ekf,
            smc=smc,
            smc_k1_nominal=smc_nominal,
            threshold_fraction=_get_float(cp, "scenario", "threshold_fraction", 0.02),
            hold_duration=_get_float(cp, "scenario", "hold_duration", 0.5),
            integrator=cp.get("scenario", "integrator", fallback="euler").strip(),
            perfect_observer=cp.getboolean("scenario", "perfect_observer", fallback=False),
            z0_offset=z0,
            process_noise=cp.getboolean("scenario", "process_noise", fallback=False),
            label=cp.get("scenario", "label", fallback=path.stem),
        )
    except ValueError as err:
        raise ConfigError(f"{path}: {err}") from err


def load_compare_entries(names: list[str | Path]) -> list[tuple[str, Scenario]]:
    """Expand config names into labeled scenarios for a comparison run.

    A config carrying a [compare] section expands to its listed scenario
    files (resolved relative to it); anything else loads as one scenario.
    """
    entries: list[tuple[str, Scenario]] = []
    for name in names:
        path = resolve_config_path(name)
        cp = _read(path)
        if cp.has_section("compare"):
            files = [s.strip() for s in cp.get("compare", "scenarios").split(",") if s.strip()]
            labels_raw = cp.get("compare", "labels", fallback="")
            labels = [s.strip() for s in labels_raw.split(",") if s.strip()]
            if labels and len(labels) != len(files):
                raise ConfigError(f"{path}: labels must match scenarios one-for-one")
            for idx, fname in enumerate(files):
                sub = Path(fname)
                if not sub.is_absolute() and (path.parent / sub).exists():
                    sub = path.parent / sub
                sc = load_scenario(sub)
                label = labels[idx] if labels else sc.label
                entries.append((label, sc))
        else:
            sc = load_scenario(path)
            entries.append((sc.label, sc))
    return entries


def load_pso_job(name: str | Path) -> tuple[PsoConfig, TuneTemplate]:
    """Load a tuning job: the base scenario plus the swarm setup.

    The tune key lists gains as 'name lo hi' triples separated by
    semicolons; a bare name takes its default search box.
    """
    path = resolve_config_path(name)
    cp = _read(path)
    _require(cp, "pso", path)
    scenario = load_scenario(path)
    raw = cp.get("pso", "tune", fallback="").strip()
    if not raw:
        raise ConfigError(f"{path}: [pso] tune must list at least one gain")
    names: list[str] = []
    bounds: list[tuple[float, float]] = []
    for chunk in raw.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split()
        gain = parts[0]
        if gain not in DEFAULT_TUNE_BOXES:
            raise ConfigError(
                f"{path}: cannot tune {gain!r}; tunable: {sorted(DEFAULT_TUNE_BOXES)}"
            )
        if len(parts) == 1:
            box = DEFAULT_TUNE_BOXES[gain]
        elif len(parts) == 3:
            box = (float(parts[1]), float(parts[2]))
        else:
            raise ConfigError(f"{path}: tune entry {chunk!r} is not 'name [lo hi]'")
        names.append(gain)
        bounds.append(box)
    vmax_fraction = _get_float(cp, "pso", "vmax_fraction", 0.2)
    v_max = tuple(vmax_fraction * (hi - lo) for lo, hi in bounds)
    try:
        cfg = PsoConfig(
            bounds=tuple(bounds),
            swarm_size=_get_int(cp, "pso", "swarm_size", 20),
            max_generations=_get_int(cp, "pso", "generations", 40),
            seed=_get_int(cp, "pso", "seed", 0),
            W=_get_float(cp, "pso", "w", 0.72),
            C1=_get_float(cp, "pso", "c1", 1.49),
            C2=_get_float(cp, "pso", "c2", 1.49),
            v_max=v_max,
        )
    except ValueError as err:
        raise ConfigError(f"{path}: [pso]: {err}") from err
    return cfg, TuneTemplate(scenario=scenario, names=tuple(names))
