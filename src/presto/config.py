"""Keyed-text configuration files for scenarios, tuning jobs, comparisons.

One flat INI-style file per job, one section per subsystem:

    [scenario]    kind, x0, dt, horizon, decimation, seed,
                  threshold_fraction, label
    [plant]       K1, K2, g          (direct coefficients; preferred)
    [beam]        alpha, beta, lambda
    [disturbance] terms = A kind rate; ...
    [observer]    k, beta0, eps, p0, q0
    [controller]  alpha1, beta1, p1, q1, p2, q2, delta, mu, tau, u_min, u_max
    [smc]         Y, Kg, K1_min, K1_max, K1_nominal
    [ekf]         Ts, q_diag, r, p0_diag, x0_hat
    [pso]         swarm_size, generations, seed, tune = name lo hi; ...
    [compare]     scenarios = a.cfg, b.cfg, ...   labels = ...

This module only reads keys and parses their text.  Each section feeds
one library type whose fields hold the values the file gives, unconverted:
[beam] BeamParams, [observer] ObserverGains, [controller] TsmcGains
(u_min, u_max as its SatBounds), [disturbance] DisturbanceSpec, [smc]
SmcGains, [ekf] EkfConfig and [pso] PsoConfig.  [scenario] feeds the
Scenario around them.  A key the file omits is not passed on, so it takes
the default of the field it feeds, for instance x0 = 1.0, 5.0 or [pso]
generations = 40.  The checks live on those types too.  Values are
literal: a '%' needs no escaping.  Every [pso] tune entry names its
gain's search box.  Scenario kinds pull in their required sections and
reject configs missing them.  A file may set only the keys its loaders
ask for (case-folded): any other key, a section nothing reads, or
[DEFAULT] is an error.  A scenario file with [pso] always loads as a
tuning job, and a file with [beam] and neither [scenario] nor [compare]
is beam data only.  Config names that are not existing paths fall
back to the bundled files under presto/configs.
"""

from __future__ import annotations

import configparser
import difflib
from dataclasses import replace
from pathlib import Path

from .controller import SatBounds, SmcGains, TsmcGains
from .estimator import EkfConfig
from .harness import KINDS, Scenario, check_labels
from .mathcore import ExponentPair
from .observer import ObserverGains
from .plant import BeamParams, DisturbanceSpec, DisturbanceTerm, PlantParams
from .plant import galerkin_coefficients
from .tuner import PsoConfig, TuneTemplate

__all__ = [
    "ConfigError",
    "resolve_config_path",
    "load_scenario",
    "load_compare_entries",
    "load_pso_job",
    "load_beam_params",
    "is_beam_file",
]


class ConfigError(ValueError):
    """Configuration file missing, malformed, or inconsistent."""


def resolve_config_path(name: str | Path) -> Path:
    """Existing path as-is; otherwise fall back to a bundled config name."""
    p = Path(name)
    if p.exists():
        return p
    stem = p.name if p.name.endswith(".cfg") else p.name + ".cfg"
    bundled = Path(__file__).with_name("configs") / stem
    if bundled.is_file():
        return bundled
    raise ConfigError(f"config file not found: {name}")


class _Parser(configparser.ConfigParser):
    """A parser that records every key a loader asks for, by section.

    `asked[section]` maps each case-folded key to the spelling the loader
    used, for the suggestion in an unknown-key error.  `_get` and `_given`
    ask through `has_option` before they read a key.
    """

    def __init__(self):
        super().__init__(inline_comment_prefixes=("#", ";"), interpolation=None)
        self.asked: dict[str, dict[str, str]] = {}

    def has_option(self, section, option):
        self.asked.setdefault(section, {}).setdefault(self.optionxform(option), option)
        return super().has_option(section, option)


def _syntax(err: configparser.Error, path: Path) -> str:
    """configparser's refusal of the file's syntax, on one line."""
    if isinstance(err, configparser.DuplicateOptionError):
        return f"[{err.section}] {err.option}: set twice (line {err.lineno})"
    if isinstance(err, configparser.DuplicateSectionError):
        return f"[{err.section}]: set twice (line {err.lineno})"
    if isinstance(err, configparser.MissingSectionHeaderError):
        return f"line {err.lineno}: {err.line.strip()!r} comes before any [section] header"
    if isinstance(err, configparser.ParsingError):
        # err.errors holds each bad line as its message prints it, newline
        # and all; the first is read back from the file and quoted plainly
        lineno = err.errors[0][0]
        line = path.read_text(encoding="utf-8").split("\n")[lineno - 1]
        return f"line {lineno}: {line.strip()!r} is neither a [section] header nor key = value"
    return str(err)


def _read(path: Path) -> _Parser:
    cp = _Parser()
    try:
        loaded = cp.read(str(path), encoding="utf-8")
    except configparser.Error as err:
        raise ConfigError(f"{path}: {_syntax(err, path)}") from err
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path}: not UTF-8 text: {err}") from err
    if not loaded:
        raise ConfigError(f"cannot read config file {path}")
    if cp.defaults():
        # configparser would copy these keys into every section
        raise ConfigError(f"{path}: [{cp.default_section}]: not supported; "
                          "set each key in the section that reads it")
    return cp


def _unread(cp: _Parser) -> str:
    """The first section or key of the file that no loader asked for, else ''."""
    for section in cp.sections():
        known = cp.asked.get(section)
        if known is None:
            read = ", ".join(f"[{name}]" for name in cp.sections() if name in cp.asked)
            return f"[{section}]: unused section; this file reads {read}"
        for key in cp.options(section):
            if key not in known:
                near = difflib.get_close_matches(key, known, n=1)
                hint = (f"did you mean {known[near[0]]}?" if near
                        else "known keys: " + ", ".join(known.values()))
                return f"[{section}] {key}: unknown key; {hint}"
    return ""


def _misspelled(cp: _Parser) -> str:
    """After a failed load, an unread key close to one the loader asked for
    and did not find, as an unknown-key message, else ''.

    Keys the loader had not reached yet may be valid, so the 0.8 cutoff
    sits above every pair of keys one section reads (q_diag/p0_diag: 0.77).
    """
    for section, known in cp.asked.items():
        present = cp.options(section) if cp.has_section(section) else []
        absent = {key: spelled for key, spelled in known.items() if key not in present}
        for key in (key for key in present if key not in known):
            near = difflib.get_close_matches(key, absent, n=1, cutoff=0.8)
            if near:
                return f"[{section}] {key}: unknown key; did you mean {absent[near[0]]}?"
    return ""


def _in_file(path: Path, build, cp: _Parser):
    """build(cp, path), then `_unread`; the path prefixes any error once, and
    `_misspelled` names the key a failed build may have missed."""
    try:
        out = build(cp, path)
    except ValueError as err:
        hint = _misspelled(cp)
        raise ConfigError(f"{path}: {err}" + (f"; {hint}" if hint else "")) from err
    if unread := _unread(cp):
        raise ConfigError(f"{path}: {unread}")
    return out


def _get(cp, section: str, key: str, conv=float):
    """One required key, converted; every failure names [section] key."""
    if not cp.has_section(section):
        raise ConfigError(f"missing required section [{section}]")
    if not cp.has_option(section, key):
        raise ConfigError(f"missing required key [{section}] {key}")
    try:
        return conv(cp.get(section, key))
    except ValueError as err:
        raise ConfigError(f"[{section}] {key}: {err}") from err


def _given(cp, section: str, keys: dict) -> dict:
    """The keys the file sets, converted and named by the field they feed.

    Each key maps to its converter, or to (field, converter) when the field
    has another name.  An omitted key is left out, so the field's own
    default applies.
    """
    out = {}
    for key, spec in keys.items():
        if cp.has_option(section, key):
            field, conv = spec if isinstance(spec, tuple) else (key, spec)
            out[field] = _get(cp, section, key, conv)
    return out


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in raw.replace(",", " ").split())


def _names(raw: str) -> list[str]:
    return [s.strip() for s in raw.split(",") if s.strip()]


def _terms(raw: str) -> tuple[DisturbanceTerm, ...]:
    terms = []
    for chunk in filter(None, (c.strip() for c in raw.split(";"))):
        parts = chunk.split()
        if len(parts) != 3:
            raise ValueError(f"disturbance term {chunk!r} is not 'amplitude kind rate'")
        try:
            terms.append(DisturbanceTerm(float(parts[0]), parts[1], float(parts[2])))
        except ValueError as err:
            raise ValueError(f"disturbance term {chunk!r}: {err}") from err
    return tuple(terms)


def _tune(raw: str) -> list[tuple[str, tuple[float, float]]]:
    """'name lo hi' entries separated by semicolons."""
    entries = []
    for chunk in raw.split(";"):
        parts = chunk.split()
        if len(parts) == 3:
            entries.append((parts[0], (float(parts[1]), float(parts[2]))))
        elif parts:
            raise ValueError(f"entry {chunk.strip()!r} is not 'name lo hi'")
    if not entries:
        raise ValueError("must list at least one gain")
    return entries


def _beam(cp) -> BeamParams:
    return BeamParams(
        alpha=_get(cp, "beam", "alpha"),
        beta=_get(cp, "beam", "beta"),
        **_given(cp, "beam", {"lambda": ("lam", float)}),
    )


def load_beam_params(name: str | Path) -> BeamParams:
    """Beam data of a file holding only [beam]."""
    path = resolve_config_path(name)
    return _in_file(path, lambda cp, _: _beam(cp), _read(path))


def is_beam_file(name: str | Path) -> bool:
    """Whether the file has [beam] and neither [scenario] nor [compare], so it
    loads only as beam data."""
    cp = _read(resolve_config_path(name))
    return cp.has_section("beam") and not (cp.has_section("scenario")
                                           or cp.has_section("compare"))


def _load_plant(cp) -> PlantParams:
    if cp.has_section("plant"):
        return PlantParams(**{key: _get(cp, "plant", key) for key in ("K1", "K2", "g")})
    if cp.has_section("beam"):
        return galerkin_coefficients(_beam(cp))
    raise ConfigError("needs a [plant] or [beam] section")


def _pair(cp, section: str, p: str, q: str) -> ExponentPair:
    """The exponent pair of keys p and q; a refusal names both."""
    pair = _get(cp, section, p, int), _get(cp, section, q, int)
    try:
        return ExponentPair(*pair)
    except ValueError as err:
        raise ConfigError(f"[{section}] {p}, {q}: {err}") from err


def _load_observer(cp) -> ObserverGains:
    o = "observer"
    return ObserverGains(
        k=_get(cp, o, "k"),
        beta0=_get(cp, o, "beta0"),
        eps=_get(cp, o, "eps"),
        e0=_pair(cp, o, "p0", "q0"),
    )


def _load_tsmc(cp) -> TsmcGains:
    c = "controller"
    optional = _given(cp, c, {"tau": float})
    if cp.has_option(c, "u_min") or cp.has_option(c, "u_max"):
        optional["sat"] = SatBounds(u_min=_get(cp, c, "u_min"), u_max=_get(cp, c, "u_max"))
    return TsmcGains(
        alpha1=_get(cp, c, "alpha1"),
        beta1=_get(cp, c, "beta1"),
        e1=_pair(cp, c, "p1", "q1"),
        e2=_pair(cp, c, "p2", "q2"),
        delta=_get(cp, c, "delta"),
        mu=_get(cp, c, "mu"),
        **optional,
    )


def _load_ekf(cp) -> EkfConfig:
    e = "ekf"
    return EkfConfig(
        Ts=_get(cp, e, "Ts"),
        q_diag=_get(cp, e, "q_diag", _floats),
        R=_get(cp, e, "r"),
        p0_diag=_get(cp, e, "p0_diag", _floats),
        x0_hat=_get(cp, e, "x0_hat", _floats),
    )


_SCENARIO_KEYS = {
    "x0": _floats,
    "dt": float,
    "horizon": float,
    "decimation": int,
    "seed": int,
    "threshold_fraction": float,
    "label": str,
}


def _scenario(cp, path: Path) -> Scenario:
    kind = _get(cp, "scenario", "kind", str)
    fields = {"label": path.stem, **_given(cp, "scenario", _SCENARIO_KEYS)}
    if kind == "smc_baseline":
        keys = ("Y", "Kg", "K1_min", "K1_max", "K1_nominal")
        fields["smc"] = SmcGains(**{key: _get(cp, "smc", key) for key in keys})
    elif kind in KINDS:
        fields["tsmc"] = _load_tsmc(cp)
        fields["observer"] = _load_observer(cp)
        if kind == "adaptive_tsmc_saturated":
            fields["ekf"] = _load_ekf(cp)
    disturbance = DisturbanceSpec(**_given(cp, "disturbance", {"terms": _terms}))
    return Scenario(kind=kind, plant=_load_plant(cp), disturbance=disturbance, **fields)


def _scenario_file(cp, path: Path) -> Scenario:
    """The file's scenario; a tuning job's is its template, read with the job."""
    if cp.has_section("pso"):
        return _pso_job(cp, path)[1].scenario
    return _scenario(cp, path)


def load_scenario(name: str | Path) -> Scenario:
    """Load and validate one scenario config."""
    path = resolve_config_path(name)
    return _in_file(path, _scenario_file, _read(path))


def _compare_members(cp, path: Path) -> list[tuple[str, str | None]]:
    files = _get(cp, "compare", "scenarios", _names)
    if not files:
        raise ConfigError("[compare] scenarios: lists no scenario file")
    labels = _given(cp, "compare", {"labels": _names}).get("labels")
    if labels and len(labels) != len(files):
        raise ConfigError("labels must match scenarios one-for-one")
    return list(zip(files, labels or [None] * len(files)))


def load_compare_entries(names: list[str | Path]) -> list[Scenario]:
    """Expand config names into the scenarios of a comparison run.

    A config carrying a [compare] section expands to its listed scenario
    files (resolved relative to it); anything else loads as one scenario.
    A [compare] labels entry relabels its scenario.  No two labels may
    match, and none may be 'report', the stem of the comparison table's files.
    """
    scenarios: list[Scenario] = []
    for name in names:
        path = resolve_config_path(name)
        cp = _read(path)
        if not cp.has_section("compare"):
            scenarios.append(_in_file(path, _scenario_file, cp))
            continue
        for fname, label in _in_file(path, _compare_members, cp):
            sub = path.parent / fname
            try:
                member = resolve_config_path(sub if sub.exists() else fname)
            except ConfigError as err:
                raise ConfigError(f"{path}: [compare] scenarios: {err}") from err
            sc = load_scenario(member)
            try:
                scenarios.append(sc if label is None else replace(sc, label=label))
            except ValueError as err:  # the label came from this key, not from [scenario]
                reason = str(err).removeprefix("[scenario] label: ")
                raise ConfigError(f"{path}: [compare] labels: {reason}") from err
    labels = [sc.label for sc in scenarios]
    try:
        check_labels(labels)
    except ValueError as err:
        twice = len(set(labels)) < len(labels)
        fix = "distinct [compare] labels" if twice else "another [compare] labels entry"
        raise ConfigError(f"{err}; set {fix}") from err
    return scenarios


def _pso_job(cp, path: Path) -> tuple[PsoConfig, TuneTemplate]:
    scenario = _scenario(cp, path)
    tune = _get(cp, "pso", "tune", _tune)
    names, bounds = zip(*tune)
    template = TuneTemplate(scenario=scenario, names=names)
    optional = _given(cp, "pso", {
        "swarm_size": int,
        "generations": ("max_generations", int),
        "seed": int,
    })
    cfg = PsoConfig(bounds=bounds, **optional)
    for name, (lo, hi) in tune:
        if not hi > 0.0:
            raise ConfigError(f"[pso] tune: {name} box [{lo}, {hi}] holds no gain > 0; "
                              "every tuned gain must be > 0")
    return cfg, template


def load_pso_job(name: str | Path) -> tuple[PsoConfig, TuneTemplate]:
    """Load a tuning job: the base scenario plus the swarm setup.

    The tune key lists gains as 'name lo hi' triples separated by
    semicolons: every tuned gain names its own search box.
    """
    path = resolve_config_path(name)
    return _in_file(path, _pso_job, _read(path))
