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
    [compare]     scenarios = a.cfg, b.cfg, ...

A line is a [section] header alone, key = value, a full-line '#' comment
or blank; an indented line continues the value above it.  No other
delimiter or inline comment exists.  A list has one separator: ',' between
numbers (x0, q_diag, p0_diag, x0_hat) and [compare] files, ';' between
disturbance terms and tune boxes.  Values are literal: a '%' needs no
escaping.  The label, the file's stem by default, names output files, so
it must be printable (no line break), not '', '.' or '..', and hold no
'/', '\\' or ','.

Each section feeds one library type, which holds the checks: [beam]
BeamParams, [observer] ObserverGains, [controller] TsmcGains (u_min, u_max
as its SatBounds), [disturbance] DisturbanceSpec, [smc] SmcGains, [ekf]
EkfConfig, [pso] PsoConfig, and [scenario] the Scenario around them.  A
key the file omits takes the default of the field it feeds, for instance
x0 = 1.0, 5.0.  A file may set only the keys its loaders ask for
(case-folded): any other key, a section nothing reads, or [DEFAULT] is an
error.  A scenario file with [pso] loads as a tuning job, and a file with
[beam] and neither [scenario] nor [compare] is beam data only.  A config
name is read where it points, and a [compare] entry beside its [compare]
file; a bare name, a str with no directory part, that is no regular file
there falls back to the bundled file of that name under presto/configs.  A
pathlib.Path never falls back, since it cannot tell "./s71.cfg" from
"s71.cfg".  Files are UTF-8, with or without a byte-order mark.
"""

from __future__ import annotations

import configparser
import difflib
import os
import re
from pathlib import Path

from .controller import SatBounds, SmcGains, TsmcGains
from .estimator import EkfConfig
from .harness import KINDS, Scenario, check_labels
from .mathcore import ExponentPair
from .observer import ObserverGains
from .plant import BeamParams, DisturbanceSpec, DisturbanceTerm, PlantParams
from .plant import galerkin_coefficients
from .tuner import PsoConfig, TuneTemplate

__all__ = ["ConfigError", "resolve_config_path", "load_scenario", "load_compare_entries",
           "load_pso_job", "load_beam_params", "load_config"]


class ConfigError(ValueError):
    """Configuration file missing, malformed, or inconsistent."""


def _resolve(path: str | Path, entry: str | Path) -> Path:
    """path if it is a regular file; else, when entry is a bare name, a str
    with no directory part, the bundled config of entry's file name.  A Path
    entry is never bare: Path("./s71.cfg") drops the "./" that keeps it local."""
    if Path(path).is_file():
        return Path(path)
    if isinstance(entry, str) and not os.path.dirname(entry):
        bundled = Path(__file__).with_name("configs") / f"{entry.removesuffix('.cfg')}.cfg"
        if bundled.is_file():
            return bundled
    raise ConfigError(f"config file not found: {path}")


def resolve_config_path(name: str | Path) -> Path:
    """A regular file as-is; a bare name (a str) that is none, the bundled config."""
    return _resolve(name, name)


class _Parser(configparser.ConfigParser):
    """A parser that records every key a loader asks for, by section.

    `asked[section]` maps each case-folded key to the spelling the loader
    used, for the suggestion in an unknown-key error.  `_get` and `_given`
    ask through `has_option` before they read a key.
    """

    # a header line holds nothing after its ']'
    SECTCRE = re.compile(r"\[(?P<header>[^]]+)\]$")

    def __init__(self):
        super().__init__(delimiters=("=",), comment_prefixes=("#",), interpolation=None)
        self.asked: dict[str, dict[str, str]] = {}

    def has_option(self, section, option):
        self.asked.setdefault(section, {}).setdefault(self.optionxform(option), option)
        return super().has_option(section, option)


def _syntax(err: configparser.Error, text: str) -> str:
    """configparser's refusal of the file's syntax, on one line."""
    if isinstance(err, configparser.DuplicateOptionError):
        return f"[{err.section}] {err.option}: set twice (line {err.lineno})"
    if isinstance(err, configparser.DuplicateSectionError):
        return f"[{err.section}]: set twice (line {err.lineno})"
    if isinstance(err, configparser.MissingSectionHeaderError):
        return f"line {err.lineno}: {err.line.strip()!r} comes before any [section] header"
    if isinstance(err, configparser.ParsingError):
        # err.errors holds each bad line as its message prints it, newline
        # and all; the first is looked up in the text and quoted plainly
        lineno = err.errors[0][0]
        line = text.split("\n")[lineno - 1]
        return f"line {lineno}: {line.strip()!r} is neither a [section] header nor key = value"
    return str(err)


def _read(path: Path) -> _Parser:
    cp = _Parser()
    try:
        text = path.read_text(encoding="utf-8-sig")
        cp.read_string(text, source=str(path))
    except configparser.Error as err:
        raise ConfigError(f"{path}: {_syntax(err, text)}") from err
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path}: not UTF-8 text: {err}") from err
    if cp.defaults():
        # configparser would copy these keys into every section
        raise ConfigError(f"{path}: [{cp.default_section}]: not supported; "
                          "set each key in the section that reads it")
    return cp


def _open(name: str | Path) -> tuple[Path, _Parser]:
    """The file a config name resolves to, read once."""
    path = resolve_config_path(name)
    return path, _read(path)


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


def _in_file(path: Path, cp: _Parser, build):
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
    return tuple(float(tok.strip()) for tok in raw.split(","))


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
    return _in_file(*_open(name), lambda cp, _: _beam(cp))


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
    return _in_file(*_open(name), _scenario_file)


def _members(cp, path: Path) -> list[Path]:
    """The files a [compare] file lists, each looked up beside it."""
    def files(raw: str) -> list[Path]:
        entries = [s.strip() for s in raw.split(",") if s.strip()]
        if not entries:
            raise ValueError("lists no scenario file")
        return [_resolve(path.parent / entry, entry) for entry in entries]
    return _get(cp, "compare", "scenarios", files)


def _scenarios(files) -> list[Scenario]:
    """The scenarios of read files: a [compare] file's listed files, any
    other file its own; no two labels may match, and none may be 'report'."""
    scenarios = []
    for path, cp in files:
        if not cp.has_section("compare"):
            scenarios.append(_in_file(path, cp, _scenario_file))
            continue
        scenarios += [_in_file(m, _read(m), _scenario_file) for m in _in_file(path, cp, _members)]
    try:
        check_labels([sc.label for sc in scenarios])
    except ValueError as err:
        raise ConfigError(str(err)) from err
    return scenarios


def load_compare_entries(names: list[str | Path]) -> list[Scenario]:
    """Expand config names into the scenarios of a comparison run: a
    [compare] file's listed files, any other file its own scenario.  No two
    labels may match, and none may be 'report', the table's file stem."""
    return _scenarios(map(_open, names))


def load_config(name: str | Path) -> tuple[Path, BeamParams | list[Scenario]]:
    """The file a config name resolves to, and what it holds: its beam data
    when it has [beam] and neither [scenario] nor [compare], else its
    scenarios as `load_compare_entries` gives them.  Each file is read once."""
    path, cp = _open(name)
    if cp.has_section("beam") and not (cp.has_section("scenario") or cp.has_section("compare")):
        return path, _in_file(path, cp, lambda cp, _: _beam(cp))
    return path, _scenarios([(path, cp)])


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
    """Load a tuning job: the base scenario plus the swarm setup."""
    return _in_file(*_open(name), _pso_job)
