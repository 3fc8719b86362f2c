import dataclasses
import math
import re
import textwrap
from pathlib import Path

import pytest

import presto.config
from presto.config import (
    ConfigError,
    load_beam_params,
    load_compare_entries,
    load_pso_job,
    load_scenario,
    resolve_config_path,
)
from presto.harness import Scenario
from presto.tuner import PsoConfig

MINIMAL_TSMC = """
[scenario]
kind = tsmc
x0 = 1.0, 5.0
dt = 1e-3
horizon = 0.5

[plant]
K1 = 97.4
K2 = -19.97
g = -1.09

[observer]
k = 4.0
beta0 = 7.0
eps = 10.0
p0 = 1
q0 = 7

[controller]
alpha1 = 100.0
beta1 = 9.0
delta = 5.0
mu = 1e-4
p1 = 3
q1 = 5
p2 = 1
q2 = 3
"""


def write_cfg(tmp_path, text, name="case.cfg"):
    p = tmp_path / name
    p.write_text(textwrap.dedent(text))
    return p


class TestBundledConfigs:
    @pytest.mark.parametrize(
        "name,kind",
        [
            ("s71", "tsmc"),
            ("s72", "tsmc_saturated"),
            ("s73", "adaptive_tsmc_saturated"),
            ("s74", "smc_baseline"),
        ],
    )
    def test_load(self, name, kind):
        sc = load_scenario(name)
        assert sc.kind == kind
        assert sc.label == name

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            resolve_config_path("does_not_exist_anywhere")


class TestScenarioParsing:
    def test_minimal_loads(self, tmp_path):
        sc = load_scenario(write_cfg(tmp_path, MINIMAL_TSMC))
        assert sc.kind == "tsmc"
        assert sc.disturbance.terms == ()
        assert sc.threshold_fraction == 0.02  # code default applies

    def test_missing_observer_section(self, tmp_path):
        text = MINIMAL_TSMC.replace("[observer]", "[observer_typo]")
        with pytest.raises(ConfigError, match=r"\[observer\]"):
            load_scenario(write_cfg(tmp_path, text))

    def test_inadmissible_exponents_cite_the_gate(self, tmp_path):
        text = MINIMAL_TSMC.replace("p1 = 3", "p1 = 1").replace("q1 = 5", "q1 = 3")
        with pytest.raises(ConfigError, match=r"p1/q1 > 1/2"):
            load_scenario(write_cfg(tmp_path, text))

    def test_unknown_kind(self, tmp_path):
        text = MINIMAL_TSMC.replace("kind = tsmc", "kind = pid")
        with pytest.raises(ConfigError, match="unknown scenario kind"):
            load_scenario(write_cfg(tmp_path, text))

    def test_saturated_requires_tau_and_bounds(self, tmp_path):
        text = MINIMAL_TSMC.replace("kind = tsmc", "kind = tsmc_saturated")
        with pytest.raises(ConfigError, match="tau"):
            load_scenario(write_cfg(tmp_path, text))

    def test_bad_disturbance_term(self, tmp_path):
        text = MINIMAL_TSMC + "\n[disturbance]\nterms = 2.0 sin_linear\n"
        with pytest.raises(ConfigError, match="disturbance term"):
            load_scenario(write_cfg(tmp_path, text))

    @pytest.mark.parametrize("terms", [
        "2.0 sin_linear 0.1 ; 3.0 sin_sqrt 0.2",
        "2.0 sin_linear 0.1\n    ; 3.0 sin_sqrt 0.2",
        "2.0 sin_linear 0.1;\n    3.0 sin_sqrt 0.2",
    ], ids=["spaced", "continued-after-semicolon", "continued-before-semicolon"])
    def test_semicolon_separates_every_term(self, tmp_path, terms):
        # ';' only separates list entries: it never starts a comment, in a
        # value or at the head of a continuation line
        text = MINIMAL_TSMC + f"\n[disturbance]\nterms = {terms}\n"
        sc = load_scenario(write_cfg(tmp_path, text))
        assert [(t.amplitude, t.kind, t.rate) for t in sc.disturbance.terms] == [
            (2.0, "sin_linear", 0.1), (3.0, "sin_sqrt", 0.2)]

    def test_omitted_keys_take_field_defaults(self, tmp_path):
        text = MINIMAL_TSMC.replace("x0 = 1.0, 5.0\n", "")
        text = text.replace("dt = 1e-3\n", "").replace("horizon = 0.5\n", "")
        sc = load_scenario(write_cfg(tmp_path, text))
        for f in dataclasses.fields(Scenario):
            if f.name not in ("kind", "plant", "disturbance", "tsmc", "observer", "label"):
                assert getattr(sc, f.name) == f.default, f.name
        assert sc.x0 == (1.0, 5.0)

    def test_percent_is_literal(self, tmp_path):
        text = MINIMAL_TSMC.replace("kind = tsmc", "kind = tsmc\nlabel = s71 at 50%")
        assert load_scenario(write_cfg(tmp_path, text)).label == "s71 at 50%"

    def test_x0_needs_two_entries(self, tmp_path):
        text = MINIMAL_TSMC.replace("x0 = 1.0, 5.0", "x0 = 1.0, 5.0, 2.0")
        with pytest.raises(ConfigError, match=re.escape("[scenario] x0: needs two entries")):
            load_scenario(write_cfg(tmp_path, text))

    def test_beam_section_builds_plant(self, tmp_path):
        text = MINIMAL_TSMC.replace(
            "[plant]\nK1 = 97.4\nK2 = -19.97\ng = -1.09",
            "[beam]\nalpha = 0.0\nbeta = 0.0\nlambda = 1.0",
        )
        sc = load_scenario(write_cfg(tmp_path, text))
        assert sc.plant.K1 == math.pi**4
        assert sc.plant.g < 0

    def test_beam_local_limit_is_the_reference_plant_but_k2(self, tmp_path):
        # the bundled plant is K1 = 97.4, K2 = -19.97, g = -1.09; the local
        # limit reaches K1 and g exactly, and K2 with the opposite sign
        text = MINIMAL_TSMC.replace(
            "[plant]\nK1 = 97.4\nK2 = -19.97\ng = -1.09",
            "[beam]\nalpha = 0.0\nbeta = 0.0\nlambda = 0.545",
        )
        plant = load_scenario(write_cfg(tmp_path, text)).plant
        assert plant.K1 == math.pi**4
        assert round(plant.K1, 1) == 97.4
        assert plant.g == -1.09
        assert plant.K2 == pytest.approx(math.pi**4 / 4, rel=1e-15)
        assert round(plant.K2, 2) == 24.35


class TestErrorMessages:
    @pytest.mark.parametrize(
        "bundled,section,key",
        [
            ("s71", "plant", "K1"),
            ("s71", "observer", "k"),
            ("s71", "controller", "alpha1"),
            ("s74", "smc", "Y"),
            ("s74", "smc", "K1_nominal"),
            ("s73", "ekf", "Ts"),
        ],
    )
    def test_bad_value_names_path_and_key_once(self, tmp_path, bundled, section, key):
        text = resolve_config_path(bundled).read_text()
        head, body = text.split(f"[{section}]\n")
        body = re.sub(rf"(?m)^{key} = .*$", f"{key} = abc", body, count=1)
        p = write_cfg(tmp_path, head + f"[{section}]\n" + body, name="bad.cfg")
        with pytest.raises(ConfigError) as exc:
            load_scenario(p)
        msg = str(exc.value)
        assert msg.startswith(f"{p}: ")
        assert msg.count(str(p)) == 1
        assert msg.count(f"[{section}]") == 1
        assert f"[{section}] {key}: " in msg


class TestBareNames:
    """Only a str with no directory part is a bare name, which falls back to
    the bundled file of that name; a Path, which cannot keep a leading './',
    never does."""

    @pytest.mark.parametrize("load", [resolve_config_path, load_scenario],
                             ids=["resolve_config_path", "load_scenario"])
    def test_only_a_bare_str_falls_back(self, tmp_path, monkeypatch, load):
        monkeypatch.chdir(tmp_path)
        bundled = Path(presto.config.__file__).with_name("configs") / "s71.cfg"
        assert load("s71.cfg") == load("s71") == load(str(bundled))
        for name in ("./s71.cfg", Path("./s71.cfg"), Path("s71.cfg"), Path("s71")):
            with pytest.raises(ConfigError, match=re.escape(f"config file not found: {name}")):
                load(name)
        assert list(tmp_path.iterdir()) == []


class TestCompareExpansion:
    def test_bundled_compare_config(self):
        scenarios = load_compare_entries(["compare"])
        assert [sc.label for sc in scenarios] == ["s71", "s72", "s73", "s74"]

    def test_explicit_list(self):
        scenarios = load_compare_entries(["s71", "s74"])
        assert [sc.label for sc in scenarios] == ["s71", "s74"]

    def test_labels_must_align(self, tmp_path):
        # [compare] has no labels key, so no labels line is read, aligned or not
        p = write_cfg(
            tmp_path,
            """
            [compare]
            scenarios = s71.cfg, s72.cfg
            labels = only_one
            """,
        )
        with pytest.raises(ConfigError, match=r"\[compare\] labels: unknown key"):
            load_compare_entries([p])

    @pytest.mark.parametrize("line", ["labels = a", "scenarios =", "scenarios = ,"])
    def test_scenarios_must_be_listed(self, tmp_path, line):
        p = write_cfg(tmp_path, f"[compare]\n{line}\n")
        with pytest.raises(ConfigError, match=r"\[compare\] scenarios"):
            load_compare_entries([p])


class TestPsoJob:
    def test_bundled_job(self):
        cfg, template = load_pso_job("tune_s71")
        assert template.names == ("k", "beta0", "eps")
        assert cfg.n_dims == 3
        assert cfg.swarm_size == 8

    def test_unknown_gain(self, tmp_path):
        p = write_cfg(tmp_path, MINIMAL_TSMC + "\n[pso]\ntune = warp 0 1\n")
        with pytest.raises(ConfigError, match="warp"):
            load_pso_job(p)

    def test_tau_not_tunable_on_tsmc_kind(self, tmp_path):
        p = write_cfg(tmp_path, MINIMAL_TSMC + "\n[pso]\ntune = k 0.5 20; tau 1 10\n")
        with pytest.raises(ConfigError, match="cannot tune 'tau' on kind tsmc"):
            load_pso_job(p)

    def test_each_gain_names_its_box(self, tmp_path):
        p = write_cfg(tmp_path, MINIMAL_TSMC + "\n[pso]\ntune = k 0.5 20; eps 1 15\n")
        cfg, template = load_pso_job(p)
        assert template.names == ("k", "eps")
        assert cfg.bounds == ((0.5, 20.0), (1.0, 15.0))
        p = write_cfg(tmp_path, MINIMAL_TSMC + "\n[pso]\ntune = k 0.5 20; eps\n")
        with pytest.raises(ConfigError, match=r"\[pso\] tune: entry 'eps' is not 'name lo hi'"):
            load_pso_job(p)

    def test_spaced_semicolons_keep_every_box(self, tmp_path):
        tune = "k 0.5 20 ; beta0 5 20 ; eps 0.5 20"
        p = write_cfg(tmp_path, MINIMAL_TSMC + f"\n[pso]\ntune = {tune}\n")
        cfg, template = load_pso_job(p)
        assert template.names == ("k", "beta0", "eps")
        assert cfg.bounds == ((0.5, 20.0), (5.0, 20.0), (0.5, 20.0))

    def test_omitted_keys_take_field_defaults(self, tmp_path):
        p = write_cfg(tmp_path, MINIMAL_TSMC + "\n[pso]\ntune = k 0.5 20\n")
        cfg, _ = load_pso_job(p)
        assert cfg == PsoConfig(bounds=((0.5, 20.0),))
        assert cfg.max_generations == 40

    def test_observer_gain_on_smc_template_fails_at_load(self, tmp_path):
        text = resolve_config_path("s74").read_text() + "\n[pso]\ntune = k 0.5 20\n"
        p = write_cfg(tmp_path, text)
        with pytest.raises(ConfigError, match="no observer to tune") as exc:
            load_pso_job(p)
        assert str(exc.value).startswith(f"{p}: ")

    def test_reads_its_file_once(self, monkeypatch):
        calls = []
        read = presto.config._read

        def counting_read(path):
            calls.append(path)
            return read(path)

        monkeypatch.setattr(presto.config, "_read", counting_read)
        load_pso_job("tune_s71")
        assert len(calls) == 1


class TestUnreadKeys:
    """The keys a file may set are the keys its loaders ask for."""

    def test_observer_section_on_the_baseline_is_unused(self, tmp_path):
        # the baseline has no observer to read its gains
        text = resolve_config_path("s74").read_text() + "\n[observer]\nk = 4.0\n"
        with pytest.raises(ConfigError, match=r"\[observer\]: unused section"):
            load_scenario(write_cfg(tmp_path, text))

    def test_optional_keys_are_suggested(self, tmp_path):
        # decimation is optional, so the file loads without it and only the
        # unread misspelling is left to name
        text = resolve_config_path("s71").read_text()
        assert "decimation = 10\n" in text
        text = text.replace("decimation = 10\n", "decimaton = 10\n")
        with pytest.raises(ConfigError, match=r"\[scenario\] decimaton: unknown key; did you "
                                              r"mean decimation\?"):
            load_scenario(write_cfg(tmp_path, text))

    def test_compare_file_keys(self, tmp_path):
        # a run is named by its own file's [scenario] label
        for key in ("label", "labels"):
            p = write_cfg(tmp_path, f"[compare]\nscenarios = s71.cfg\n{key} = a\n")
            with pytest.raises(ConfigError) as exc:
                load_compare_entries([p])
            assert str(exc.value) == f"{p}: [compare] {key}: unknown key; known keys: scenarios"

    def test_misspelled_required_key_is_named(self, tmp_path):
        # the loader stops at the missing key, before the controller keys
        # it has not asked for yet and before the [ekf] section it never reads
        text = (resolve_config_path("s72").read_text().replace("u_max = 10.0", "u_mx = 10.0")
                + "\n[ekf]" + resolve_config_path("s73").read_text().split("[ekf]")[1])
        p = write_cfg(tmp_path, text)
        with pytest.raises(ConfigError) as exc:
            load_scenario(p)
        assert str(exc.value) == (f"{p}: missing required key [controller] u_max; "
                                  "[controller] u_mx: unknown key; did you mean u_max?")

    @pytest.mark.parametrize("line", ["q_diag = 2.025e-11, 2.25e-6, 1e-2\n", "beta1 = 3.0\n",
                                      "u_max = 10.0\n"])
    def test_omitted_key_suggests_no_valid_key(self, tmp_path, line):
        # p0_diag, delta and u_min come closest to the omitted keys, but
        # they are valid keys the loader had not asked for yet, or had read
        text = resolve_config_path("s73").read_text()
        assert line in text
        p = write_cfg(tmp_path, text.replace(line, ""))
        with pytest.raises(ConfigError) as exc:
            load_scenario(p)
        assert str(exc.value).endswith(line.split(" = ")[0])
        assert "missing required key" in str(exc.value)
        assert "unknown key" not in str(exc.value)

    def test_pso_keys_checked_when_run_as_a_scenario(self, tmp_path):
        p = write_cfg(tmp_path, MINIMAL_TSMC + "\n[pso]\ntune = k 0.5 20\nswarm = 4\n")
        for load in (load_scenario, load_pso_job):
            with pytest.raises(ConfigError, match=r"\[pso\] swarm: unknown key"):
                load(p)


# each bundled file and the loader the CLI gives it
BUNDLED_LOADERS = {
    "s71": load_scenario,
    "s72": load_scenario,
    "s73": load_scenario,
    "s74": load_scenario,
    "compare": lambda name: load_compare_entries([name]),
    "tune_s71": load_pso_job,
    "beam": load_beam_params,
}


def documented_keys(block: str) -> dict[str, set[str]]:
    """Section -> keys of a configuration block.

    A line opening with [section] starts an entry and indented lines
    continue it after a wide gap; a trailing note in parentheses is not
    part of it.  A key is
    a name that opens the entry or follows ', ' or a wide gap, and ends at
    ',', '=' or the end of the entry, so example values are not keys.
    """
    entries: dict[str, str] = {}
    section = None
    for line in textwrap.dedent(block).splitlines():
        line = re.sub(r"\s{2,}\(.*\)$", "", line)
        if header := re.match(r"\[(\w+)\]\s*(.*)", line):
            section = header[1]
            entries[section] = header[2]
        elif line.strip():
            entries[section] += "  " + line.strip()
    key = re.compile(r"(?:^|,\s*|\s{2,})([A-Za-z_]\w*)(?=\s*(?:,|=|$))")
    return {name: set(key.findall(text)) for name, text in entries.items()}


class TestDocumentedKeys:
    """The documented sections list exactly the keys the loaders ask for."""

    @pytest.fixture(scope="class")
    def asked(self):
        bundled = resolve_config_path("s71").parent
        assert sorted(BUNDLED_LOADERS) == sorted(p.stem for p in bundled.glob("*.cfg"))
        parsers = []
        read = presto.config._read

        def recording_read(path):
            parsers.append(read(path))
            return parsers[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(presto.config, "_read", recording_read)
            for name, load in BUNDLED_LOADERS.items():
                load(name)
        keys: dict[str, set[str]] = {}
        for cp in parsers:
            for section, spelled in cp.asked.items():
                keys.setdefault(section, set()).update(spelled.values())
        return keys

    def test_readme_configuration_block(self, asked):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"## Configuration format\n.*?```ini\n(.*?)```", readme, re.S)[1]
        assert documented_keys(block) == asked

    def test_config_module_docstring(self, asked):
        block = re.search(r"subsystem:\n\n(.*?)\n\n", presto.config.__doc__, re.S)[1]
        assert documented_keys(block) == asked
