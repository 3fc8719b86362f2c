import re
import textwrap

import pytest

from presto.config import (
    ConfigError,
    load_compare_entries,
    load_pso_job,
    load_scenario,
    resolve_config_path,
)

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

    def test_env_seed_override(self, tmp_path, monkeypatch):
        p = write_cfg(tmp_path, MINIMAL_TSMC)
        assert load_scenario(p).seed == 0
        monkeypatch.setenv("PRESTO_SEED", "424242")
        assert load_scenario(p).seed == 424242
        monkeypatch.setenv("PRESTO_SEED", "oops")
        with pytest.raises(ConfigError):
            load_scenario(p)

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

    def test_beam_section_builds_plant(self, tmp_path):
        text = MINIMAL_TSMC.replace(
            "[plant]\nK1 = 97.4\nK2 = -19.97\ng = -1.09",
            "[beam]\nalpha = 0.0\nbeta = 0.0\nlambda = 1.0",
        )
        sc = load_scenario(write_cfg(tmp_path, text))
        assert sc.plant.K1 == pytest.approx(9.8696, rel=1e-4)
        assert sc.plant.g < 0


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


class TestCompareExpansion:
    def test_bundled_compare_config(self):
        entries = load_compare_entries(["compare"])
        assert [label for label, _ in entries] == ["s71", "s72", "s73", "s74"]

    def test_explicit_list(self):
        entries = load_compare_entries(["s71", "s74"])
        assert [label for label, _ in entries] == ["s71", "s74"]

    def test_labels_must_align(self, tmp_path):
        p = write_cfg(
            tmp_path,
            """
            [compare]
            scenarios = s71.cfg, s72.cfg
            labels = only_one
            """,
        )
        with pytest.raises(ConfigError, match="labels"):
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
        p = write_cfg(tmp_path, MINIMAL_TSMC + "\n[pso]\ntune = k; tau\n")
        with pytest.raises(ConfigError, match="cannot tune 'tau' on kind tsmc"):
            load_pso_job(p)

    def test_default_boxes(self, tmp_path):
        p = write_cfg(tmp_path, MINIMAL_TSMC + "\n[pso]\ntune = k; eps\n")
        cfg, template = load_pso_job(p)
        assert template.names == ("k", "eps")
        assert cfg.bounds[0] == (1e-3, 20.0)
