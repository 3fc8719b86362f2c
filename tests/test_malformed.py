"""Every key of every bundled config, set to each value of one fixed set,
through the CLI: no input ends in a traceback or a warning.

Cases.  Each `key = value` line of the seven bundled configs (s71-s74,
tune_s71, beam, and compare, the [compare] file) takes, in turn, each of
ten values: 0, -1, nan, inf, 1e308, abc, the empty value, and three built
from the line's own value v, which other INI dialects read as a comment
or a list: 'v ; v', 'v # note', and v as a space-separated list (its
commas made spaces, or 'v v' for a single entry).  Nothing else in the
file changes.

Which cases run.  Every case goes through `presto validate`.  A case is
also run exactly when `validate` exits 0, through `simulate`, or `tune`
for a [pso] key, `coeffs` for beam and `compare` for the [compare] file.
This rule was fixed before any case ran.  A case that `validate` refuses
goes through the same loader on every command, which
tests/test_cli.py::TestMalformedConfig checks command by command, so a
run would only repeat that load.  No value is ever left out.

Property.  Each command exits 0, 1 or 2, prints no traceback and raises
no warning.  An exit-1 message is one `error:` line that names the
`[section] key` of the changed line, alone or in a list of keys such as
`[controller] p1, q1`.

One input class stays outside the value set: a horizon whose sample log
cannot be allocated, such as `horizon = 1e12`, passes `validate`, which
allocates nothing, and exits 1 on the run.  tests/test_cli.py::TestSimulate
pins both outcomes.
"""

import re
import warnings
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import pytest

from presto.cli import main
from presto.config import resolve_config_path

BUNDLED = ("s71", "s72", "s73", "s74", "tune_s71", "beam", "compare")


def values(v: str) -> list[str]:
    spaced = v.replace(",", " ") if "," in v else f"{v} {v}"
    return ["0", "-1", "nan", "inf", "1e308", "abc", "", f"{v} ; {v}", f"{v} # note", spaced]


def cases() -> list[tuple[str, str, str, int]]:
    """(config name, section, key, line index) for every key line."""
    out = []
    for name in BUNDLED:
        section = None
        for i, line in enumerate(resolve_config_path(name).read_text().split("\n")):
            if m := re.fullmatch(r"\[(\w+)\]", line):
                section = m[1]
            elif m := re.fullmatch(r"(\w+) = .*", line):
                out.append((name, section, m[1], i))
    return out


def run_command(name: str, section: str) -> str:
    if name == "beam":
        return "coeffs"
    if name == "compare":
        return "compare"
    return "tune" if section == "pso" else "simulate"


def names_key(err: str, section: str, key: str) -> bool:
    """Whether err names [section] key, alone or among a list of keys."""
    return any(key in keys.split(", ")
               for keys in re.findall(rf"\[{section}\] (\w+(?:, \w+)*)", err))


def call(argv: list[str]) -> tuple[int, str]:
    err = StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stderr(err), \
            redirect_stdout(StringIO()):
        warnings.simplefilter("always")
        code = main(argv)
    assert not caught, [str(w.message) for w in caught]
    return code, err.getvalue()


def test_every_key_line_is_a_case():
    # 126 key lines; a bundled file that gains or loses one changes this
    assert len(cases()) == 126


@pytest.mark.parametrize("name,section,key,index", cases(),
                         ids=[f"{name}-{section}-{key}" for name, section, key, _ in cases()])
def test_any_value_exits_cleanly(tmp_path, name, section, key, index):
    lines = resolve_config_path(name).read_text().split("\n")
    given = lines[index].split(" = ", 1)[1]
    cfg = tmp_path / f"{name}.cfg"
    for value in values(given):
        case = (key, value)
        cfg.write_text("\n".join(lines[:index] + [f"{key} = {value}"] + lines[index + 1:]))
        code, err = call(["validate", str(cfg)])
        if code == 0:
            command = run_command(name, section)
            out = [] if command == "coeffs" else ["--out", str(tmp_path / "out")]
            code, err = call([command, str(cfg), *out])
            case += (command,)
        assert code in (0, 1, 2), (case, code, err)
        assert "Traceback" not in err, (case, err)
        if code == 1:
            assert err.startswith("error: ") and err.count("\n") == 1, (case, err)
            assert names_key(err, section, key), (case, err)
