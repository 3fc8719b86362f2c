"""Byte-identity of the bundled outputs that never touch BLAS.

`presto compare s71 s72 s74` and `presto tune tune_s71` run in process and
the sha256 prefix of each output file is pinned, so a change that alters
the arithmetic of the plant, observer, controllers, tuner or CSV writer
fails here.  s73.csv and report.txt/report.csv are left out on purpose:
the adaptive row goes through the EKF's F P F' product, whose bits depend
on the OpenBLAS kernel the machine selects (FMA or not), so they are not
portable across hosts.
"""

import hashlib

import pytest

from presto.cli import main as cli_main

COMPARE = {
    "s71.csv": "d5ab7472332fa414",
    "s72.csv": "daa26948487eb10c",
    "s74.csv": "e7e9e387a965d1ee",
}
TUNE = {
    "tune_s71_best.csv": "f620849cb7dae69b",
    "tune_s71_history.csv": "b7f988c4fde3dcdc",
}


def sha256_prefix(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


@pytest.mark.parametrize(
    "argv, pinned",
    [(["compare", "s71", "s72", "s74"], COMPARE), (["tune", "tune_s71"], TUNE)],
    ids=["compare", "tune"],
)
def test_outputs_are_byte_identical(tmp_path, capsys, argv, pinned):
    assert cli_main([*argv, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert {name: sha256_prefix(tmp_path / name) for name in pinned} == pinned
