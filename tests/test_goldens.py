"""Byte-identity of every bundled output.

`presto compare s71 s72 s73 s74` and `presto tune tune_s71` run in process
and the sha256 prefix of each output file is pinned, so a change that alters
the arithmetic of the plant, observer, controllers, filter, tuner, norms or
CSV writer fails here.  No output goes through BLAS: the EKF cycle is plain
float operations and the report norms sum with numpy's fixed-order pairwise
`add.reduce`, so the pinned bytes do not depend on the kernel OpenBLAS picks
for the host.
"""

import hashlib

import pytest

from presto.cli import main as cli_main

COMPARE = {
    "s71.csv": "d5ab7472332fa414",
    "s72.csv": "daa26948487eb10c",
    "s73.csv": "0e8efc288360b2b7",
    "s74.csv": "e7e9e387a965d1ee",
    "report.txt": "75cde6472fac528a",
    "report.csv": "47faf06bf8db160e",
}
TUNE = {
    "tune_s71_best.csv": "f620849cb7dae69b",
    "tune_s71_history.csv": "b7f988c4fde3dcdc",
}


def sha256_prefix(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


@pytest.mark.parametrize(
    "argv, pinned",
    [(["compare", "s71", "s72", "s73", "s74"], COMPARE), (["tune", "tune_s71"], TUNE)],
    ids=["compare", "tune"],
)
def test_outputs_are_byte_identical(tmp_path, capsys, argv, pinned):
    assert cli_main([*argv, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert {name: sha256_prefix(tmp_path / name) for name in pinned} == pinned
