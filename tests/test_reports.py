"""The one report shape: its CSV cell rule, its summary, and the notes every
check collects from the matrices it reads."""

from typing import NamedTuple

import numpy as np
import pytest

import gltlab as gl
from gltlab.reports import Report

PINV_NOTES = [
    f"pseudo-inverse at n={n} truncated {n} singular values below 1e-10 * sigma_1"
    for n in (8, 16)
]


class Row(NamedTuple):
    n: tuple
    d_n: int
    value: float
    label: str


def test_csv_cell_rule():
    report = Report(passed=True, columns=("n", "d_n", "value", "label"), rows=[
        Row((8, 8), 64, 0.1, "PASS"),
        Row((16,), 16, np.float64(1 / 3), "FAIL"),
        Row((3,), 3, float("inf"), "x^2"),
    ])
    assert report.csv() == (
        "n,d_n,value,label\n"
        '"8,8",64,0.1,PASS\n'
        "16,16,0.3333333333333333,FAIL\n"
        "3,3,inf,x^2\n"
    )


def test_summary_sections():
    full = Report(passed=False, columns=(), rows=[], checks=[{"name": "c"}],
                  facts={"norm_x": [1.0]}, metadata={"slack": 1.5}, notes=["note"])
    assert full.summary() == {"norm_x": [1.0], "checks": [{"name": "c"}],
                              "policy": {"slack": 1.5}, "notes": ["note"]}
    # empty sections are left out; notes appear only when a note exists
    assert Report(passed=True, columns=(), rows=[], facts={"count": 3}).summary() == {
        "count": 3}


LAP_PLUS_ZERO_PINV = gl.parse("T(2-2*cos(t1)) + Z^-1")


def seq(n):
    return gl.materialize(LAP_PLUS_ZERO_PINV, n)


@pytest.mark.parametrize("check", [
    lambda: gl.distribution_check(seq, gl.symbol_of(gl.parse("T(2-2*cos(t1))")), [8, 16],
                                  mode="lambda"),
    lambda: gl.glt5_split_check(seq, [8, 16]),
    lambda: gl.acs_check(lambda m, n: seq(n), seq, [1, 2], [8, 16]),
    lambda: gl.zero_distribution_test(seq, 1, [8, 16]),
], ids=["distribution", "glt5", "acs", "zero"])
def test_every_check_collects_materialization_notes(check):
    report = check()
    assert report.notes == PINV_NOTES  # once per size, however often it is read
    assert report.summary()["notes"] == PINV_NOTES


def test_no_notes_without_truncation():
    report = gl.zero_distribution_test(
        lambda n: gl.materialize(gl.parse("T(2-2*cos(t1))"), n), 1, [8, 16])
    assert report.notes == [] and "notes" not in report.summary()
