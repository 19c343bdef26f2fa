"""The package's one CSV format rule and its ResultRow writer."""

import numpy as np

from rmt_equiv.results import CSV_HEADER, ResultRow, write_csv, write_rows


def test_write_csv_format_rule(tmp_path):
    path = str(tmp_path / "out.csv")
    rows = [("ok", 1 / 3, 30, float("nan"), None),
            ("near-phase-transition", np.float64(2.5e-7), np.int64(7),
             np.nan, 123456789012)]
    assert write_csv(path, "status,a,b,c,d", rows) == path
    with open(path, "rb") as fh:
        raw = fh.read()
    assert raw == (b"status,a,b,c,d\n"
                   b"ok,0.333333333,30,,\n"
                   b"near-phase-transition,2.5e-07,7,,1.23456789e+11\n")


def test_write_rows_sorts_and_keeps_field_order(tmp_path):
    path = str(tmp_path / "rows.csv")
    rows = [ResultRow(2.0, 0.1, "r_out", 1 / 3, float("nan"), 0.25, 30, "peak"),
            ResultRow(0.5, 0.1, "r_in", 1.0, 0.5, float("nan"), 29, "1-trials-failed"),
            ResultRow(0.5, 0.0, "r_out", 2.0, 0.125, 3.0, 30)]
    assert write_rows(path, rows) == path
    with open(path, "rb") as fh:
        raw = fh.read()
    assert raw == (CSV_HEADER.encode() + b"\n"
                   b"0.5,0,r_out,2,0.125,3,30,ok\n"
                   b"0.5,0.1,r_in,1,0.5,,29,1-trials-failed\n"
                   b"2,0.1,r_out,0.333333333,,0.25,30,peak\n")
