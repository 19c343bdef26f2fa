"""The package's one CSV format rule."""

import numpy as np

from rmt_equiv.results import write_csv


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
