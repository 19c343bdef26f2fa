"""Shared experiment result record and the package's one CSV writer."""

from dataclasses import dataclass, fields
from operator import attrgetter

import numpy as np

CSV_HEADER = "ratio,gamma,metric,empirical_mean,empirical_stderr,theory,trials,status"


@dataclass
class ResultRow:
    """One sweep record: empirical statistic against its theoretical value."""

    ratio: float
    gamma: float
    metric: str
    empirical_mean: float
    empirical_stderr: float
    theory: float  # nan when theory is singular at this point
    trials: int
    status: str = "ok"

    @classmethod
    def from_trials(cls, ratio, gamma, metric, values, theory, status="ok"):
        """Mean and standard error over the finite ``values``, which ``trials``
        counts; the stderr is NaN below two finite values, the mean at none."""
        good = np.asarray(values, dtype=float)
        good = good[np.isfinite(good)]
        mean = float(good.mean()) if good.size else float("nan")
        stderr = (float(good.std(ddof=1) / np.sqrt(good.size))
                  if good.size > 1 else float("nan"))
        return cls(ratio=ratio, gamma=gamma, metric=metric, empirical_mean=mean,
                   empirical_stderr=stderr, theory=theory, trials=int(good.size),
                   status=status)


#: a ResultRow's fields as a tuple, in CSV_HEADER order (no deep copy, unlike astuple)
_row_values = attrgetter(*(f.name for f in fields(ResultRow)))


def _field(value):
    if isinstance(value, str):
        return value
    if value is None or value != value:  # missing value or NaN
        return ""
    return f"{value:.9g}"


def write_csv(path, header, rows):
    """Write ``header`` (a comma-separated string) and ``rows`` to ``path``.

    Strings are written as they are, numbers with 9 significant digits, and
    None or NaN as an empty field; lines end in ``\\n``. Returns ``path``.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(map(_field, row)) + "\n")
    return path


def write_rows(path, rows):
    """Write ResultRows sorted by (gamma, ratio, metric)."""
    ordered = sorted(rows, key=lambda r: (r.gamma, r.ratio, r.metric))
    return write_csv(path, CSV_HEADER, map(_row_values, ordered))
