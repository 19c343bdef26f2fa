"""Shared experiment result record and the package's one CSV writer."""

from dataclasses import astuple, dataclass

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
    return write_csv(path, CSV_HEADER, map(astuple, ordered))
