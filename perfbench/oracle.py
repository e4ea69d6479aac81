"""Independent oracle: recomputes each QRA report from raw values.

Uses only ``math`` and ``statistics`` and shares no code with qrakit:
shifted mean, sample stdev s, c4(n) via lgamma, s* = s / c4(n),
CV* = (1 + 1/(4n)) * 100 * s* / mean, and the Repeatability /
Reproducibility / Indeterminate call from the condition labels.
"""
from __future__ import annotations

import csv
import io
import json
import math
import re
import statistics
from dataclasses import dataclass

# Values the paper reports and the bundled dataset must reproduce.
PAPER_PINS = (
    ("NTS_def", "BLEU", None, 1.562),
    ("NTS_def", "BLEU", ("compile_training_info", "Nisioi et al."), 0.838),
)

REL_TOL = 1e-9


@dataclass(frozen=True)
class Expected:
    n: int
    mean: float
    s: float
    s_star: float
    cv_star: float
    call: str


def c4(n):
    return math.sqrt(2.0 / (n - 1)) * math.exp(math.lgamma(n / 2.0) - math.lgamma((n - 1) / 2.0))


def call(label_rows):
    """Classification from one tuple of labels per measurement (None = Unknown)."""
    verdicts = []
    for column in zip(*label_rows):
        if any(label is None for label in column):
            verdicts.append("HasUnknown")
        elif len(set(column)) > 1:
            verdicts.append("Differs")
        else:
            verdicts.append("AllSame")
    if "Differs" in verdicts:
        return "Reproducibility"
    if all(v == "AllSame" for v in verdicts):
        return "Repeatability"
    return "Indeterminate"


def expect(values, scale_min, label_rows):
    """Expected report for one group, or None when CV* is undefined."""
    shifted = [v - scale_min for v in values]
    n = len(shifted)
    mean = statistics.fmean(shifted)
    if n < 2 or mean == 0.0:
        return None
    s = 0.0 if len(set(shifted)) == 1 else statistics.stdev(shifted)
    s_star = s / c4(n)
    cv_star = (1.0 + 1.0 / (4.0 * n)) * 100.0 * s_star / mean
    return Expected(n, mean, s, s_star, cv_star, call(label_rows))


class Groups:
    """Raw groups of a dataset, keyed by (object, measurand), in row order.

    Rows are (object, measurand, value, source, labels) as the benchmark
    generated or read them itself, never as qrakit parsed them.
    """

    def __init__(self, names, scale_min, rows):
        self.names = list(names)
        self.scale_min = dict(scale_min)
        self.rows = {}
        for row in rows:
            self.rows.setdefault((row[0], row[1]), []).append(row)

    @classmethod
    def from_json_obj(cls, obj):
        """Groups of a dataset in qrakit's JSON layout (e.g. the bundled file)."""
        names = [c["name"] for c in obj["schema"]["conditions"]]
        rows = [(r["object"], r["measurand"], r["value"], r.get("source", ""),
                 tuple(r["conditions"].get(name) for name in names))
                for r in obj["measurements"]]
        return cls(names, {m["id"]: m.get("scale_min", 0.0) for m in obj["measurands"]}, rows)

    def pairs(self, min_n=1):
        return [p for p, rows in self.rows.items() if len(rows) >= min_n]

    def label_is(self, name, label):
        """Row filter for the equality predicate condition == label."""
        i = self.names.index(name)
        return lambda row: row[4][i] == label

    def equality_subgroups(self):
        """(pair, condition, label) for every single-condition equality
        subgroup of an assessable pair whose CV* is defined."""
        return [(pair, name, label)
                for pair in self.pairs(2)
                for i, name in enumerate(self.names)
                for label in sorted({r[4][i] for r in self.rows[pair]} - {None})
                if self.expect(pair, self.label_is(name, label))]

    def expect(self, pair, keep=None):
        rows = [r for r in self.rows[pair] if keep is None or keep(r)]
        return expect([r[2] for r in rows], self.scale_min[pair[1]], [r[4] for r in rows])


def _close(a, b):
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


def _rounded_match(cell, value, decimals):
    # The program rounds its own (ulp-different) value, so allow the cell to
    # sit on either side of a rounding boundary.
    return abs(float(cell) - value) <= 0.5 * 10.0 ** -decimals * (1 + 1e-6) + 1e-12


def check_report(report, exp, where=""):
    """Mismatches between a qrakit QraReport and the expected values."""
    if exp is None:
        return [f"{where}: program returned a report the oracle finds undefined"]
    p = report.precision
    found = []
    if p.n != exp.n:
        found.append(f"{where}: n {p.n} != {exp.n}")
    for field in ("mean", "s", "s_star", "cv_star"):
        if not _close(getattr(p, field), getattr(exp, field)):
            found.append(f"{where}: {field} {getattr(p, field)!r} != {getattr(exp, field)!r}")
    if report.classification != exp.call:
        found.append(f"{where}: call {report.classification} != {exp.call}")
    return found


def parse_table(document, fmt):
    """(object, measurand, n, mean, stdev, cv_star) strings per row of a
    rendered precision table in text, markdown or csv format."""
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(document)))[1:]
        return [(r[0], r[1], r[2], r[3], r[4], r[7]) for r in rows]
    lines = document.split("\n")[2:]
    lines = lines[:lines.index("")]
    if fmt == "markdown":
        cells = [line[2:-2].split(" | ") for line in lines]
    else:
        cells = [re.split(r" {2,}", line) for line in lines]
    return [(c[0], c[1], c[3], c[4], c[5], c[7]) for c in cells]


def check_table(document, fmt, expected, where=""):
    """Check a rendered precision table (text, markdown, csv or json) row for
    row against a list of ((object, measurand), Expected) in report order."""
    if fmt == "json":
        results = json.loads(document)["results"]
        got = [(r["object"], r["measurand"]) for r in results]
        found = [] if got == [k for k, _ in expected] else [f"{where}: json rows out of order"]
        for r, (_, exp) in zip(results, expected):
            if r["n"] != exp.n or r["classification"] != exp.call or not all(
                    _close(r[f], getattr(exp, f)) for f in ("mean", "s", "s_star", "cv_star")):
                found.append(f"{where}: json row {r['object']}/{r['measurand']} differs")
        return found
    rows = parse_table(document, fmt)
    if [(r[0], r[1]) for r in rows] != [k for k, _ in expected]:
        return [f"{where}: {fmt} table rows differ from the expected pairs"]
    found = []
    for (obj, meas, n, mean, stdev, cv_star), (_, exp) in zip(rows, expected):
        if not (int(n) == exp.n and _rounded_match(mean, exp.mean, 2)
                and _rounded_match(stdev, exp.s_star, 2)
                and _rounded_match(cv_star, exp.cv_star, 3)):
            found.append(f"{where}: {fmt} row {obj}/{meas} differs: {n} {mean} {stdev} {cv_star}")
    return found


def check_pins(groups):
    """Mismatches between the paper's published CV* values and the oracle."""
    found = []
    for obj, meas, predicate, published in PAPER_PINS:
        exp = groups.expect((obj, meas), predicate and groups.label_is(*predicate))
        if exp is None or round(exp.cv_star, 3) != published:
            found.append(f"pin {obj}/{meas} {predicate}: {exp} != {published}")
    return found
