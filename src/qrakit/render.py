"""Render assessment reports as text, markdown, CSV or JSON documents.

Rendering is deterministic: the same report and spec always produce the
same string. Reports are shown in input order, CV* to 3 decimals and the
other statistics to 2, with the normality caveat; JSON keeps full precision.
"""
from __future__ import annotations

import io as _io
import csv
import json
from collections import namedtuple

from .engine import QraReport
from .model import _checked_make

NORMALITY_CAVEAT = (
    "Note: confidence statistics assume normally distributed "
    "measured quantity values."
)

PRECISION_CSV_HEADER = ["object", "measurand", "n", "mean", "stdev",
                        "ci_lo", "ci_hi", "cv_star"]

FORMATS = ("text", "markdown", "csv", "json")


class RenderSpec(namedtuple("RenderSpec", "format")):
    __slots__ = ()
    _make = _checked_make

    def __new__(cls, format="text"):
        if format not in FORMATS:
            raise ValueError(f"unknown render format {format!r}")
        return super().__new__(cls, format)


def _rows(reports):
    rows = []
    for r in reports:
        p = r.precision
        rows.append([
            r.object.id,
            r.measurand.id,
            ", ".join(str(m.value) for m in r.measurements),
            str(p.n),
            f"{p.mean:.2f}",
            f"{p.s_star:.2f}",
            f"{p.ci95[0]:.2f}",
            f"{p.ci95[1]:.2f}",
            f"{p.cv_star:.3f}",
        ])
    return rows


_TABLE_HEADER = ["object", "measurand", "values", "n", "mean", "stdev",
                 "stdev 95% CI", "CV*"]


def _text_table(header, rows):
    widths = [max(len(header[i]), *(len(r[i]) for r in rows)) if rows
              else len(header[i]) for i in range(len(header))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for r in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return lines


def _csv_table(rows) -> str:
    buf = _io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _markdown_table(header, rows):
    lines = ["| " + " | ".join(header) + " |",
             "| " + " | ".join("---" for _ in header) + " |"]
    for r in rows:
        lines.append("| " + " | ".join(r) + " |")
    return lines


def _document(spec: RenderSpec, before, header, rows, after) -> str:
    """A text or markdown document: the lines before the table, the table, the lines after."""
    table = _text_table if spec.format == "text" else _markdown_table
    return "\n".join([*before, *table(header, rows), *after]) + "\n"


def render_precision_table(reports, spec: RenderSpec = RenderSpec()) -> str:
    """One row per report: sample, de-biased stdev with CI, and CV*."""
    if not reports:
        raise ValueError("no reports to render")
    if spec.format == "json":
        return json.dumps({
            "results": [
                {
                    "object": r.object.id,
                    "measurand": r.measurand.id,
                    "values": [m.value for m in r.measurements],
                    "n": r.precision.n,
                    "mean": r.precision.mean,
                    "s": r.precision.s,
                    "s_star": r.precision.s_star,
                    "se_s_star": r.precision.se_s_star,
                    "ci95": list(r.precision.ci95),
                    "cv": r.precision.cv,
                    "cv_star": r.precision.cv_star,
                    "classification": r.classification,
                }
                for r in reports
            ],
            "caveats": [NORMALITY_CAVEAT],
        }, indent=2) + "\n"

    rows = _rows(reports)
    if spec.format == "csv":
        return _csv_table([PRECISION_CSV_HEADER,
                           *(row[:2] + row[3:] for row in rows)])  # no values
    return _document(spec, [], _TABLE_HEADER,
                     [row[:6] + [f"[{row[6]}, {row[7]}]", row[8]] for row in rows],
                     ["", NORMALITY_CAVEAT])


def render_condition_matrix(report: QraReport,
                            spec: RenderSpec = RenderSpec()) -> str:
    """One row per measurement, one column per condition; '?' marks Unknown.

    A footer lists the per-condition verdicts and the test classification.
    """
    conditions = report.diff.conditions
    if spec.format == "json":
        return json.dumps({
            "object": report.object.id,
            "measurand": report.measurand.id,
            "conditions": list(conditions),
            "rows": [
                {"value": m.value, "conditions": dict(zip(conditions, row))}
                for m, row in zip(report.measurements, report.diff.rows)
            ],
            "verdicts": dict(report.diff.verdicts),
            "classification": report.classification,
        }, indent=2) + "\n"

    header = ["value", *conditions]
    rows = [[str(m.value)] + ["?" if label is None else label for label in row]
            for m, row in zip(report.measurements, report.diff.rows)]
    verdicts = [report.diff.verdicts[name] for name in conditions]
    class_line = f"classification: {report.classification}"
    if spec.format == "csv":
        return _csv_table([header, *rows, ["verdict", *verdicts]]) + class_line + "\n"
    verdict_line = "verdicts: " + ", ".join(
        f"{name}={verdict}" for name, verdict in zip(conditions, verdicts))
    return _document(spec, [f"{report.object.id} / {report.measurand.id}"], header, rows,
                     [verdict_line, class_line])
