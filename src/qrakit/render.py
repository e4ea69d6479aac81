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


def _result(report: QraReport) -> dict:
    """A report's row of the precision table; every format lays it out."""
    # keys listed, not PrecisionResult._fields, so a field added there stays out of JSON
    return {
        "object": report.object.id,
        "measurand": report.measurand.id,
        "values": [m.value for m in report.measurements],
        "n": report.precision.n,
        "mean": report.precision.mean,
        "s": report.precision.s,
        "s_star": report.precision.s_star,
        "se_s_star": report.precision.se_s_star,
        "ci95": list(report.precision.ci95),
        "cv": report.precision.cv,
        "cv_star": report.precision.cv_star,
        "classification": report.classification,
    }


def _matrix(report: QraReport) -> dict:
    """A report's condition matrix as JSON holds it; every format lays it out."""
    return {
        "object": report.object.id,
        "measurand": report.measurand.id,
        "conditions": list(report.diff.conditions),
        "rows": [{"value": m.value, "conditions": dict(zip(report.diff.conditions, row))}
                 for m, row in zip(report.measurements, report.diff.rows)],
        "verdicts": dict(report.diff.verdicts),
        "classification": report.classification,
    }


def _rows(results):
    return [[
        r["object"],
        r["measurand"],
        ", ".join(map(str, r["values"])),
        str(r["n"]),
        f"{r['mean']:.2f}",
        f"{r['s_star']:.2f}",
        f"{r['ci95'][0]:.2f}",
        f"{r['ci95'][1]:.2f}",
        f"{r['cv_star']:.3f}",
    ] for r in results]


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
    def line(cells):  # a "|" in an id, a name or a label is escaped, not a column break
        return "| " + " | ".join(c.replace("|", "\\|") for c in cells) + " |"
    return [line(header), line("---" for _ in header), *map(line, rows)]


def _document(spec: RenderSpec, before, header, rows, after) -> str:
    """A text or markdown document: the lines before the table, the table, the lines after."""
    table = _text_table if spec.format == "text" else _markdown_table
    return "\n".join([*before, *table(header, rows), *after]) + "\n"


def render_precision_table(reports, spec: RenderSpec = RenderSpec()) -> str:
    """One row per report: sample, de-biased stdev with CI, and CV*."""
    if not reports:
        raise ValueError("no reports to render")
    results = [_result(r) for r in reports]
    if spec.format == "json":
        return json.dumps({"results": results, "caveats": [NORMALITY_CAVEAT]}, indent=2) + "\n"
    rows = _rows(results)
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
    matrix = _matrix(report)
    if spec.format == "json":
        return json.dumps(matrix, indent=2) + "\n"
    conditions = matrix["conditions"]
    header = ["value", *conditions]
    rows = [[str(r["value"])] + ["?" if c is None else c for c in r["conditions"].values()]
            for r in matrix["rows"]]
    verdicts = [matrix["verdicts"][name] for name in conditions]
    class_line = f"classification: {matrix['classification']}"
    if spec.format == "csv":
        return _csv_table([header, *rows, ["verdict", *verdicts]]) + class_line + "\n"
    verdict_line = "verdicts: " + ", ".join(
        f"{name}={verdict}" for name, verdict in zip(conditions, verdicts))
    return _document(spec, [f"{matrix['object']} / {matrix['measurand']}"], header, rows,
                     [verdict_line, class_line])


def render_reports(reports, spec: RenderSpec = RenderSpec(), conditions: bool = False) -> str:
    """What ``qra`` prints: the precision table, then with ``conditions`` each matrix."""
    parts = [render_precision_table(reports, spec)]  # perfbench traces each table's call
    if conditions:
        parts += [render_condition_matrix(r, spec) for r in reports]
    return "\n".join(parts)
