"""Render assessment reports as text, markdown, CSV or JSON documents.

Rendering is deterministic: the same report and spec always produce the
same string. CV* is shown to 3 decimals and means/stdevs to 2 by default;
JSON keeps full precision.
"""
from __future__ import annotations

import io as _io
import csv
import json
from dataclasses import dataclass

from .engine import QraReport

NORMALITY_CAVEAT = (
    "Note: confidence statistics assume normally distributed "
    "measured quantity values."
)

PRECISION_CSV_HEADER = ["object", "measurand", "n", "mean", "stdev",
                        "ci_lo", "ci_hi", "cv_star"]


@dataclass(frozen=True)
class RenderSpec:
    format: str = "text"  # text, markdown, csv, json
    decimals_cv: int = 3
    decimals_stats: int = 2
    include_caveats: bool = True
    sort_by_cv: bool = False

    def __post_init__(self):
        if self.format not in ("text", "markdown", "csv", "json"):
            raise ValueError(f"unknown render format {self.format!r}")
        for d in (self.decimals_cv, self.decimals_stats):
            if not 0 <= d <= 10:
                raise ValueError("decimals must be in [0, 10]")


def _fmt(x: float, decimals: int) -> str:
    return f"{x:.{decimals}f}"


def _rows(reports, spec):
    reports = list(reports)
    if spec.sort_by_cv:
        reports.sort(key=lambda r: r.precision.cv_star)
    ds, dc = spec.decimals_stats, spec.decimals_cv
    rows = []
    for r in reports:
        p = r.precision
        rows.append([
            r.object.id,
            r.measurand.id,
            ", ".join(str(m.value) for m in r.measurements),
            str(p.n),
            _fmt(p.mean, ds),
            _fmt(p.s_star, ds),
            _fmt(p.ci95[0], ds),
            _fmt(p.ci95[1], ds),
            _fmt(p.cv_star, dc),
        ])
    return reports, rows


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


def _markdown_table(header, rows):
    lines = ["| " + " | ".join(header) + " |",
             "| " + " | ".join("---" for _ in header) + " |"]
    for r in rows:
        lines.append("| " + " | ".join(r) + " |")
    return lines


def render_precision_table(reports, spec: RenderSpec = RenderSpec()) -> str:
    """One row per report: sample, de-biased stdev with CI, and CV*."""
    if not reports:
        raise ValueError("no reports to render")
    ordered, rows = _rows(reports, spec)

    if spec.format == "csv":
        buf = _io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(PRECISION_CSV_HEADER)
        writer.writerows(row[:2] + row[3:] for row in rows)  # no values column
        return buf.getvalue()

    if spec.format == "json":
        doc = {
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
                for r in ordered
            ]
        }
        if spec.include_caveats:
            doc["caveats"] = [NORMALITY_CAVEAT]
        return json.dumps(doc, indent=2) + "\n"

    table = _text_table if spec.format == "text" else _markdown_table
    lines = table(_TABLE_HEADER, [row[:6] + [f"[{row[6]}, {row[7]}]", row[8]]
                                  for row in rows])
    if spec.include_caveats:
        lines += ["", NORMALITY_CAVEAT]
    return "\n".join(lines) + "\n"


def render_condition_matrix(report: QraReport,
                            spec: RenderSpec = RenderSpec()) -> str:
    """One row per measurement, one column per condition; '?' marks Unknown.

    A footer lists the per-condition verdicts and the test classification.
    """
    header = ["value"] + list(report.diff.conditions)
    rows = []
    for m, row in zip(report.measurements, report.diff.rows):
        rows.append([str(m.value)] + ["?" if label is None else label
                                      for label in row])
    verdict_line = "verdicts: " + ", ".join(
        f"{name}={report.diff.verdicts[name]}" for name in report.diff.conditions
    )
    class_line = f"classification: {report.classification}"

    if spec.format == "json":
        doc = {
            "object": report.object.id,
            "measurand": report.measurand.id,
            "conditions": list(report.diff.conditions),
            "rows": [
                {"value": m.value,
                 "conditions": dict(zip(report.diff.conditions, row))}
                for m, row in zip(report.measurements, report.diff.rows)
            ],
            "verdicts": dict(report.diff.verdicts),
            "classification": report.classification,
        }
        return json.dumps(doc, indent=2) + "\n"

    if spec.format == "csv":
        buf = _io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        writer.writerow(["verdict"] + [report.diff.verdicts[name]
                                       for name in report.diff.conditions])
        return buf.getvalue() + class_line + "\n"

    table = _text_table if spec.format == "text" else _markdown_table
    title = f"{report.object.id} / {report.measurand.id}"
    lines = [title] + table(header, rows) + [verdict_line, class_line]
    return "\n".join(lines) + "\n"
