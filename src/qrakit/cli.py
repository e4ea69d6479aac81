"""Command-line interface: validate, assess, subgroup and simulate.

Exit codes: 0 success, else the ``exit_code`` of the QraError that ended
the command: 1 dataset/validation errors, 2 usage errors, 3 computation
errors (e.g. a degenerate mean or too few measurements).
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .engine import assess_all, subgroup_assess
from .errors import InvalidParameters, QraError, ValidationError
from .io import (
    _BUNDLED,
    _encode_error,
    _read_dataset,
    _utf8,
    bundled_paper_dataset,
    load_dataset,
)
from .model import validate_dataset
from .render import RenderSpec, render_condition_matrix, render_precision_table
from .sim import simulate


def _load(args):
    if args.input == "builtin":
        return bundled_paper_dataset()
    return load_dataset(args.input, fmt=args.format)


def _emit(args, document: str) -> None:
    if args.out:
        data = _utf8(document, args.out)  # before the file is opened
        try:
            Path(args.out).write_bytes(data)
        except OSError as exc:
            raise InvalidParameters(f"--out {args.out}: {exc.strerror or exc}") from exc
    else:
        try:
            sys.stdout.write(document)
        except UnicodeEncodeError as exc:  # raised before anything is written
            raise _encode_error("stdout", exc) from exc


def _report_document(reports, args) -> str:
    spec = RenderSpec(format=args.render)
    parts = [render_precision_table(reports, spec)]
    if args.conditions:
        parts += [render_condition_matrix(r, spec) for r in reports]
    return "\n".join(parts)


def cmd_validate(args) -> int:
    # parse without validating, so that one pass finds errors and warnings
    dataset = (_read_dataset(_BUNDLED) if args.input == "builtin"
               else _read_dataset(args.input, args.format))
    issues = validate_dataset(dataset)
    errors = [i for i in issues if i.severity == "error"]
    # with blocking errors, only they are printed
    for issue in errors or issues:
        print(f"{issue.severity}: {issue.location}: {issue.message}")
    if errors:
        return ValidationError.exit_code
    print(f"ok: {len(dataset.measurements)} measurements, "
          f"{len(dataset.pairs())} (object, measurand) pairs")
    return 0


def cmd_assess(args) -> int:
    reports, skipped = assess_all(_load(args), args.object, args.measurand)
    for (obj, measurand), reason in skipped:
        print(f"note: ({obj}, {measurand}) skipped: {reason}", file=sys.stderr)
    _emit(args, _report_document(reports, args))
    return 0


def _parse_where(entries):
    predicate = []
    for entry in entries:
        name, sep, label = entry.partition("=")
        if not sep or not name.startswith("cond.") or not label:
            raise InvalidParameters(
                f"--where must look like cond.<name>=<label>, got {entry!r}")
        predicate.append((name[len("cond."):], label.strip("\"'")))
    return predicate


def cmd_subgroup(args) -> int:
    dataset = _load(args)
    predicate = _parse_where(args.where or [])
    report = subgroup_assess(dataset, args.object, args.measurand, predicate)
    _emit(args, _report_document([report], args))
    return 0


def cmd_simulate(args) -> int:
    result = simulate(args.n, args.sigma, args.trials, args.seed)
    lines = [
        f"estimator diagnostics (seed {result.seed})",
        f"n          {result.n}",
        f"sigma      {result.sigma:g}",
        f"trials     {result.trials}",
        f"mean(s)    {result.mean_s:.7g}",
        f"mean(s*)   {result.mean_s_star:.7g}",
        f"95% CI coverage of sigma: {result.ci_coverage:.4f}",
    ]
    _emit(args, "\n".join(lines) + "\n")
    return 0


def _add_dataset_args(parser):
    parser.add_argument("--input", required=True,
                        help="dataset file, or 'builtin' for the bundled benchmark")
    parser.add_argument("--format", choices=("csv", "json", "auto"), default="auto",
                        help="input file format (default: by extension)")


def _add_output_args(parser):
    parser.add_argument("--render", choices=("text", "markdown", "csv", "json"),
                        default="text", help="output document format")
    parser.add_argument("--out", help="write output to this file instead of stdout")
    parser.add_argument("--conditions", action="store_true",
                        help="also print the condition matrix for each result")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qra",
        description="Assess the reproducibility of evaluation scores: "
                    "de-biased precision (CV*) with confidence statistics, "
                    "attributed to conditions of measurement.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a dataset and report issues")
    _add_dataset_args(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("assess", help="run assessments for matching pairs")
    _add_dataset_args(p)
    p.add_argument("--object", help="restrict to one object id")
    p.add_argument("--measurand", help="restrict to one measurand id")
    _add_output_args(p)
    p.set_defaults(func=cmd_assess)

    p = sub.add_parser("subgroup", help="assess a condition-filtered subset")
    _add_dataset_args(p)
    p.add_argument("--object", required=True)
    p.add_argument("--measurand", required=True)
    p.add_argument("--where", action="append", metavar="cond.<name>=<label>",
                   help="keep only measurements whose condition has this "
                        "label (repeatable; conjunctive)")
    _add_output_args(p)
    p.set_defaults(func=cmd_subgroup)

    p = sub.add_parser("simulate", help="Monte Carlo estimator diagnostics")
    p.add_argument("--n", type=int, required=True, help="sample size per trial")
    p.add_argument("--sigma", type=float, required=True, help="true stdev")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", help="write output to this file instead of stdout")
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except QraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
