"""Command-line interface: validate, assess, subgroup and simulate.

Exit codes: 0 success, else the ``exit_code`` of the QraError that ended
the command: 1 dataset/validation errors, 2 usage errors, 3 computation
errors (e.g. a degenerate mean or too few measurements).
"""
from __future__ import annotations

import argparse
import os
import sys

from .engine import assess_all, subgroup_assess
from .errors import InvalidParameters, QraError, ValidationError
from .io import (
    _BUNDLED,
    FORMATS as DATASET_FORMATS,
    _encode_error,
    _read_dataset,
    _write,
    load_dataset,
)
from .model import validate_dataset
from .render import FORMATS, RenderSpec, _one_line, render_reports
from .sim import simulate


def _emit(document: str, out=None) -> None:
    if out is not None:
        try:
            _write([(out, [document])])
        except OSError as exc:
            raise InvalidParameters(f"--out {out}: {exc.strerror or exc}") from exc
    else:
        try:
            sys.stdout.write(document)
            sys.stdout.flush()
        except UnicodeEncodeError as exc:  # raised before anything is written
            raise _encode_error("stdout", exc) from exc
        except BrokenPipeError as exc:
            # the reader is gone: send the unflushed rest, which the
            # interpreter writes at exit, to devnull instead of the pipe
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise InvalidParameters(f"stdout: {exc.strerror}") from exc


def cmd_validate(args) -> int:
    # parse without validating, so that one pass finds errors and warnings
    dataset = _read_dataset(args.input, args.format)
    issues = validate_dataset(dataset)
    errors = [i for i in issues if i.severity == "error"]
    # with blocking errors, only they are printed
    lines = [_one_line(f"{issue.severity}: {issue.location}: {issue.message}") + "\n"
             for issue in errors or issues]
    if not errors:
        lines.append(f"ok: {len(dataset.measurements)} measurements, "
                     f"{len(dataset.pairs())} (object, measurand) pairs\n")
    _emit("".join(lines))
    return ValidationError.exit_code if errors else 0


def cmd_assess(args) -> int:
    reports, skipped = assess_all(load_dataset(args.input, args.format), args.object, args.measurand)
    for (obj, measurand), reason in skipped:
        print(_one_line(f"note: ({obj}, {measurand}) skipped: {reason}"), file=sys.stderr)
    _emit(render_reports(reports, RenderSpec(args.render), args.conditions), args.out)
    return 0


def _parse_where(entries):
    predicate = []
    for entry in entries:
        name, sep, label = entry.partition("=")
        if not sep or not name.startswith("cond.") or not label:
            raise InvalidParameters(
                f"--where must look like cond.<name>=<label>, got {entry!r}")
        predicate.append((name[len("cond."):], label))
    return predicate


def cmd_subgroup(args) -> int:
    dataset = load_dataset(args.input, args.format)
    predicate = _parse_where(args.where or [])
    report = subgroup_assess(dataset, args.object, args.measurand, predicate)
    for m in report.excluded:
        source = f" from {m.source}" if m.source else ""
        print(_one_line(f"note: ({args.object}, {args.measurand}) excluded: {m.value}{source}"),
              file=sys.stderr)
    _emit(render_reports([report], RenderSpec(args.render), args.conditions), args.out)
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
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _add_dataset_args(parser):
    parser.add_argument("--input", required=True, type=lambda s: _BUNDLED if s == "builtin" else s,
                        help="dataset file, or 'builtin' for the bundled benchmark JSON file")
    parser.add_argument("--format", choices=(*DATASET_FORMATS, "auto"), default="auto",
                        help="input file format (default: by extension)")


def _add_output_args(parser):
    parser.add_argument("--render", choices=FORMATS,
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
        print(_one_line(f"error: {exc}"), file=sys.stderr)
        return exc.exit_code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
