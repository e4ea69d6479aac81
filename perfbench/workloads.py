"""The four workloads: set-up, one op, and the oracle check of an op.

A workload object is built in a fresh worker process; building it is the
set-up (inputs generated and written, warm-up done). ``prepare`` then
computes the oracle's expectations, outside set-up and outside the timer.
``schedule(worker)`` yields the seeded sequence of op variants that the
run's worker number ``worker`` times, and ``trace_cycle`` the fixed
variants of the traced run, so the traced run's counts do not depend on
the seed. ``op`` is the timed part;
``collect`` turns its result into the outputs that ``verify`` checks and
that a traced op must reproduce exactly.
"""
from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import corpus
import oracle

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUNDLED = SRC / "qrakit" / "data" / "qra_benchmark.json"
CONDITIONS = [name for name, _ in corpus.SCHEMA]
FORMATS = ("text", "markdown", "csv", "json")


def child_env():
    """Environment for child processes: this checkout's src first on
    PYTHONPATH, no terminal styling."""
    paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths), QRA_NO_COLOR="1")


def import_qrakit():
    """Import qrakit from this checkout's src, never from anywhere else."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import qrakit
    if Path(qrakit.__file__).resolve().parent != SRC / "qrakit":
        raise ImportError(f"qrakit imported from {qrakit.__file__}, not {SRC}")
    return qrakit


def bundled_corpus():
    """The bundled dataset as corpus data, read with json, not qrakit."""
    obj = json.loads(BUNDLED.read_text(encoding="utf-8"))
    return obj, {
        "objects": [o["id"] for o in obj["objects"]],
        "measurands": [(m["id"], m.get("unit", ""), m.get("scale_min", 0.0),
                        m.get("scale_max"), m.get("value_kind", "continuous"), None)
                       for m in obj["measurands"]],
        "rows": [(r["object"], r["measurand"], r["value"], r.get("source", ""),
                  tuple(r["conditions"].get(name) for name in CONDITIONS))
                 for r in obj["measurements"]],
    }


class Workload:
    in_process = True

    def collect(self, variant, raw):
        return raw

    def traced_op(self, variant, tracer):
        """(op result, per-layer totals, op seconds) of one traced op."""
        with tracer.installed(*self.shared_datasets()):
            start = perf_counter()
            raw = self.op(variant)
            seconds = perf_counter() - start
        return raw, tracer.take(), seconds

    def shared_datasets(self):
        return ()


# ----------------------------------------------------------------- cli_cold

QRA = "import sys; from qrakit.cli import entrypoint; entrypoint()"
TRACED_QRA = Path(__file__).resolve().parent / "cli_traced.py"
SIM_TRIALS = 20000
KINDS = ("assess_builtin", "assess_object_markdown", "subgroup", "validate",
         "assess_json_out", "simulate")


class CliCold(Workload):
    """Each op is one fresh ``qra`` process; the seed picks the command."""

    in_process = False

    def __init__(self, workdir, seed):
        self.workdir = Path(workdir)
        self.seed = seed
        self.env = child_env()
        obj, data = bundled_corpus()
        self.groups = oracle.Groups.from_json_obj(obj)
        self.json_out = self.workdir / "assess.json"
        _, self.csv = corpus.write(data, self.workdir, "bundled")
        self.run(["assess", "--input", "builtin"])

    def run(self, argv, traced_out=None):
        prefix = ([sys.executable, str(TRACED_QRA), str(traced_out)] if traced_out
                  else [sys.executable, "-c", QRA])
        return subprocess.run(prefix + argv, cwd=self.workdir, env=self.env,
                              capture_output=True, text=True, timeout=120)

    def prepare(self):
        g = self.groups
        self.pairs = g.pairs(2)
        self.objects = sorted({o for o, _ in self.pairs})
        # --where strips quotes around a label, so it cannot carry these
        self.predicates = [p for p in g.equality_subgroups() if p[2].strip("\"'") == p[2]]

    def _variant(self, kind, rng):
        if kind == "assess_object_markdown":
            return kind, rng.choice(self.objects)
        if kind == "subgroup":
            return kind, rng.choice(self.predicates)
        if kind == "simulate":
            return kind, (rng.randint(2, 8), rng.choice((0.5, 1.0, 2.0, 5.0)), rng.randrange(10**6))
        return kind, None

    def schedule(self, worker):
        rng = random.Random(f"{self.seed}-{worker}")
        while True:
            yield self._variant(rng.choice(KINDS), rng)

    def trace_cycle(self):
        pin = oracle.PAPER_PINS[1]
        fixed = {"assess_object_markdown": "NTS_def",
                 "subgroup": ((pin[0], pin[1]), *pin[2]),
                 "simulate": (5, 1.0, 42)}
        return [(kind, fixed.get(kind)) for kind in KINDS]

    def argv(self, variant):
        kind, p = variant
        if kind == "assess_builtin":
            return ["assess", "--input", "builtin"]
        if kind == "assess_object_markdown":
            return ["assess", "--input", str(self.csv), "--object", p,
                    "--conditions", "--render", "markdown"]
        if kind == "subgroup":
            (obj, meas), name, label = p
            return ["subgroup", "--input", "builtin", "--object", obj,
                    "--measurand", meas, "--where", f"cond.{name}={label}"]
        if kind == "validate":
            return ["validate", "--input", str(self.csv)]
        if kind == "assess_json_out":
            return ["assess", "--input", "builtin", "--render", "json",
                    "--out", str(self.json_out)]
        n, sigma, seed = p
        return ["simulate", "--n", str(n), "--sigma", str(sigma),
                "--trials", str(SIM_TRIALS), "--seed", str(seed)]

    def op(self, variant):
        return self.run(self.argv(variant))

    def traced_op(self, variant, tracer):
        spans_file = self.workdir / "layers.json"
        start = perf_counter()
        raw = self.run(self.argv(variant), traced_out=spans_file)
        seconds = perf_counter() - start
        return raw, json.loads(spans_file.read_text(encoding="utf-8")), seconds

    def collect(self, variant, raw):
        written = ""
        if variant[0] == "assess_json_out" and self.json_out.exists():
            written = self.json_out.read_text(encoding="utf-8")
            self.json_out.unlink()
        return raw.returncode, raw.stdout, raw.stderr, written

    def verify(self, variant, output):
        kind, p = variant
        code, out, err, written = output
        if code != 0:
            return [f"{kind}: exit {code}: {err.strip()[-300:]}"]
        g = self.groups
        every = [(pair, g.expect(pair)) for pair in self.pairs]
        if kind == "assess_builtin":
            found = oracle.check_table(out, "text", every, kind)
            obj, meas, _, published = oracle.PAPER_PINS[0]
            shown = {(r[0], r[1]): r[5] for r in oracle.parse_table(out, "text")}
            if shown.get((obj, meas)) != f"{published:.3f}":
                found.append(f"{kind}: {obj}/{meas} CV* {shown.get((obj, meas))} != {published}")
            return found
        if kind == "assess_object_markdown":
            expected = [(pair, g.expect(pair)) for pair in self.pairs if pair[0] == p]
            found = oracle.check_table(out, "markdown", expected, kind)
            calls = re.findall(r"^classification: (\w+)$", out, re.M)
            if calls != [exp.call for _, exp in expected]:
                found.append(f"{kind}: classifications {calls}")
            return found
        if kind == "subgroup":
            pair, name, label = p
            return oracle.check_table(out, "text", [(pair, g.expect(pair, g.label_is(name, label)))],
                                      f"{kind} {pair} {name}={label}")
        if kind == "validate":
            n_rows = sum(len(rows) for rows in g.rows.values())
            ok = f"ok: {n_rows} measurements, {len(g.rows)} (object, measurand) pairs"
            return [] if out.splitlines() == [ok] else [f"{kind}: {out!r}"]
        if kind == "assess_json_out":
            return oracle.check_table(written, "json", every, kind)
        return _check_simulation(out, *p)

    def shape(self):
        return {"rows": sum(len(r) for r in self.groups.rows.values()),
                "pairs": len(self.groups.rows)}


def _check_simulation(out, n, sigma, seed):
    """Monte Carlo output against theory: E[s] = c4(n) sigma and E[s*] = sigma,
    within 8 standard errors of the mean over SIM_TRIALS draws."""
    fields = dict(re.findall(r"^(mean\(s\*?\)|n|trials)\s+(\S+)$", out, re.M))
    coverage = re.search(r"coverage of sigma: (\S+)$", out, re.M)
    if not coverage or len(fields) != 4:
        return [f"simulate: unparsable output {out!r}"]
    c4 = oracle.c4(n)
    se_s = sigma * math.sqrt(1.0 - c4 * c4) / math.sqrt(SIM_TRIALS)
    found = []
    if int(fields["n"]) != n or int(fields["trials"]) != SIM_TRIALS:
        found.append("simulate: echoed parameters differ")
    if abs(float(fields["mean(s)"]) - c4 * sigma) > 8 * se_s:
        found.append(f"simulate n={n} seed={seed}: mean(s) {fields['mean(s)']} far from {c4 * sigma}")
    if abs(float(fields["mean(s*)"]) - sigma) > 8 * se_s / c4:
        found.append(f"simulate n={n} seed={seed}: mean(s*) {fields['mean(s*)']} far from {sigma}")
    if not 0.0 <= float(coverage.group(1)) <= 1.0:
        found.append(f"simulate: coverage {coverage.group(1)}")
    return found


# ------------------------------------------------------------ library_sweep

class LibrarySweep(Workload):
    """Each op: every pair, every single-condition equality subgroup with a
    defined CV*, one ``where=`` subgroup per pair, and the pair table in all
    four render formats, on the bundled dataset loaded once at set-up."""

    def __init__(self, workdir, seed):
        self.qra = import_qrakit()
        self.dataset = self.qra.bundled_paper_dataset()
        self.groups = g = oracle.Groups.from_json_obj(json.loads(BUNDLED.read_text(encoding="utf-8")))
        self.pairs = g.pairs(2)
        calls = [("pair", pair, None) for pair in self.pairs]
        calls += [("eq", pair, (name, label)) for pair, name, label in g.equality_subgroups()]
        for pair in self.pairs:
            # where=: drop the largest score when at least two others remain
            values = [r[2] for r in g.rows[pair]]
            top = max(values)
            cut = top if sum(v < top for v in values) >= 2 else math.inf
            calls.append(("where", pair, cut))
        random.Random(seed).shuffle(calls)
        self.calls = calls
        self.specs = [self.qra.RenderSpec(format=fmt) for fmt in FORMATS]
        self.op(None)

    def shared_datasets(self):
        return (self.dataset,)

    def prepare(self):
        g = self.groups
        self.expected = []
        for kind, pair, arg in self.calls:
            keep = (None if kind == "pair" else g.label_is(*arg) if kind == "eq"
                    else (lambda r, cut=arg: r[2] < cut))
            self.expected.append(g.expect(pair, keep))
        self.table = [(pair, g.expect(pair)) for pair in self.pairs]
        published = {((obj, meas), predicate): cv for obj, meas, predicate, cv in oracle.PAPER_PINS}
        self.pins = [(i, published[pair, arg]) for i, (kind, pair, arg) in enumerate(self.calls)
                     if kind != "where" and (pair, arg) in published]

    def schedule(self, worker):
        while True:
            yield None

    def trace_cycle(self):
        return [None]

    def op(self, variant):
        qra, ds = self.qra, self.dataset
        reports, by_pair = [], {}
        for kind, (obj, meas), arg in self.calls:
            if kind == "pair":
                report = by_pair[obj, meas] = qra.run_qra_test(ds, obj, meas)
            elif kind == "eq":
                report = qra.subgroup_assess(ds, obj, meas, [arg])
            else:
                report = qra.subgroup_assess(ds, obj, meas, where=lambda m, cut=arg: m.value < cut)
            reports.append(report)
        table = [by_pair[pair] for pair in self.pairs]
        return reports, [qra.render_precision_table(table, spec) for spec in self.specs]

    def verify(self, variant, output):
        reports, documents = output
        found = []
        for (kind, pair, arg), report, exp in zip(self.calls, reports, self.expected):
            found += oracle.check_report(report, exp, f"{kind} {pair} {arg}")
        for fmt, document in zip(FORMATS, documents):
            found += oracle.check_table(document, fmt, self.table, f"render {fmt}")
        for i, published in self.pins:
            if round(reports[i].precision.cv_star, 3) != published:
                found.append(f"pin {self.calls[i][1:]}: {reports[i].precision.cv_star} != {published}")
        return found

    def shape(self):
        kinds = [kind for kind, _, _ in self.calls]
        return {"pairs": kinds.count("pair"), "eq_subgroups": kinds.count("eq"),
                "where_subgroups": kinds.count("where")}


# ---------------------------------------------------------- corpus workloads

def write_corpus(seed, n_objects, directory, stem):
    """Generate and write a corpus in a child process, so the generator's
    memory stays out of the worker's peak RSS; return its two paths."""
    subprocess.run([sys.executable, str(Path(corpus.__file__)), str(seed), str(n_objects),
                    str(directory), stem], check=True, timeout=120)
    return corpus.paths(directory, stem)


class _Corpus(Workload):
    def __init__(self, workdir, seed, n_objects=corpus.FULL_OBJECTS):
        self.qra = import_qrakit()
        self.workdir = Path(workdir)
        self.seed, self.n_objects = seed, n_objects
        self.paths = dict(zip(("json", "csv"), write_corpus(seed, n_objects, self.workdir, "corpus")))
        for path in write_corpus(seed, corpus.WARMUP_OBJECTS, self.workdir, "warmup"):
            self._pass(path)

    def prepare(self):
        self.data = corpus.generate(self.seed, self.n_objects)

    def shape(self):
        return corpus.shape(self.data)


class Corpus10k(_Corpus):
    """Each op: load one file, assess every pair with n >= 2, render a table.
    Ops alternate between the JSON and the CSV file, JSON first."""

    def schedule(self, worker):
        while True:
            yield from ("json", "csv")

    def trace_cycle(self):
        return ["json", "csv"]

    def op(self, fmt):
        return self._pass(self.paths[fmt])

    def _pass(self, path):
        qra = self.qra
        ds = qra.load_dataset(path)
        counts = {}
        for m in ds.measurements:
            counts[m.object, m.measurand] = counts.get((m.object, m.measurand), 0) + 1
        reports = [qra.run_qra_test(ds, obj, meas)
                   for obj, meas in ds.pairs() if counts[obj, meas] >= 2]
        return reports, qra.render_precision_table(reports)

    def prepare(self):
        super().prepare()
        g = oracle.Groups(CONDITIONS, {m[0]: m[2] for m in self.data["measurands"]},
                          self.data["rows"])
        self.expected = [(pair, g.expect(pair)) for pair in g.pairs(2)]

    def verify(self, fmt, output):
        reports, document = output
        if len(reports) != len(self.expected):
            return [f"{fmt}: {len(reports)} reports for {len(self.expected)} pairs"]
        found = []
        for report, (pair, exp) in zip(reports, self.expected):
            found += oracle.check_report(report, exp, f"{fmt} {pair}")
        return found + oracle.check_table(document, "text", self.expected, fmt)


class CorpusConvert(_Corpus):
    """Each op converts both ways: load the JSON file and save it as CSV,
    then load the CSV file and save it as JSON; no engine work. The two
    directions differ by about a quarter in cost, so an op of one direction
    would make the median jump with the parity of the op count."""

    def schedule(self, worker):
        while True:
            yield None

    def trace_cycle(self):
        return [None]

    def op(self, variant):
        return [self._pass(self.paths[fmt]) for fmt in ("json", "csv")]

    def _pass(self, path):
        path = Path(path)
        target = path.with_name("converted" + (".csv" if path.suffix == ".json" else ".json"))
        self.qra.save_dataset(self.qra.load_dataset(path), target)
        return target

    def collect(self, variant, targets):
        return [(t.suffix, t.read_text(encoding="utf-8"),
                 corpus.sidecar_path(t).read_text(encoding="utf-8") if t.suffix == ".csv" else None)
                for t in targets]

    def verify(self, variant, outputs):
        return [problem for output in outputs for problem in self._check_file(*output)]

    def _check_file(self, suffix, text, sidecar):
        """The written file must hold the generated corpus, row for row."""
        header = {"objects": self.data["objects"],
                  "measurands": [(m[0], m[2], m[3]) for m in self.data["measurands"]]}
        obj = json.loads(text if sidecar is None else sidecar)
        if suffix == ".json":
            rows = [(r["object"], r["measurand"], r["value"], r["source"],
                     tuple(r["conditions"][name] for name in CONDITIONS))
                    for r in obj["measurements"]]
        else:
            reader = csv.reader(io.StringIO(text))
            head = next(reader)
            if head != ["object", "measurand", "value", "source"] + ["cond." + c for c in CONDITIONS]:
                return [f"csv header {head}"]
            rows = [(r[0], r[1], float(r[2]), r[3], tuple(label or None for label in r[4:]))
                    for r in reader]
        got = {"objects": [o["id"] for o in obj["objects"]],
               "measurands": [(m["id"], m["scale_min"], m["scale_max"]) for m in obj["measurands"]]}
        found = [] if got == header else [f"{suffix}: objects or measurands differ"]
        if rows != list(self.data["rows"]):
            found.append(f"{suffix}: measurement rows differ from the generated corpus")
        return found


WORKLOADS = {
    "cli_cold": CliCold,
    "library_sweep": LibrarySweep,
    "corpus_10k": Corpus10k,
    "corpus_convert": CorpusConvert,
}
