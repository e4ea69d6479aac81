"""Seeded synthetic results corpus, written as qrakit's JSON and CSV+sidecar.

The corpus mimics the paper's use case at scale: many (object, measurand)
groups of 2-8 scores, a few singleton pairs, some Unknown condition cells,
rows in no particular order. Its *shape* is fixed by the object count:
every seed gives the same number of rows, pairs, singletons and Unknown
cells, so an op costs the same for every seed and the traced run's call
counts repeat exactly. The seed picks everything else: which measurands
each object has, which pair gets which size, the values, the labels,
where the Unknowns fall and the row order.

Only the standard library is used; qrakit sees nothing but the files.

Usage: python3 corpus.py SEED N_OBJECTS DIRECTORY STEM  (writes the files)
"""
from __future__ import annotations

import csv
import io
import json
import random
import sys
from pathlib import Path

SCHEMA = (
    ("system_code", "object_condition"),
    ("compile_training_info", "object_condition"),
    ("method_specification", "measurement_method"),
    ("implementation", "measurement_method"),
    ("procedure", "measurement_procedure"),
    ("test_set", "measurement_procedure"),
    ("performed_by", "measurement_procedure"),
)

# (id, unit, scale_min, scale_max, value_kind, decimals)
MEASURANDS = (
    ("BLEU", "", 0.0, 100.0, "continuous", 2),
    ("SARI", "", 0.0, 100.0, "continuous", 2),
    ("chrF", "", 0.0, 100.0, "continuous", 2),
    ("METEOR", "", 0.0, 1.0, "continuous", 4),
    ("ROUGE-L", "", 0.0, 1.0, "continuous", 4),
    ("wF1", "", 0.0, 1.0, "continuous", 4),
    ("accuracy", "%", 0.0, 100.0, "percentage", 2),
    ("StanceId", "%", 0.0, 100.0, "percentage", 2),
    ("Clarity", "", 1.0, 7.0, "continuous", 3),
    ("Fluency", "", 1.0, 7.0, "continuous", 3),
    ("Adequacy", "", 1.0, 5.0, "continuous", 3),
    ("Relevance", "", 1.0, 5.0, "continuous", 3),
)

# Label vocabularies; a comma, quotes and non-ASCII exercise CSV quoting
# and UTF-8 handling on both formats.
_LABELS = {
    "system_code": ("original", "reimplemented", "patched", "ported"),
    "compile_training_info": ("authors", "Nisioi et al.", "retrained", "≈authors"),
    "method_specification": ("bleu(o,t)", "sacrebleu", "paper spec", "rubric v2"),
    "implementation": ("authors' script", "SacreBLEU", "nltk", "in-house"),
    "procedure": ("OTE", "OITE", "crowd", "expert panel"),
    "test_set": ("test", "test-2", "dev", "held-out \"B\""),
    "performed_by": ("authors", "team, B", "Équipe 3", "students"),
}

UNKNOWN_SHARE = 0.10
SINGLETON_SHARE = 0.05
FULL_OBJECTS = 1000   # ~10k measurements
WARMUP_OBJECTS = 20   # ~200 measurements


def _sizes(n_objects):
    """Measurands per object and group size per pair, as fixed multisets."""
    ones, twos = round(0.30 * n_objects), round(0.32 * n_objects)
    per_object = [1] * ones + [2] * twos + [3] * (n_objects - ones - twos)
    n_pairs = sum(per_object)
    singletons = round(SINGLETON_SHARE * n_pairs)
    group_sizes = [1] * singletons + [2 + i % 7 for i in range(n_pairs - singletons)]
    return per_object, group_sizes


def generate(seed, n_objects=FULL_OBJECTS):
    """Build a corpus as plain data: measurand and object ids plus rows.

    Each row is (object, measurand, value, source, labels), where labels
    has one entry per SCHEMA condition and None marks Unknown.
    """
    rng = random.Random(seed)
    per_object, group_sizes = _sizes(n_objects)
    rng.shuffle(per_object)
    rng.shuffle(group_sizes)
    objects = [f"sys{i:04d}" for i in range(n_objects)]
    names = [name for name, _ in SCHEMA]

    pairs = []
    for obj, k in zip(objects, per_object):
        for spec in rng.sample(MEASURANDS, k):
            pairs.append((obj, spec))

    rows = []
    for (obj, (mid, _, lo, hi, _, decimals)), n in zip(pairs, group_sizes):
        # A level well inside the scale and a relative spread small enough
        # that every value stays strictly inside (lo, hi].
        level = lo + (hi - lo) * rng.uniform(0.2, 0.8)
        spread = rng.uniform(0.002, 0.05)
        base = {name: rng.choice(_LABELS[name]) for name in names}
        varying = [] if rng.random() < 0.2 else rng.sample(names, rng.randint(1, 3))
        for j in range(n):
            value = round(level * (1.0 + rng.gauss(0.0, spread)), decimals)
            value = min(max(value, lo + 10.0 ** -decimals), hi)
            labels = [rng.choice(_LABELS[name]) if name in varying and j else base[name]
                      for name in names]
            rows.append([obj, mid, value, f"study{rng.randrange(60):02d}", labels])

    cells = [(r, c) for r in range(len(rows)) for c in range(len(names))]
    for r, c in rng.sample(cells, round(UNKNOWN_SHARE * len(cells))):
        rows[r][4][c] = None
    rng.shuffle(rows)
    return {
        "objects": objects,
        "measurands": MEASURANDS,
        "rows": [(o, m, v, s, tuple(labels)) for o, m, v, s, labels in rows],
    }


def shape(corpus):
    """The properties a later change may claim a gain for, as shares."""
    counts = {}
    for o, m, *_ in corpus["rows"]:
        counts[(o, m)] = counts.get((o, m), 0) + 1
    cells = [label for *_, labels in corpus["rows"] for label in labels]
    return {
        "rows": len(corpus["rows"]),
        "objects": len(corpus["objects"]),
        "pairs": len(counts),
        "assessable_pairs": sum(1 for n in counts.values() if n >= 2),
        "singleton_share": sum(1 for n in counts.values() if n == 1) / len(counts),
        "unknown_share": sum(1 for label in cells if label is None) / len(cells),
    }


def _header_obj(corpus):
    return {
        "schema": {"conditions": [{"name": n, "category": c} for n, c in SCHEMA]},
        "objects": [{"id": o, "display_name": o, "description": None}
                    for o in corpus["objects"]],
        "measurands": [
            {"id": mid, "display_name": mid, "unit": unit, "scale_min": lo,
             "scale_max": hi, "value_kind": kind}
            for mid, unit, lo, hi, kind, _ in corpus["measurands"]
        ],
    }


def _dumps(obj):
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


def json_text(corpus):
    obj = _header_obj(corpus)
    names = [name for name, _ in SCHEMA]
    obj["measurements"] = [
        {"object": o, "measurand": m, "value": v, "source": s, "timestamp": None,
         "conditions": dict(zip(names, labels))}
        for o, m, v, s, labels in corpus["rows"]
    ]
    return _dumps(obj)


def csv_text(corpus):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["object", "measurand", "value", "source"]
                    + ["cond." + name for name, _ in SCHEMA])
    for o, m, v, s, labels in corpus["rows"]:
        writer.writerow([o, m, repr(v), s] + [label or "" for label in labels])
    return buf.getvalue()


def sidecar_path(csv_path):
    return Path(csv_path).with_suffix(".meta.json")


def paths(directory, stem="corpus"):
    """The JSON and CSV paths ``write`` uses."""
    return Path(directory) / f"{stem}.json", Path(directory) / f"{stem}.csv"


def write(corpus, directory, stem="corpus"):
    """Write <stem>.json and <stem>.csv (+ sidecar); return both paths."""
    json_path, csv_path = paths(directory, stem)
    json_path.write_text(json_text(corpus), encoding="utf-8")
    with csv_path.open("w", newline="", encoding="utf-8") as fh:
        fh.write(csv_text(corpus))
    sidecar_path(csv_path).write_text(_dumps(_header_obj(corpus)), encoding="utf-8")
    return json_path, csv_path


if __name__ == "__main__":
    seed, n_objects, directory, stem = sys.argv[1:]
    write(generate(int(seed), int(n_objects)), directory, stem)
