"""Run one ``qra`` command with the layer tracer installed.

Usage: python3 cli_traced.py LAYERS_JSON <qra arguments...>

Behaves like ``qra <arguments>`` (same stdout, stderr and exit code) and
writes the per-layer totals of the command to LAYERS_JSON. qrakit must be
importable (PYTHONPATH).
"""
import json
import sys

import qrakit.cli

from tracing import Tracer


def main(out_path, argv):
    tracer = Tracer()
    tracer.install()
    try:
        code = qrakit.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.take(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
