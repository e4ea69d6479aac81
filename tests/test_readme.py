"""README.md's Python examples run as written."""
import re
from pathlib import Path

import qrakit
from qrakit import assess_all, bundled_paper_dataset
from qrakit.render import RenderSpec, render_reports
from qrakit.sim import simulate

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_examples_run_in_order_in_one_namespace():
    text = README.read_text(encoding="utf-8")
    blocks = list(re.finditer(r"^```python\n(.*?)^```$", text, re.M | re.S))
    assert blocks
    # the raw_decode example reads a `qra assess --render json --conditions` output
    namespace = {"out": render_reports(assess_all(bundled_paper_dataset())[0],
                                       RenderSpec("json"), True)}
    for block in blocks:
        # padded so that a traceback gives the README's own line numbers
        line = text.count("\n", 0, block.start(1))
        exec(compile("\n" * line + block[1], str(README), "exec"), namespace)
    assert len(namespace["docs"]) == 19  # the precision table and 18 matrices


def test_every_public_class_is_a_named_tuple_listed_as_a_record():
    records = {name for name in qrakit.__all__
               if isinstance(getattr(qrakit, name), type)
               and not issubclass(getattr(qrakit, name), BaseException)}
    for name in records:
        cls = getattr(qrakit, name)
        assert issubclass(cls, tuple) and hasattr(cls, "_fields"), name
    text = " ".join(README.read_text(encoding="utf-8").split())
    sentence = re.search(r"Every record is a named tuple \(.*?\):(.*?)\.\s", text)
    assert set(re.findall(r"`(\w+)`", sentence[1])) == records


def test_ci_coverage_table_matches_simulate():
    # the coverage table follows the sentence that names its simulate call
    text = README.read_text(encoding="utf-8")
    table = text[text.index("`simulate(n, 1.0, 100000, 1).ci_coverage` gives:"):]
    rows = re.findall(r"^\| (\d+) \| (0\.\d{3}) \|$", table.split("\n\n")[1], re.M)
    assert [n for n, _ in rows] == ["2", "3", "4", "5", "10", "30"]
    for n, coverage in rows:
        assert f"{simulate(int(n), 1.0, 100000, 1).ci_coverage:.3f}" == coverage, n
