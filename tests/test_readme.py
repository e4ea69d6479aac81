"""README.md's Python examples run as written."""
import re
from pathlib import Path

import qrakit
from qrakit import assess_all, bundled_paper_dataset
from qrakit.render import RenderSpec, render_reports

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
