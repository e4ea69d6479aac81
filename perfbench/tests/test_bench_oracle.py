import dataclasses
import json

import oracle
import workloads


def _bundled_groups():
    return oracle.Groups.from_json_obj(json.loads(workloads.BUNDLED.read_text(encoding="utf-8")))


def test_oracle_reproduces_paper_pins():
    assert oracle.check_pins(_bundled_groups()) == []


def test_oracle_flags_a_wrong_cv_star():
    import qrakit

    groups = _bundled_groups()
    pairs = groups.pairs(2)
    reports = [qrakit.run_qra_test(qrakit.bundled_paper_dataset(), *pair) for pair in pairs]
    expected = [(pair, groups.expect(pair)) for pair in pairs]
    table = qrakit.render_precision_table(reports)
    assert oracle.check_table(table, "text", expected) == []
    assert oracle.check_table(table.replace("1.562", "1.563"), "text", expected) != []
    assert all(oracle.check_report(r, e) == [] for r, (_, e) in zip(reports, expected))
    wrong = dataclasses.replace(expected[0][1], cv_star=expected[0][1].cv_star * 1.001)
    assert oracle.check_report(reports[0], wrong) != []
