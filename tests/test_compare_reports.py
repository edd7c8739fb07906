"""tools/compare_reports.py: value changes of two CLI reports."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "compare_reports.py"
_spec = importlib.util.spec_from_file_location("compare_reports", _PATH)
compare_reports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_reports)


def _report(value, passed, wall=1.0):
    return {"experiment": "scatter", "records": [{"speed_drift": value,
                                                  "pass": passed}],
            "summary": {"max_residual": value, "pass": passed,
                        "wall_time_s": wall}}


@pytest.mark.parametrize("after, status, shown", [
    (_report(1e-10, True, wall=9.0), 0, "0 of 5 values moved"),
    (_report(1.5e-10, True), 0, "abs 5e-11  rel 0.5"),
    (_report(2e-8, False), 1, "summary.pass FLIPPED True -> False"),
    ({"experiment": "scatter", "records": []}, 2, "different leaves")])
def test_compare_reports(tmp_path, capsys, after, status, shown):
    """wall_time_s is ignored, a moved value is shown with its absolute
    and relative change, a flipped pass/fail exits 1 and reports of
    different shapes exit 2; directories compare same-named reports."""
    for side, rep in (("a", _report(1e-10, True)), ("b", after)):
        (tmp_path / side).mkdir()
        (tmp_path / side / "scatter.json").write_text(json.dumps(rep))
    assert compare_reports.main([str(tmp_path / "a" / "scatter.json"),
                                 str(tmp_path / "b" / "scatter.json")]) \
        == status
    assert shown in capsys.readouterr().out
    assert compare_reports.main([str(tmp_path / "a"),
                                 str(tmp_path / "b")]) == status
