"""The parsers of `tools/against_parent.py` on a fixed sample of pytest output."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "against_parent.py"
_spec = importlib.util.spec_from_file_location("against_parent", TOOL)
against_parent = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(against_parent)

GATE = """\
tests/test_acceptance.py criterion 1: worst estimate gap 1.78e-15, worst objective gap 2.13e-14, 0.52s
.criterion 2: state projections 32570, attack projections 43096; weighted-norm violations x=0 d=0
.criterion 3: all-four-smaller in 100/100 runs, mean ratios [0.819 0.704 0.828 0.699], MC elapsed 0.4s
.criterion 4: mean F_neg care 0.467 vs ise 0.545; sustained alarms 99/100
criterion 5: run_mean_x mean/4se = [0.1 0.2 0.3 0.4]
.criterion 6: decile means [0.1 0.1], last/fifth 0.936, max covariance trace 2.227e+00, elapsed 3.1s
.criterion 7: worst round-trip error 1.11e-16, quantile(2, 0.01) = 9.2103403720 vs oracle 9.2103403720
.
FAILED tests/test_x.py::test_a - AssertionError: at /tmp/against-1/rev/src/a.py
======= 275 passed, 1 skipped, 4 xfailed in 15.35s =======
"""


def test_gate_lines_drop_elapsed_times_and_progress_marks():
    lines = against_parent.criterion_lines(GATE)
    assert [line.split(":")[0] for line in lines] == [f"criterion {n}" for n in range(1, 8)]
    assert lines[0] == "criterion 1: worst estimate gap 1.78e-15, worst objective gap 2.13e-14"
    assert lines[2].endswith("mean ratios [0.819 0.704 0.828 0.699]")
    assert lines[4] == "criterion 5: run_mean_x mean/4se = [0.1 0.2 0.3 0.4]"
    assert lines[5].endswith("max covariance trace 2.227e+00")
    assert lines[6].endswith("9.2103403720 vs oracle 9.2103403720")


def test_counts_failures_and_mutants():
    assert against_parent.summary_counts(GATE) == ["275 passed, 1 skipped, 4 xfailed"]
    assert against_parent.summary_counts("no summary") == ["no pytest summary line"]
    assert against_parent.failures(GATE, Path("/tmp/against-1/rev")) == [
        "FAILED tests/test_x.py::test_a - AssertionError: at ./src/a.py"]
    assert against_parent.killed("survived x\n25 of 26 mutants killed\n") == ["25 of 26"]


def test_first_difference_names_the_line():
    diff = against_parent.first_difference
    assert diff(["a", "b"], ["a", "b"]) is None
    assert diff(["a", "b"], ["a", "c"]) == "line 2: 'b' vs 'c'"
    assert diff(["a", "c"], ["a", "b", "c"]) == "line 2: nothing vs 'b'"
    assert diff(["a", "b"], ["a"]) == "line 2: 'b' vs nothing"
