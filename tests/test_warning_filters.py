"""The suite's warning filters let a failing property report like any test."""

INNER_TESTS = """
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_property_fails(x):
    assert x < 0


def test_later_test_still_runs():
    assert True
"""


def test_failing_property_does_not_abort_the_run(pytester, pytestconfig):
    filters = "".join(f"\n    {line}" for line in pytestconfig.getini("filterwarnings"))
    pytester.makeini(f"[pytest]\nfilterwarnings ={filters}\n")
    pytester.makepyfile(test_inner=INNER_TESTS)
    # A fresh interpreter, so Hypothesis's failure reporting imports its
    # modules (and raises their import-time warnings) inside the inner run.
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
