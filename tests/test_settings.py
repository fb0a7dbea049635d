"""The test-run settings in pyproject.toml."""

from pathlib import Path

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_a_failing_property_test_fails_alone(pytester):
    # reporting a failing example, the hypothesis plugin imports a module
    # that warns; with every warning an error and no exception for that
    # one, the run stopped there with INTERNALERROR and no later test ran
    pytester.makefile(".toml", pyproject=PYPROJECT.read_text())
    pytester.makepyfile(test_two="""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 5

        def test_passes():
            pass
    """)
    result = pytester.runpytest_subprocess(
        "-c", "pyproject.toml", "-p", "no:cacheprovider", "test_two.py")
    result.assert_outcomes(failed=1, passed=1)
