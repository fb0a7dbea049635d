"""The settings in pyproject.toml: the test run's, and the package's one
runtime dependency."""

import ast
import re
import sys
from pathlib import Path

pytest_plugins = ["pytester"]

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"
PACKAGE = ROOT / "src" / "msnetlab"


def test_package_imports_only_what_it_declares():
    # pyproject.toml declares numpy alone; a module installed for the
    # tests or the benchmark (scipy, hypothesis) would import here too,
    # and fail only where the package is installed by itself
    deps = re.search(r"^dependencies = \[([^\]]*)\]", PYPROJECT.read_text(),
                     flags=re.MULTILINE).group(1)
    assert re.findall(r'"([\w.-]+)', deps) == ["numpy"]
    allowed = set(sys.stdlib_module_names) | {"numpy", "msnetlab"}
    outside = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue  # not an import, or a relative one
            outside += [f"{path.name}: {name}" for name in names
                        if name.partition(".")[0] not in allowed]
    assert outside == []


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
