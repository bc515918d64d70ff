"""CI runs the tier-1 suite and the benchmark self-test, and no check of its
own: every check of the CLI is a tier-1 test, so every run of the suite
makes it.  The workflow is read as text, since CI installs only pytest.
Its oldest leg is Python 3.10, so every source file must parse as 3.10."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def test_ci_runs_only_the_tier1_suite_and_the_benchmark_self_test():
    runs = re.findall(r"^\s*(?:-\s+)?run:\s*(.*)$", WORKFLOW.read_text(), re.MULTILINE)
    assert runs == [
        "python -m pip install pytest==9.0.3",
        "PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q --continue-on-collection-errors",
        "python3 perfbench/selftest.py",
    ]


def test_sources_parse_as_python_3_10():
    # the grammar check runs on any interpreter, so a 3.11-only construct
    # fails here before it reaches the 3.10 leg
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
    paths = sorted(p for top in ("src", "tests", "perfbench") for p in (ROOT / top).rglob("*.py"))
    assert {path.relative_to(ROOT).parts[0] for path in paths} == {"src", "tests", "perfbench"}
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
