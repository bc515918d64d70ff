"""CI runs the tier-1 suite and the benchmark self-test, and no check of its
own: every check of the CLI is a tier-1 test, so every run of the suite
makes it.  The workflow is read as text, since CI installs only pytest."""

import re
from pathlib import Path

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tier1.yml"


def test_ci_runs_only_the_tier1_suite_and_the_benchmark_self_test():
    runs = re.findall(r"^\s*(?:-\s+)?run:\s*(.*)$", WORKFLOW.read_text(), re.MULTILINE)
    assert runs == [
        "python -m pip install pytest==9.0.3",
        "PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q --continue-on-collection-errors",
        "python3 perfbench/selftest.py",
    ]
