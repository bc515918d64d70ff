"""CI runs the tier-1 suite and the benchmark self-test, and no check of its
own: every check of the CLI is a tier-1 test, so every run of the suite
makes it.  The workflow is read as text, since CI installs only pytest.
Its oldest leg is Python 3.10, so every source file must parse as 3.10,
every ``int.to_bytes``/``int.from_bytes`` call in the package must pass
the arguments 3.10 has no default for, and ``pyproject.toml`` is read as
text too, since 3.10 has no ``tomllib``.  The README's library example
runs as written."""

import ast
import re
from pathlib import Path

import pytest

import hierasure

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


# the parameters of int.to_bytes and int.from_bytes that Python 3.10 has no
# default for, in their positional order
BYTE_CONVERSIONS = {"to_bytes": ("length", "byteorder"), "from_bytes": ("bytes", "byteorder")}


def unspelled_byte_conversions(source: str) -> list[int]:
    """The lines of ``to_bytes``/``from_bytes`` calls in source that leave
    one of those parameters to its 3.11 default."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            params = BYTE_CONVERSIONS.get(node.func.attr)
            if params is None:
                continue
            given = {kw.arg for kw in node.keywords}
            if any(k >= len(node.args) and name not in given for k, name in enumerate(params)):
                lines.append(node.lineno)
    return lines


def test_byte_conversions_pass_length_and_byteorder():
    # 3.11 defaults int.to_bytes's length and both byteorders, 3.10 does
    # not, so a call that leans on them fails only on the 3.10 leg
    stripped = "x.to_bytes()\nx.to_bytes(4)\nint.from_bytes(b)\nx.to_bytes(byteorder='little')\n"
    assert unspelled_byte_conversions(stripped) == [1, 2, 3, 4]
    spelled = "x.to_bytes(4, 'little')\nx.to_bytes(byteorder='big', length=2)\nint.from_bytes(b, 'little')\n"
    assert unspelled_byte_conversions(spelled) == []
    paths = sorted((ROOT / "src").rglob("*.py"))
    assert paths
    bad = {str(path.relative_to(ROOT)): unspelled_byte_conversions(path.read_text()) for path in paths}
    assert {path: lines for path, lines in bad.items() if lines} == {}


def test_package_version_matches_pyproject():
    # the [project] table runs to the next table header
    text = (ROOT / "pyproject.toml").read_text()
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", text, re.MULTILINE | re.DOTALL).group(1)
    versions = re.findall(r'^version\s*=\s*"([^"]*)"\s*$', project, re.MULTILINE)
    assert versions == [hierasure.__version__]


def test_readme_library_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
