"""Invariants in stseq are raised as typed errors, so they still hold under
``python -O``, which strips every ``assert`` statement."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "stseq"


def test_no_assert_statements_in_package():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert list(SRC.rglob("*.py")), f"no sources under {SRC}"
    assert found == []


def test_flags_are_built_by_report_flag():
    # one constructor keeps the four flag keys in one place
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "report.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Dict) and any(
                isinstance(k, ast.Constant) and k.value == "tolerance" for k in node.keys
            ):
                found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert found == []
