"""Only ``stseq.arith`` names the smallest-prime-factor sieve and the tables
derived from it: no other package module reads them, so removing them edits
``arith.py`` alone."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "stseq"
SIEVE_NAMES = {"build_spf_sieve", "SpfSieve", "exponent_core_tables", "largest_prime_factor_table"}


def _identifiers(tree: ast.AST):
    """Every name, attribute, imported name and string constant in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, ast.alias):
            yield node.lineno, node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.lineno, node.value


def test_only_arith_names_the_sieve():
    found = [
        f"{path.relative_to(SRC)}:{lineno} {name}"
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "arith.py"
        for lineno, name in _identifiers(ast.parse(path.read_text(), filename=str(path)))
        if name in SIEVE_NAMES
    ]
    assert list(SRC.rglob("*.py")), f"no sources under {SRC}"
    assert found == []
