"""Only ``stseq.arith`` names the smallest-prime-factor sieve and the tables
derived from it: no other package module reads them, so removing them edits
``arith.py`` alone."""

import ast
from pathlib import Path

from conftest import source_identifiers

SRC = Path(__file__).resolve().parents[1] / "src" / "stseq"
SIEVE_NAMES = {"build_spf_sieve", "SpfSieve", "exponent_core_tables", "largest_prime_factor_table"}


def test_only_arith_names_the_sieve():
    found = [
        f"{path.relative_to(SRC)}:{lineno} {name}"
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "arith.py"
        for lineno, name in source_identifiers(ast.parse(path.read_text(), filename=str(path)))
        if name in SIEVE_NAMES
    ]
    assert list(SRC.rglob("*.py")), f"no sources under {SRC}"
    assert found == []
