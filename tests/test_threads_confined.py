"""Only ``stseq.stats`` names a thread or a thread pool: `pairwise_sums`
runs its leaves on the package's one pool, and no other module starts a
thread, so every result outside that pool is computed on the caller's
thread."""

import ast
from pathlib import Path

from conftest import source_identifiers

SRC = Path(__file__).resolve().parents[1] / "src" / "stseq"
THREAD_NAMES = {"ThreadPoolExecutor", "Thread", "_thread", "threading", "concurrent",
                "concurrent.futures"}


def test_only_stats_names_threads():
    found = [
        f"{path.relative_to(SRC)}:{lineno} {name}"
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "stats.py"
        for lineno, name in source_identifiers(ast.parse(path.read_text(), filename=str(path)))
        if name in THREAD_NAMES
    ]
    assert list(SRC.rglob("*.py")), f"no sources under {SRC}"
    assert found == []


def test_stats_names_the_pool():
    names = {name for _, name in source_identifiers(ast.parse((SRC / "stats.py").read_text()))}
    assert {"ThreadPoolExecutor", "concurrent.futures"} <= names
