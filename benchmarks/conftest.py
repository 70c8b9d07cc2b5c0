"""Shared helpers for the benchmark harness.

Every bench regenerates one paper artifact (table, figure, or Section VI
example): it *verifies* the behaviour the artifact documents, *prints* the
rows so the run log doubles as the reproduced table, and *times* the
representative operation with pytest-benchmark.
"""

from __future__ import annotations

import pathlib

from repro.workloads import nbody_source  # noqa: F401  (re-export: the
# n-body source-munging helper now lives in the workload registry; bench
# modules keep importing it from here)

# ``requires_cc`` auto-skip, so this directory honours the marker when
# run on its own too.
from tests.conftest import pytest_collection_modifyitems  # noqa: E402,F401

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES_LOL = REPO_ROOT / "examples" / "lol"


def lol(body: str) -> str:
    return f"HAI 1.2\n{body}\nKTHXBYE\n"


def print_table(title: str, header: list[str], rows: list[list[object]]) -> None:
    """Render one reproduced table into the captured bench output."""
    print(f"\n=== {title} ===")
    widths = [
        max(len(str(header[i])), *(len(str(r[i])) for r in rows)) if rows else len(str(header[i]))
        for i in range(len(header))
    ]
    print("  " + " | ".join(str(h).ljust(w) for h, w in zip(header, widths)))
    print("  " + "-+-".join("-" * w for w in widths))
    for row in rows:
        print("  " + " | ".join(str(c).ljust(w) for c, w in zip(row, widths)))


