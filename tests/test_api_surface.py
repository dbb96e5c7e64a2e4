"""The public API has a caller outside the test suite.

Every public module-level function or class in ``src/causalplan`` must be
named on some line other than its own ``def`` or ``class`` line: elsewhere in
``src/``, in ``README.md`` or in ``bench/``.  A name only the tests use
belongs in ``tests/helpers.py``, not in the package.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "causalplan").glob("*.py"))
PUBLIC = [
    (node.name, path, node.lineno)
    for path in SOURCES
    for node in ast.parse(path.read_text()).body
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
]


def test_every_public_name_has_a_caller_outside_the_tests():
    lines = [
        (path, lineno, text)
        for path in SOURCES + [ROOT / "README.md"] + sorted((ROOT / "bench").glob("*.py"))
        for lineno, text in enumerate(path.read_text().splitlines(), 1)
    ]
    unused = [
        f"{path.name}:{lineno} {name}"
        for name, path, lineno in PUBLIC
        if not any(re.search(rf"\b{name}\b", text)
                   for p, n, text in lines if (p, n) != (path, lineno))
    ]
    assert not unused, "public names with no caller outside tests/: " + ", ".join(unused)


def test_public_surface_stays_small():
    assert len(PUBLIC) <= 55
