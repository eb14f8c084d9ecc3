"""No module imports a name it never uses.

No linter is installed, so this reads the library (except the re-exporting
`eulerlab/__init__.py`), the tests and the demos with `ast`: every name an
`import` binds must appear as a name somewhere in the module, or in its
`__all__`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    [p for p in (ROOT / "src" / "eulerlab").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py"))
    + list((ROOT / "demos").glob("*.py"))
)


def unused_imports(source):
    """The names that the module's imports bind and the module never uses."""
    tree = ast.parse(source)
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
    return sorted(imported - used)


def test_the_scan_flags_an_unused_import():
    source = "from __future__ import annotations\nimport os.path\nfrom a import b, c as d\n__all__ = ['b']\n"
    assert unused_imports(source) == ["d", "os"]
    assert unused_imports("import os.path\nos.path.join('a')\n") == []


def test_no_module_has_an_unused_import():
    assert len(MODULES) > 30
    found = {str(p.relative_to(ROOT)): names for p in MODULES if (names := unused_imports(p.read_text()))}
    assert found == {}
