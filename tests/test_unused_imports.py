"""No module imports a name it never uses.

No linter is installed, so this reads the library (except the re-exporting
`eulerlab/__init__.py`), the tests and the demos with `ast`: every name an
`import` binds must appear as a name somewhere in the module, or in its
`__all__`.  `from __future__ import annotations` counts as used only in a
module with an annotation; any other future feature is always on in the
Python this package supports, so importing it is never needed.
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
        elif isinstance(node, ast.ImportFrom):
            imported |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
        if (
            isinstance(node, ast.AnnAssign)
            or isinstance(node, ast.arg) and node.annotation
            or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns
        ):
            used.add("annotations")
    return sorted(imported - used)


def test_the_scan_flags_an_unused_import():
    source = "from __future__ import annotations\nimport os.path\nfrom a import b, c as d\n__all__ = ['b']\n"
    assert unused_imports(source) == ["annotations", "d", "os"]
    assert unused_imports("import os.path\nos.path.join('a')\n") == []
    for annotated in ("def f(x: int):\n    pass\n", "def f() -> int:\n    pass\n", "x: int = 1\n"):
        assert unused_imports("from __future__ import annotations\n" + annotated) == []
    assert unused_imports("from __future__ import division\n") == ["division"]


def test_no_module_has_an_unused_import():
    assert len(MODULES) > 30
    found = {str(p.relative_to(ROOT)): names for p in MODULES if (names := unused_imports(p.read_text()))}
    assert found == {}
