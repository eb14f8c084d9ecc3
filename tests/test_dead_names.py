"""Every top-level function, class and constant of the library has a reader outside the tests.

Dead code is deleted, not kept for the tests alone.  This reads the library,
the demos and the benchmark with `ast`: each `def`, `class` and assigned name
(dunders aside) at the top of a module in `src/eulerlab/` must be referenced
somewhere in them, as a name that is read, an attribute, an imported name, or
a string constant made of dotted identifiers (how `eulerbench/tracing.py`
names what it patches).  Assigning a name does not reference it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "eulerlab").glob("*.py"))
USERS = LIBRARY + sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "eulerbench").glob("*.py"))


def defined(source):
    """The names of the module's top-level functions, classes and assigned
    names, dunders such as `__all__` aside."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {name for name in names if not (name.startswith("__") and name.endswith("__"))}


def referenced(source):
    """Every name the module reads, imports or spells in an identifier string."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                names.update(parts)
    return names


def dead_names(library, users):
    """The top-level names of the `library` sources that no `users` source references."""
    used = set().union(*(referenced(source) for source in users))
    return {name for source in library for name in defined(source)} - used


def test_the_scan_flags_a_dead_name():
    library = (
        "def used(): pass\ndef traced(): pass\ndef imported(): pass\nclass Dead:\n    def method(self): pass\n"
        "__all__ = []\nREAD = 1\nUNREAD: int = 2\nPAIR, LEFT = 3, 4\n"
    )
    users = [library, "used()\nSPANS = ('mod.traced',)\nfrom mod import imported\nx.method\nprint(READ, PAIR)\n"]
    assert dead_names([library], users) == {"Dead", "UNREAD", "LEFT"}
    assert dead_names([library], [library]) == {"used", "traced", "imported", "Dead", "READ", "UNREAD", "PAIR", "LEFT"}


def test_no_library_name_is_dead():
    assert len(LIBRARY) > 10 and len(USERS) > len(LIBRARY)
    sources = {path: path.read_text() for path in USERS}
    assert dead_names([sources[p] for p in LIBRARY], sources.values()) == set()
