"""Every public name has a program caller.

A name in a module's __all__ must be used somewhere on a program path: the
package itself, the demos, the bench (its tests excepted) or the text of
the CI workflows.  A use is an ast.Name or ast.Attribute load outside the
name's own top-level definition; __all__ entries and imports do not count.
The suite's own tests do not count either: a name that only tests call is
code no program path needs.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "splitsurf"
PROGRAM = sorted([*PACKAGE.glob("*.py"), *(ROOT / "demos").glob("*.py"),
                  *(p for p in (ROOT / "bench").glob("*.py") if not p.name.startswith("test_"))])
WORKFLOWS = "\n".join(p.read_text() for p in sorted((ROOT / ".github" / "workflows").glob("*.yml")))


def _owner(stmt):
    """The name a top-level statement defines, or None."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return stmt.name
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    names = [t.id for t in targets if isinstance(t, ast.Name)]
    return names[0] if len(names) == 1 else None


def _uses():
    """(file, the top-level definition around the use or None, name) per load."""
    out = set()
    for path in PROGRAM:
        for stmt in ast.parse(path.read_text(), str(path)).body:
            owner = _owner(stmt)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    out.add((path, owner, node.id))
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    out.add((path, owner, node.attr))
    return out


USES = _uses()
MODULES = sorted(p for p in PACKAGE.glob("*.py") if "__all__" in p.read_text())


@pytest.mark.parametrize("module", MODULES, ids=[p.stem for p in MODULES])
def test_every_public_name_has_a_program_caller(module):
    tree = ast.parse(module.read_text())
    names = next(ast.literal_eval(stmt.value) for stmt in tree.body if _owner(stmt) == "__all__")
    unused = [name for name in names
              if not any(n == name and not (path == module and owner == name) for path, owner, n in USES)
              and not re.search(r"\b%s\b" % re.escape(name), WORKFLOWS)]
    assert unused == []
