"""Static checks over the package source."""

import ast
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hyperfocus"


def test_no_assert_statements():
    """Guards in the package must be real checks: `python -O` strips
    `assert` statements."""
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []




def test_src_names_have_src_callers():
    """Every top-level function and class of the package is exported or
    named by the package outside its own definition: helpers that only
    tests reach belong in tests/."""
    import hyperfocus

    defs = []
    named = defaultdict(set)  # name -> top-level statements that mention it
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            key = (path.name, getattr(node, "name", None))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append(key)
            for n in ast.walk(node):
                if isinstance(n, (ast.Name, ast.Attribute)):
                    named[n.id if isinstance(n, ast.Name) else n.attr].add(key)
    orphans = [
        f"{module}:{name}"
        for module, name in defs
        if name not in hyperfocus.__all__ and not named[name] - {(module, name)}
    ]
    assert not orphans, f"named only by their own definition: {orphans}"
