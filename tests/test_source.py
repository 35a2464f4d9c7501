"""Static checks over the package source."""

import ast
import importlib
from collections import Counter, defaultdict
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


def _reads(node) -> Counter:
    """How often each attribute name is read under `node`."""
    return Counter(
        n.attr
        for n in ast.walk(node)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    )


def test_src_names_have_src_callers():
    """Every top-level function and class of the package is exported or
    named by the package outside its own definition: helpers that only
    tests reach belong in tests/.  Likewise every method is read by the
    package outside its own body, unless it is a dunder, overrides a
    base class's method or is public on an exported class, and every
    attribute set on `self` is read by the package: a table or a method
    that a rewrite left behind fails here."""
    import hyperfocus

    defs = []
    named = defaultdict(set)  # name -> top-level statements that mention it
    paths = sorted(SRC.glob("*.py"))
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in paths]
    for path, tree in zip(paths, trees):
        for node in tree.body:
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

    reads = sum((_reads(tree) for tree in trees), Counter())
    unread = []
    for path, tree in zip(paths, trees):
        module = importlib.import_module(f"hyperfocus.{path.stem}")
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            bases = getattr(module, cls.name).__mro__[1:]
            for item in cls.body:
                if (
                    isinstance(item, ast.FunctionDef)
                    and not item.name.startswith("__")
                    and not any(item.name in vars(base) for base in bases)
                    and not (cls.name in hyperfocus.__all__ and not item.name.startswith("_"))
                    and reads[item.name] == _reads(item)[item.name]
                ):
                    unread.append(f"{path.name}:{cls.name}.{item.name}()")
            for n in ast.walk(cls):
                if (
                    isinstance(n, ast.Attribute)
                    and isinstance(n.ctx, ast.Store)
                    and isinstance(n.value, ast.Name)
                    and n.value.id == "self"
                    and not reads[n.attr]
                ):
                    unread.append(f"{path.name}:{cls.name}.{n.attr}")
    assert not unread, f"methods and attributes that no package code reads: {unread}"


def test_field_arithmetic_is_array_only_outside_field():
    """Outside `field.py` the package multiplies, inverts and divides
    field elements only as numpy gathers from `field.tables`: no module
    reads `.mul`, `.inv` or `.div` off a field named `gf`, as a call or
    as an alias, so no scalar twin of an array helper comes back."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "field.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{n.lineno}: gf.{n.attr}"
            for n in ast.walk(tree)
            if isinstance(n, ast.Attribute)
            and n.attr in ("mul", "inv", "div")
            and isinstance(n.value, ast.Name)
            and n.value.id == "gf"
        ]
    assert found == []


def _calls(name: str):
    """(module, enclosing top-level name) of each call of `name` in src/."""
    return [
        (path.name, getattr(node, "name", None))
        for path in sorted(SRC.glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        for n in ast.walk(node)
        if isinstance(n, ast.Call)
        and name in (getattr(n.func, "id", None), getattr(n.func, "attr", None))
    ]


def test_search_tables_built_only_by_the_cache(monkeypatch):
    """Every stage of a shard reads the one table set of its field: the
    census and the extension get the object `_NumpyTables(gf)` returns,
    whether or not the caller passes it, and it equals a from-scratch
    build."""
    import numpy as np

    from hyperfocus import search
    from hyperfocus.field import make_field

    gf = make_field(3)
    seen = []
    for name in ("prune8", "closure_completions"):
        stage = getattr(search, name)

        def spy(*args, stage=stage):
            seen.append(args[-1])
            return stage(*args)

        monkeypatch.setattr(search, name, spy)
    search.process_shard(gf, 10, 1, 2)
    search.process_shard(gf, 10, 1, 3, "auto", search._NumpyTables(gf))
    tab = search._NumpyTables(gf)
    assert len(seen) >= 4 and all(t is tab for t in seen)
    monkeypatch.setattr(search._NumpyTables, "_built", {})
    fresh = search._NumpyTables(gf)
    assert fresh is not tab
    names = ("slope", "slope_bit", "rays")
    assert all(np.array_equal(getattr(fresh, n), getattr(tab, n)) for n in names)


def test_one_triu_indices_in_src():
    """Every pair index of the package comes from `plane.index_pairs`,
    built once per n."""
    assert _calls("triu_indices") == [("plane.py", "index_pairs")]
