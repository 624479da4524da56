"""``src/`` holds only what a shipped path runs.

A module-level function, class or constant of ``src/spinchain``, public or
private (``_name``), must be named somewhere a shipped path reads: elsewhere
in ``src/`` (outside its own definition), or in ``demos/``, ``perfbench/`` or
``tools/``. The golden generator ``tools/regenerate_goldens.py`` only feeds
the tests, so its names do not count, and neither do the tests'. A name only
they reach belongs with them, outside ``src/``.

A method or property of a ``src/`` class, dunders excepted, must likewise be
read as an attribute (``x.name``) by a shipped path, outside its own
definition. The census matches names, not objects: a member that shares its
name with an attribute read elsewhere passes unseen (a ``norm`` method would,
once any shipped path calls ``np.linalg.norm``). Dataclass fields and instance attributes are values, not
members, and are not counted.
"""

from __future__ import annotations

import ast
import collections
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "spinchain"


def _references(node: ast.AST) -> set[str]:
    """Every variable, attribute and imported name that ``node`` mentions."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def _shipped_paths() -> list[pathlib.Path]:
    tools = [p for p in (ROOT / "tools").glob("*.py") if p.name != "regenerate_goldens.py"]
    return [*SRC.glob("*.py"), *(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py"), *tools]


def _defined(node: ast.stmt) -> list[str]:
    """The module-level names a top-level statement defines: a function, class or constant."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _unreached(private: bool) -> list[str]:
    """``module.name`` of every public (or private) ``src/`` name no shipped path reaches."""
    trees = {path: ast.parse(path.read_text(), str(path)) for path in _shipped_paths()}
    # per file, the names each top-level statement mentions
    mentions = {path: [(stmt, _references(stmt)) for stmt in tree.body] for path, tree in trees.items()}
    unreached = []
    for path in sorted(SRC.glob("*.py")):
        for node in trees[path].body:
            for name in _defined(node):
                # dunders such as __version__ are the language's, not the module's
                if name.startswith("__") or name.startswith("_") != private:
                    continue
                reached = any(
                    name in names
                    for stmts in mentions.values()
                    for stmt, names in stmts
                    if stmt is not node
                )
                if not reached:
                    unreached.append(f"{path.stem}.{name}")
    return unreached


def test_every_public_src_name_is_reached_by_a_shipped_path():
    unreached = _unreached(private=False)
    assert unreached == [], f"public names no shipped path reaches: {unreached}"


def test_every_private_src_name_is_reached_by_a_shipped_path():
    unreached = _unreached(private=True)
    assert unreached == [], f"private names no shipped path reaches: {unreached}"


def _attribute_reads(node: ast.AST) -> collections.Counter:
    """How often ``node`` reads each attribute name, as in ``x.name``."""
    return collections.Counter(
        sub.attr for sub in ast.walk(node)
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
    )


def test_every_src_class_member_is_read_by_a_shipped_path():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in _shipped_paths()}
    reads = sum((_attribute_reads(tree) for tree in trees.values()), collections.Counter())
    unread = []
    for path in sorted(SRC.glob("*.py")):
        for cls in (node for node in trees[path].body if isinstance(node, ast.ClassDef)):
            for member in cls.body:
                if not isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                name = member.name
                if name.startswith("__") and name.endswith("__"):
                    continue
                # a read inside the member's own body (recursion) does not count
                if reads[name] <= _attribute_reads(member)[name]:
                    unread.append(f"{path.stem}.{cls.name}.{name}")
    assert unread == [], f"class members no shipped path reads: {unread}"
