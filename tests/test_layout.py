"""Layout guards for the package source.

Every top-level function, class and constant in `src/facemark/` must be
used by the package itself: a helper that only tests call is dead weight
that a refactor has to keep in step.  Names the package exports (`__all__`)
and its console-script entry points are exempt.  Every name a module
imports must be read in that module, or be in its `__all__`.  No module
calls `getattr(obj, name, default)`: a hook that an object may or may not
have is a second code path that only its callers know about.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "facemark"
# (module, name) of the console scripts in pyproject.toml's [project.scripts]
ENTRY_POINTS = {("cli", "main")}


def _top_level_names(tree):
    """(name, node) of every function, class and assigned constant at the
    top of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id != "__all__":
                    yield target.id, node


def _uses(node):
    """Count of each identifier read under `node`: names in load context and
    attribute names."""
    uses = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            uses[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            uses[sub.attr] += 1
    return uses


def _exempt(trees):
    names = set(ENTRY_POINTS)
    for tree in trees.values():
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
                names.update(ast.literal_eval(node.value))
    return names


def unused_definitions(src=SRC):
    """'module.name' of every top-level definition in `src` that no code in
    `src` reads outside the definition itself."""
    trees = {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(src.glob("*.py"))}
    exempt = _exempt(trees)
    uses = Counter()
    for tree in trees.values():
        uses.update(_uses(tree))
    unused = []
    for module, tree in trees.items():
        for name, node in _top_level_names(tree):
            if name in exempt or (module, name) in exempt:
                continue
            if uses[name] - _uses(node)[name] == 0:
                unused.append(f"{module}.{name}")
    return unused


def _imported_names(tree):
    """Every name an import statement anywhere in the module binds;
    `from __future__` imports bind none."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def unused_imports(src=SRC):
    """'module.name' of every imported name that its module never reads."""
    unused = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        read = {sub.id for sub in ast.walk(tree)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
        read |= _exempt({path.stem: tree})
        unused += [f"{path.stem}.{name}" for name in _imported_names(tree)
                   if name not in read]
    return unused


def test_every_definition_in_src_is_used_by_src():
    assert unused_definitions() == []


def test_guard_flags_a_test_only_helper(tmp_path):
    (tmp_path / "a.py").write_text(
        "__all__ = ['exported']\n"
        "LIMIT = 3\n"
        "def exported():\n    return helper(LIMIT)\n"
        "def helper(n):\n    return helper(n - 1) if n else 0\n"
        "def only_tests_call_me():\n    return exported()\n"
        "class Dead:\n    pass\n"
    )
    assert unused_definitions(tmp_path) == ["a.only_tests_call_me", "a.Dead"]


def test_every_import_in_src_is_read():
    assert unused_imports() == []


def test_guard_flags_an_unused_import(tmp_path):
    (tmp_path / "a.py").write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from .b import used, reexported, unread as alias\n"
        "__all__ = ['reexported']\n"
        "def f(x: used):\n"
        "    import json\n"
        "    return os.path.join(x)\n"
    )
    assert unused_imports(tmp_path) == ["a.np", "a.alias", "a.json"]


def defaulted_getattrs(src=SRC):
    """'module:line' of every three-argument `getattr` call in `src`."""
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "getattr" and len(node.args) == 3):
                found.append(f"{path.stem}:{node.lineno}")
    return found


def test_no_src_module_calls_a_defaulted_getattr():
    assert defaulted_getattrs() == []


def test_guard_flags_a_defaulted_getattr(tmp_path):
    (tmp_path / "a.py").write_text(
        "import numpy as np\n"
        "def f(rng, cfg):\n"
        "    zeros = getattr(rng, 'zeros', np.zeros)\n"
        "    return zeros(getattr(cfg, 'dim'))\n"
    )
    assert defaulted_getattrs(tmp_path) == ["a:3"]
