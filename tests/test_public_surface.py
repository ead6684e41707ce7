import ast
import importlib
import inspect
import os
import pkgutil
import sys

import legrid

# ``legrid.__main__`` runs the CLI when imported, so it is left out.
MODULES = {
    info.name: importlib.import_module(f"legrid.{info.name}")
    for info in pkgutil.iter_modules(legrid.__path__)
    if info.name != "__main__"
}


def test_every_listed_name_exists():
    listed = {name: m for name, m in MODULES.items() if hasattr(m, "__all__")}
    assert listed
    for name, module in listed.items():
        assert [n for n in module.__all__ if not hasattr(module, n)] == [], name


def test_every_package_export_is_listed_by_its_module():
    with open(legrid.__file__, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = MODULES[node.module]
        for alias in node.names:
            if not alias.name.startswith("_") and hasattr(module, "__all__"):
                assert alias.name in module.__all__, f"{node.module}.{alias.name}"


def test_the_package_imports_only_the_standard_library():
    # legrid has no dependencies: every absolute import in the package
    # names a module of the standard library.
    files = [f for f in os.listdir(legrid.__path__[0]) if f.endswith(".py")]
    assert "cli.py" in files
    for name in files:
        with open(os.path.join(legrid.__path__[0], name), encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                tops = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                tops = [node.module.split(".")[0]]
            else:
                continue
            assert [t for t in tops if t not in sys.stdlib_module_names] == [], f"{name}:{node.lineno}"


def test_the_package_has_no_assert_statements():
    # An invariant the code relies on raises a LegridError; an assert
    # would vanish under ``python -O``.
    files = [f for f in os.listdir(legrid.__path__[0]) if f.endswith(".py")]
    assert "grid.py" in files
    found = []
    for name in files:
        with open(os.path.join(legrid.__path__[0], name), encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_only_reading_takes_a_convention():
    # The convention is chosen once, by ``grid.reading``; every other
    # function and method reads NW_SE and has no parameter for it.
    found = []
    for name, module in MODULES.items():
        classes = [c for c in vars(module).values() if inspect.isclass(c) and c.__module__ == module.__name__]
        for scope in [module, *classes]:
            for fn in vars(scope).values():
                fn = getattr(fn, "__func__", fn)  # classmethods and staticmethods
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                params = inspect.signature(fn).parameters.values()
                if any(p.name == "conv" or "Convention" in str(p.annotation) for p in params):
                    found.append(f"{name}.{fn.__qualname__}")
    assert found == ["grid.reading"]
