import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
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
    # ``__init__`` star-imports six modules, so the package exports
    # exactly their ``__all__`` lists; ``errors`` has none and binds
    # only exception classes under public names.
    errors = MODULES["errors"]
    assert not hasattr(errors, "__all__")
    expected = {n: v for n, v in vars(errors).items() if not n.startswith("_")}
    assert all(inspect.isclass(v) and v.__module__ == errors.__name__ for v in expected.values())
    for name in ("grid", "invariants", "ledger", "moves", "simulator"):
        expected.update((n, getattr(MODULES[name], n)) for n in MODULES[name].__all__)
    exported = {n: v for n, v in vars(legrid).items() if not n.startswith("_") and not inspect.ismodule(v)}
    assert sorted(exported) == sorted(expected)
    assert [n for n, v in expected.items() if exported[n] is not v] == []


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


def test_import_loads_no_class_generation_machinery():
    # Every CLI call pays for ``import legrid.cli``: the value classes
    # share one base, so neither ``dataclasses`` (with ``inspect``) nor
    # ``typing`` is imported.  ``-S`` keeps a site ``.pth`` file from
    # importing them first.
    code = "import sys, legrid.cli; print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(legrid.__path__[0]))
    run = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert run.stdout == "[]\n"


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
