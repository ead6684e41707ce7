import ast
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys

import pytest

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
    # The package exports exactly the six modules' ``__all__`` lists,
    # each name bound to its module's object; ``errors`` has none and
    # binds only exception classes under public names.  The names load
    # on first use, so they are read through ``__all__`` and ``getattr``,
    # not from the package's namespace.
    errors = MODULES["errors"]
    assert not hasattr(errors, "__all__")
    expected = {n: v for n, v in vars(errors).items() if not n.startswith("_")}
    assert all(inspect.isclass(v) and v.__module__ == errors.__name__ for v in expected.values())
    for name in ("grid", "invariants", "ledger", "moves", "simulator"):
        listed = MODULES[name].__all__
        assert not set(listed) & set(expected), name
        expected.update((n, getattr(MODULES[name], n)) for n in listed)
    assert len(expected) == 71
    assert sorted(legrid.__all__) == sorted(expected)
    assert [n for n, v in expected.items() if getattr(legrid, n) is not v] == []
    star = {}
    exec("from legrid import *", star)
    del star["__builtins__"]
    assert sorted(star) == sorted(expected)
    assert [n for n, v in expected.items() if star[n] is not v] == []
    for name in ("no_such_name", "_check_int", "_Value", "__wrapped__"):
        with pytest.raises(AttributeError):
            getattr(legrid, name)
    # nothing else public: ``dir`` lists the loaded names and ``__all__``
    public = [n for n in dir(legrid) if not n.startswith("_") and not inspect.ismodule(getattr(legrid, n))]
    assert sorted(public) == sorted(expected)


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


def _legrid_modules(names):
    return sorted(["legrid", *(f"legrid.{name}" for name in names)])


def _verbs(tmp_path):
    """One argv per verb, each with the modules the call loads beyond
    ``errors`` and ``grid``, which ``import legrid.cli`` loads for all."""
    grid = tmp_path / "link.grid"
    grid.write_text("n=6\nX=1,4,3,0,2,5\nO=4,2,0,3,5,1\n")
    script = tmp_path / "all.script"
    script.write_text("translate up\ncommute row 2\nstab O 3 SE\ndestab 3\nlstab 1 -\n")
    model = tmp_path / "model.json"
    model.write_text('{"rank": 2, "euler": [2, -4], "tight": false}\n')
    events = tmp_path / "events.txt"
    events.write_text("cross +\npattern circles=1 ribbon=2 bparallel=0 clasps=1 singular=-\ncross -\n")
    grid, script, model, events = map(str, (grid, script, model, events))
    return [
        (["inv", grid], ["invariants"]),
        (["rel", grid, "--pair", "0,1"], ["invariants"]),
        (["moves", grid, script], ["invariants", "moves"]),
        (["ledger", model, "--offset1", "1,0"], ["ledger"]),
        (["cross-sim", events], ["simulator"]),
        (["cross-sim", events, "--init=1,-2,3,4,5,6"], ["simulator"]),
        (["selftest", "--cases", "0"], ["invariants", "ledger", "moves", "sampling", "selftest", "simulator"]),
    ]


def test_each_verb_loads_only_its_modules(tmp_path):
    # ``import legrid`` loads no module of the package, ``import
    # legrid.cli`` only what every verb needs, and each verb imports its
    # own modules when it runs, so no call compiles a module it does not
    # use.  ``-S`` keeps a site ``.pth`` file from importing any first.
    code = (
        "import contextlib, io, json, sys\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m == 'legrid' or m.startswith('legrid.'))\n"
        "import legrid\n"
        "after = [loaded()]\n"
        "import legrid.cli\n"
        "after.append(loaded())\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = legrid.cli.main(json.loads(sys.argv[1]))\n"
        "print(json.dumps([code, *after, loaded()]))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(legrid.__path__[0]))
    for argv, modules in _verbs(tmp_path):
        run = subprocess.run([sys.executable, "-S", "-c", code, json.dumps(argv)], env=env,
                             capture_output=True, text=True, check=True)
        assert json.loads(run.stdout) == [
            0,
            ["legrid"],
            _legrid_modules(["cli", "errors", "grid"]),
            _legrid_modules(["cli", "errors", "grid", *modules]),
        ], argv


def test_python_m_loads_only_the_verbs_modules(tmp_path):
    # ``python -m legrid`` runs the same per-verb imports; the import
    # report of ``-X importtime`` names every module the run loaded
    # (``legrid.__main__`` runs as ``__main__``, so it is not listed).
    env = dict(os.environ, PYTHONPATH=os.path.dirname(legrid.__path__[0]))
    argv, modules = _verbs(tmp_path)[0]
    run = subprocess.run([sys.executable, "-S", "-X", "importtime", "-m", "legrid", *argv], env=env,
                         capture_output=True, text=True, check=True)
    assert json.loads(run.stdout)[0]["component"] == 0
    loaded = [line.rpartition("|")[2].strip() for line in run.stderr.splitlines()]
    assert sorted(m for m in loaded if m == "legrid" or m.startswith("legrid.")) == _legrid_modules(
        ["cli", "errors", "grid", *modules]
    )


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
