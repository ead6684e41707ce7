import ast
import importlib
import pkgutil

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
