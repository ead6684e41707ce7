"""legrid: classical and relative Legendrian/transverse knot
invariants on grid diagrams, with grid moves, a Seifert-surface
framing ledger and a crossing-event simulator.

Each module's ``__all__`` is the only list of what it exports; the
package republishes those names, and every public class of ``errors``,
which holds nothing else.  A name is loaded on first use (PEP 562):
``import legrid`` imports no module of the package, and ``legrid.X``
imports the modules in the order of ``_MODULES`` until one exports X.
Inside the package, import names from their module
(``from .ledger import tb_diff``), never ``from . import ledger``: the
import system first asks the package for ``ledger``, and that lookup
loads every module."""

__version__ = "0.1.0"

# the modules whose exports the package republishes, in lookup order
_MODULES = ("errors", "grid", "invariants", "ledger", "moves", "simulator")


def _exports():
    """Each module of ``_MODULES`` with the names that ``from module
    import *`` binds: its ``__all__``, or else its public names."""
    from importlib import import_module

    for name in _MODULES:
        module = import_module(f"{__name__}.{name}")
        names = getattr(module, "__all__", None)
        yield module, [n for n in vars(module) if not n.startswith("_")] if names is None else names


def __getattr__(name):
    if name == "__all__":
        value = [n for _, names in _exports() for n in names]
    else:
        # no module exports a private name, so none is imported to look
        found = None if name.startswith("_") else next((m for m, names in _exports() if name in names), None)
        if found is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(found, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})
