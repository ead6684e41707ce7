"""legrid: classical and relative Legendrian/transverse knot
invariants on grid diagrams, with grid moves, a Seifert-surface
framing ledger and a crossing-event simulator.

Each module's ``__all__`` is the only list of what it exports; the
package republishes those names, and every public class of ``errors``,
which holds nothing else."""

from .errors import *
from .grid import *
from .invariants import *
from .ledger import *
from .moves import *
from .simulator import *

__version__ = "0.1.0"
