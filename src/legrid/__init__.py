"""legrid: classical and relative Legendrian/transverse knot
invariants on grid diagrams, with grid moves, a Seifert-surface
framing ledger and a crossing-event simulator."""

from .errors import (
    BadCell,
    BaseMismatch,
    InconsistentProfile,
    InterleavingSpans,
    LegridError,
    LengthMismatch,
    MultipleSingularClasps,
    NotAPermutation,
    OracleMismatch,
    ParityViolation,
    ParseError,
    SameComponent,
    ScriptStepError,
    SharedCell,
    SizeMismatch,
    TripleDrift,
    UnknownComponent,
)
from .grid import (
    Component,
    Convention,
    CuspCounts,
    FrontData,
    GridDiagram,
    grid_to_json,
    grid_to_text,
    linking_number,
    new_grid,
    parse_grid,
    reverse_component,
    to_front,
    writhe,
)
from .invariants import (
    ClassicalInvariants,
    OrientationFlag,
    RelativeInvariants,
    classical,
    component_grid,
    component_patterns,
    relative_invariants,
    rot,
    tb_front,
    tb_grid_oracle,
)
from .ledger import (
    ContactHomologyModel,
    IntersectionProfile,
    RelativeSurfaceClass,
    ambiguity,
    new_model,
    rot_diff,
    sl_diff,
    tb_diff,
    twist_transfer,
)
from .moves import (
    Commute,
    Destabilize,
    GridMove,
    LegendrianStab,
    MoveScript,
    ScriptResult,
    Stabilize,
    TraceStep,
    Translate,
    apply_move,
    apply_script,
    follow,
    parse_move_script,
)
from .simulator import (
    CrossingEvent,
    FramedPairState,
    IntersectionPattern,
    cross,
    parse_event_script,
    replay,
    run_trace,
)

__version__ = "0.1.0"
