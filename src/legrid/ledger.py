"""Framing ledger: how relative invariants react to a change of
Seifert-surface class, modeled on abstract homological data.

The pair of knots is fixed, and any two Seifert surfaces for it
differ by a closed class in second homology, so a surface class is
exactly its offset from one reference surface: a closed class, one
integer per free generator, with no other label.  Every ledger
function checks that both offsets have the model's rank, and names
the class at fault by its position, first or second.

A model carries the free rank of second homology, the evaluation of
the Euler class on its generators, and a tightness flag under which
the effective evaluation vector is zero and every ambiguity vanishes.
Torsion is dropped: evaluation against integers kills it, so only the
free rank matters for any quantity computed here.  A change of
trivialization restricts to the two knots with equal degrees, so its
changes to their rotation numbers cancel in the relative one.  A
model checks its rank, the length and entries of its Euler vector and
the type of its tightness flag when it is built, a surface class the
entries of its offset, and an intersection profile its two numbers.
"""

from __future__ import annotations

import math

from .errors import InconsistentProfile, LengthMismatch, _check_int, _Value

__all__ = [
    "ContactHomologyModel",
    "RelativeSurfaceClass",
    "IntersectionProfile",
    "tb_diff",
    "twist_transfer",
    "rot_diff",
    "sl_diff",
    "ambiguity",
]


def _check_ints(values, error, what):
    # floats and bools compare equal to ints, so the type is checked
    for value in values:
        if type(value) is not int:
            raise error(f"{what} must be integers, got {value!r}")


class ContactHomologyModel(_Value):
    __slots__ = ("rank", "euler", "tight")

    def __init__(self, rank: int, euler, tight: bool):
        _check_int(rank, "rank", LengthMismatch)
        if rank < 0:
            raise LengthMismatch(f"rank must be non-negative, got {rank}")
        euler = tuple(euler)
        if len(euler) != rank:
            raise LengthMismatch(f"euler vector has length {len(euler)}, expected rank {rank}")
        _check_ints(euler, LengthMismatch, "euler entries")
        if type(tight) is not bool:
            raise LengthMismatch(f"tight must be a bool, got {tight!r}")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "euler", euler)
        object.__setattr__(self, "tight", tight)

    @property
    def effective_euler(self) -> tuple[int, ...]:
        return (0,) * self.rank if self.tight else self.euler


class RelativeSurfaceClass(_Value):
    """A surface class of the fixed pair: its closed-class offset, one
    entry per free generator of second homology, stored as a tuple.
    An entry that is not an ``int`` raises LengthMismatch, as an Euler
    entry does."""

    __slots__ = ("offset",)

    def __init__(self, offset):
        offset = tuple(offset)
        _check_ints(offset, LengthMismatch, "offset entries")
        object.__setattr__(self, "offset", offset)


class IntersectionProfile(_Value):
    """Algebraic intersections of the two knots with a closed class;
    one that is not an ``int`` raises InconsistentProfile."""

    __slots__ = ("k_dot_A", "j_dot_A")

    def __init__(self, k_dot_A: int, j_dot_A: int):
        _check_ints((k_dot_A, j_dot_A), InconsistentProfile, "intersection numbers")
        object.__setattr__(self, "k_dot_A", k_dot_A)
        object.__setattr__(self, "j_dot_A", j_dot_A)


def _offset_delta(m, s1, s2):
    for which, s in (("first", s1), ("second", s2)):
        if len(s.offset) != m.rank:
            raise LengthMismatch(
                f"offset of the {which} class has length {len(s.offset)}, expected rank {m.rank}"
            )
    return tuple(a - b for a, b in zip(s1.offset, s2.offset))


def tb_diff(m: ContactHomologyModel, s1: RelativeSurfaceClass, s2: RelativeSurfaceClass) -> int:
    """Always zero: the framing changes on the two boundary knots are
    equal, so they cancel in the relative tb."""
    _offset_delta(m, s1, s2)
    return 0


def twist_transfer(m, s1, s2, p: IntersectionProfile):
    """Per-boundary framing change when passing between the two
    classes: the common intersection number, once on each knot."""
    _offset_delta(m, s1, s2)
    if p.k_dot_A != p.j_dot_A:
        raise InconsistentProfile(
            f"homologous knots meet a closed class equally, got {p.k_dot_A} vs {p.j_dot_A}"
        )
    return (p.k_dot_A, p.k_dot_A)


def rot_diff(m: ContactHomologyModel, s1, s2) -> int:
    """Evaluation of the effective Euler vector on the class difference."""
    delta = _offset_delta(m, s1, s2)
    return sum(e * d for e, d in zip(m.effective_euler, delta))


def sl_diff(m: ContactHomologyModel, s1, s2) -> int:
    """Same evaluation as :func:`rot_diff`; the self-linking side sees
    the identical closed-class pairing."""
    return rot_diff(m, s1, s2)


def ambiguity(m: ContactHomologyModel) -> int:
    """The invariant is well-defined modulo this value; 0 means fully
    well-defined.  Equals the gcd of the effective Euler entries, so
    the set of reachable differences is exactly its multiples."""
    return math.gcd(*m.effective_euler) if m.effective_euler else 0
