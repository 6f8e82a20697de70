"""Pairs of total orders, in both projection styles.

The same elements carry two very different pairs of projections: the direct
one (each order projects to itself, giving deconcatenation/shuffle structure
constants) and the descent one (join with the opposite and meet, giving
global-descent structure constants).  The two Fock algebras are the two
classical bases of the same Hopf algebra of permutations.
"""

from __future__ import annotations

from typing import NamedTuple

from ..preorder import chain, join, meet, opposite
from .hadamard import LINEAR, Hadamard


class PermPair(NamedTuple):
    t1: tuple  # labels in increasing first order
    t2: tuple  # labels in increasing second order


def word_of(s: PermPair):
    """One-line pattern: second-order ranks read along the first order."""
    rank2 = {x: i + 1 for i, x in enumerate(s.t2)}
    return tuple(rank2[x] for x in s.t1)


class PermPairs(Hadamard):
    """L × L, each order projected to itself: the F basis."""

    name = "perm_f"
    cap = 6  # degree 7 is (7!)^2 = 25.4 M labeled pairs, minutes in one process
    pair = PermPair
    tag = "perm"

    def __init__(self):
        super().__init__(LINEAR, LINEAR)


class DescentPairs(PermPairs):
    """The same pairs, π₁ = join(t1, t2-opposite), π₂ = meet(t1, t2): the M basis."""

    name = "perm_m"

    def pi1(self, s):
        return join(chain(s.t1), opposite(chain(s.t2)))

    def pi2(self, s):
        return meet(chain(s.t1), chain(s.t2))
