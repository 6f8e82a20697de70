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
    """L × L.  basis="f": projections are the orders themselves.
    basis="m": first projection join(t1, t2-opposite), second meet(t1, t2)."""

    cap = 6  # degree 7 is (7!)^2 = 25.4 M labeled pairs, minutes in one process
    pair = PermPair
    tag = "perm"

    def __init__(self, basis="f"):
        super().__init__(LINEAR, LINEAR)
        assert basis in ("f", "m")
        self.basis = basis
        self.name = f"perm_{basis}"

    def pi1(self, s):
        return chain(s.t1) if self.basis == "f" else join(chain(s.t1), opposite(chain(s.t2)))

    def pi2(self, s):
        return chain(s.t2) if self.basis == "f" else meet(chain(s.t1), chain(s.t2))
