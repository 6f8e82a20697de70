"""Pairs of total orders, in both projection styles.

The same elements carry two very different pairs of projections: the direct
one (each order projects to itself, giving deconcatenation/shuffle structure
constants) and the descent one (join with the opposite and meet, giving
global-descent structure constants).  The two Fock algebras are the two
classical bases of the same Hopf algebra of permutations.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from ..preorder import chain, join, meet, opposite
from ..species import SpeciesInstance


class PermPair(NamedTuple):
    t1: tuple  # labels in increasing first order
    t2: tuple  # labels in increasing second order


def word_of(s: PermPair):
    """One-line pattern: second-order ranks read along the first order."""
    rank2 = {x: i + 1 for i, x in enumerate(s.t2)}
    return tuple(rank2[x] for x in s.t1)


class PermPairs(SpeciesInstance):
    """basis="f": projections are the orders themselves.
    basis="m": first projection join(t1, t2-opposite), second meet(t1, t2)."""

    cap = 6  # degree 7 is (7!)^2 = 25.4 M labeled pairs, minutes in one process

    def __init__(self, basis="f"):
        super().__init__()
        assert basis in ("f", "m")
        self.basis = basis
        self.name = f"perm_{basis}"

    def _elements(self, ground):
        out = []
        for t1 in itertools.permutations(ground):
            for t2 in itertools.permutations(ground):
                out.append(PermPair(t1, t2))
        return out

    def restrict(self, s, sub):
        sub = frozenset(sub)
        return PermPair(
            tuple(x for x in s.t1 if x in sub),
            tuple(x for x in s.t2 if x in sub),
        )

    def relabel(self, s, mapping):
        return PermPair(
            tuple(mapping[x] for x in s.t1),
            tuple(mapping[x] for x in s.t2),
        )

    def pi1(self, s):
        if self.basis == "f":
            return chain(s.t1)
        return join(chain(s.t1), opposite(chain(s.t2)))

    def pi2(self, s):
        if self.basis == "f":
            return chain(s.t2)
        return meet(chain(s.t1), chain(s.t2))

    def ground_of(self, s):
        return frozenset(s.t1)

    def serialize(self, s):
        return ("perm", s.t1, s.t2)
