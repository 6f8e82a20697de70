"""Posets (or all preorders) projected onto themselves and their components."""

from __future__ import annotations

from ..preorder import (
    Preorder,
    closure,
    component_partition,
    enumerate_preorders,
    is_poset,
    restrict as restrict_preorder,
)
from ..species import SpeciesInstance


class OrderSpecies(SpeciesInstance):
    """Elements are preorders on the ground; poset variant filters bubbles."""

    cap = 5

    def __init__(self, posets_only=True):
        super().__init__()
        self.posets_only = posets_only
        self.name = "posets" if posets_only else "preorders"

    def _elements(self, ground):
        out = []
        for p in enumerate_preorders(len(ground)):
            if self.posets_only and not is_poset(p):
                continue
            mapping = dict(zip(p.ground, ground))
            out.append(closure(ground, [(mapping[x], mapping[y]) for x, y in p.pairs()]))
        return out

    def restrict(self, s: Preorder, sub):
        return restrict_preorder(s, sub)

    def relabel(self, s: Preorder, mapping):
        return closure(
            [mapping[x] for x in s.ground],
            [(mapping[x], mapping[y]) for x, y in s.pairs()],
        )

    def pi1(self, s):
        return s

    def pi2(self, s):
        return component_partition(s)

    def ground_of(self, s):
        return frozenset(s.ground)

    def serialize(self, s):
        return ("order", s.ground, s.rows)
