"""Posets (or all preorders) projected onto themselves and their components."""

from __future__ import annotations

from ..preorder import (
    Preorder,
    component_partition,
    enumerate_preorders,
    is_poset,
    relabel as relabel_preorder,
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
        # 1..n onto the sorted ground preserves order, so the rows carry over
        return [
            Preorder(ground, p.rows)
            for p in enumerate_preorders(len(ground))
            if not self.posets_only or is_poset(p)
        ]

    def restrict(self, s: Preorder, sub):
        return restrict_preorder(s, sub)

    def relabel(self, s: Preorder, mapping):
        return relabel_preorder(s, mapping)

    def pi1(self, s):
        return s

    def pi2(self, s):
        return component_partition(s)

    def ground_of(self, s):
        return frozenset(s.ground)

    def serialize(self, s):
        return ("order", s.ground, s.rows)
