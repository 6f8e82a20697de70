"""Posets (or all preorders) projected onto themselves and their components."""

from __future__ import annotations

from ..preorder import component_partition
from .hadamard import Single
from .pairs import POSETS, PREORDERS


class OrderSpecies(Single):
    """Elements are preorders on the ground; poset variant filters bubbles."""

    cap = 5

    def __init__(self, posets_only=True):
        super().__init__(POSETS if posets_only else PREORDERS)
        self.name = "posets" if posets_only else "preorders"

    def pi2(self, s):
        return component_partition(s)

    def serialize(self, s):
        return ("order", s.ground, s.rows)
