"""Colored total orders: words in a finite alphabet with labeled positions."""

from __future__ import annotations

import itertools
from math import factorial
from typing import NamedTuple

from ..errors import PrecutError
from ..preorder import chain, discrete
from ..species import SpeciesInstance, check_element_count


class TensorWord(NamedTuple):
    colors: tuple  # ((label, color), ...) sorted by label
    order: tuple  # labels, smallest first


class TensorWords(SpeciesInstance):
    """Pairs (coloring, total order); first projection discrete, second the order."""

    cap = 6

    def __init__(self, palette=2):
        super().__init__()
        if palette < 1:
            raise PrecutError(f"palette {palette} below 1: the species would be empty")
        self.palette = palette
        self.name = f"tensor[{palette}]"

    def _elements(self, ground):
        n = len(ground)
        check_element_count(self, n, self.palette**n * factorial(n))
        out = []
        for values in itertools.product(range(self.palette), repeat=len(ground)):
            colors = tuple(zip(ground, values))
            for order in itertools.permutations(ground):
                out.append(TensorWord(colors, order))
        return out

    def restrict(self, s, sub):
        sub = frozenset(sub)
        return TensorWord(
            tuple(kv for kv in s.colors if kv[0] in sub),
            tuple(x for x in s.order if x in sub),
        )

    def relabel(self, s, mapping):
        return TensorWord(
            tuple(sorted((mapping[x], c) for x, c in s.colors)),
            tuple(mapping[x] for x in s.order),
        )

    def pi1(self, s):
        return discrete(self.ground_of(s))

    def pi2(self, s):
        return chain(s.order)

    def ground_of(self, s):
        return frozenset(x for x, _ in s.colors)

    def serialize(self, s):
        return ("tensor", s.colors, s.order)
