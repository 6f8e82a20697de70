"""Colored total orders: words in a finite alphabet with labeled positions."""

from __future__ import annotations

import itertools
from math import factorial
from typing import NamedTuple

from ..errors import PrecutError
from ..preorder import discrete
from ..species import check_element_count
from .hadamard import LINEAR, Factor, Hadamard


class TensorWord(NamedTuple):
    colors: tuple  # ((label, color), ...) sorted by label
    order: tuple  # labels, smallest first


def _colorings(palette):
    # maps ground -> range(palette) as sorted (label, color) pairs, projected discretely
    return Factor(
        lambda ground: [tuple(zip(ground, v)) for v in itertools.product(range(palette), repeat=len(ground))],
        lambda c, sub: tuple([kv for kv in c if kv[0] in sub]),
        lambda c, mapping: tuple(sorted((mapping[x], k) for x, k in c)),
        lambda c: discrete(x for x, _ in c),
        lambda c: frozenset(x for x, _ in c),
    )


class TensorWords(Hadamard):
    """Colorings × L; first projection discrete, second the order."""

    cap = 6
    pair = TensorWord
    tag = "tensor"

    def __init__(self, palette=2):
        if palette < 1:
            raise PrecutError(f"palette {palette} below 1: the species would be empty")
        super().__init__(_colorings(palette), LINEAR)
        self.palette = palette
        self.name = f"tensor[{palette}]"

    def _elements(self, ground):
        check_element_count(self, len(ground), self.palette ** len(ground) * factorial(len(ground)))
        return super()._elements(ground)
