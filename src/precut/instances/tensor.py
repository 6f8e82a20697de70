"""Colored total orders: words in a finite alphabet with labeled positions."""

from __future__ import annotations

from math import factorial
from typing import NamedTuple

from ..species import check_element_count
from .colored import colorings
from .hadamard import LINEAR, Hadamard


class TensorWord(NamedTuple):
    colors: tuple  # ((label, color), ...) sorted by label
    order: tuple  # labels, smallest first


class TensorWords(Hadamard):
    """Colorings × L; first projection discrete, second the order."""

    cap = 6
    pair = TensorWord
    tag = "tensor"

    def __init__(self, palette=2):
        self.name = f"tensor[{palette}]"
        colors = colorings(palette)

        def refused(ground):
            # refused before any pair is built; the product's `_elements` is Hadamard's
            check_element_count(self, len(ground), palette ** len(ground) * factorial(len(ground)))
            return colors.elements(ground)

        super().__init__(colors._replace(elements=refused), LINEAR)
