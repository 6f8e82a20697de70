"""Colorings of a set with both projections discrete, plus broken variants
used as negative controls for the verification stages."""

from __future__ import annotations

import itertools

from ..errors import PrecutError
from ..preorder import chain, coarse, discrete
from ..species import check_element_count
from .hadamard import Factor, Single


def colorings(palette):
    """The maps ground -> range(palette), as sorted (label, color) pairs,
    projected discretely: the species of colored and the first factor of tensor."""
    if palette < 1:
        raise PrecutError(f"palette {palette} below 1: the species would be empty")
    return Factor(
        lambda ground: [tuple(zip(ground, v)) for v in itertools.product(range(palette), repeat=len(ground))],
        lambda c, sub: tuple([kv for kv in c if kv[0] in sub]),
        lambda c, mapping: tuple(sorted((mapping[x], k) for x, k in c)),
        lambda c: discrete(x for x, _ in c),
        lambda c: frozenset(x for x, _ in c),
    )


class ColoredSets(Single):
    """Functions from the ground set to a palette of f colors."""

    cap = 10
    label = "colored"  # the name, before the palette

    def __init__(self, palette=2):
        super().__init__(colorings(palette))
        self.palette = palette
        self.name = f"{self.label}[{palette}]"

    def _elements(self, ground):
        check_element_count(self, len(ground), self.palette ** len(ground))
        return super()._elements(ground)

    def pi2(self, s):
        return discrete(self.ground_of(s))

    def serialize(self, s):
        return ("colored", s)


class BrokenCoarseSecond(ColoredSets):
    """Second projection constantly coarse: the classic failing choice.

    Satisfies the species-over-preorders conditions but is not intertwined
    with the discrete first projection: the glued element never has the
    nontrivial cut the diagram demands.
    """

    label = "broken_dc"

    def pi2(self, s):
        return coarse(self.ground_of(s))


class BrokenMonotonicity(ColoredSets):
    """Second projection coarse on even-size grounds only: restriction from an
    odd ground to an even subset coarsens the projection, violating
    monotonicity."""

    label = "broken_monotone"

    def pi2(self, s):
        ground = self.ground_of(s)
        return coarse(ground) if len(ground) % 2 == 0 else discrete(ground)


class BrokenCutEquality(ColoredSets):
    """Second projection is the label chain on grounds of size >= 3 but
    discrete below: restriction only shrinks the projection (monotone), yet a
    2-element cut side of a 3-element chain loses the comparison that the
    restricted chain keeps, so cut equality fails."""

    label = "broken_cut"

    def pi2(self, s):
        ground = self.ground_of(s)
        if len(ground) >= 3:
            return chain(tuple(sorted(ground)))
        return discrete(ground)
