"""Colorings of a set with both projections discrete, plus broken variants
used as negative controls for the verification stages."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ..errors import PrecutError
from ..preorder import chain, coarse, discrete
from ..species import SpeciesInstance, check_element_count


@dataclass(frozen=True)
class Coloring:
    colors: tuple  # ((label, color), ...) sorted by label


class ColoredSets(SpeciesInstance):
    """Functions from the ground set to a palette of f colors."""

    cap = 10
    label = "colored"  # the name, before the palette

    def __init__(self, palette=2):
        super().__init__()
        if palette < 1:
            raise PrecutError(f"palette {palette} below 1: the species would be empty")
        self.palette = palette
        self.name = f"{self.label}[{palette}]"

    def _elements(self, ground):
        check_element_count(self, len(ground), self.palette ** len(ground))
        out = []
        for values in itertools.product(range(self.palette), repeat=len(ground)):
            out.append(Coloring(tuple(zip(ground, values))))
        return out

    def restrict(self, s, sub):
        sub = frozenset(sub)
        return Coloring(tuple(kv for kv in s.colors if kv[0] in sub))

    def relabel(self, s, mapping):
        return Coloring(tuple(sorted((mapping[x], c) for x, c in s.colors)))

    def pi1(self, s):
        return discrete(self.ground_of(s))

    def pi2(self, s):
        return discrete(self.ground_of(s))

    def ground_of(self, s):
        return frozenset(x for x, _ in s.colors)

    def serialize(self, s):
        return ("colored", s.colors)


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
