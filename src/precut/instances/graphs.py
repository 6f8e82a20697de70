"""Simple graphs with the component partition as second projection."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ..preorder import closure, discrete
from ..species import SpeciesInstance


@dataclass(frozen=True)
class Graph:
    vertices: tuple  # sorted labels
    edges: tuple  # sorted pairs (x, y) with x < y


class Graphs(SpeciesInstance):
    name = "graphs"
    cap = 6

    def _elements(self, ground):
        pairs = list(itertools.combinations(ground, 2))
        out = []
        for r in range(len(pairs) + 1):
            for chosen in itertools.combinations(pairs, r):
                out.append(Graph(ground, chosen))
        return out

    def restrict(self, s, sub):
        sub = frozenset(sub)
        return Graph(
            tuple(x for x in s.vertices if x in sub),
            tuple(e for e in s.edges if e[0] in sub and e[1] in sub),
        )

    def relabel(self, s, mapping):
        verts = tuple(sorted(mapping[x] for x in s.vertices))
        edges = tuple(
            sorted(
                (min(mapping[x], mapping[y]), max(mapping[x], mapping[y]))
                for x, y in s.edges
            )
        )
        return Graph(verts, edges)

    def pi1(self, s):
        return discrete(s.vertices)

    def pi2(self, s):
        # the equivalence closure of the edges: its classes are the components
        return closure(s.vertices, s.edges + tuple((y, x) for x, y in s.edges))

    def ground_of(self, s):
        return frozenset(s.vertices)

    def serialize(self, s):
        return ("graph", s.vertices, s.edges)
