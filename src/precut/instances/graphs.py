"""Simple graphs, projected to the discrete order and to their component partition."""

from __future__ import annotations

import itertools
from typing import NamedTuple

from ..preorder import closure, discrete
from .hadamard import Factor, Single


class Graph(NamedTuple):
    vertices: tuple  # sorted labels
    edges: tuple  # sorted pairs (x, y) with x < y


def _graphs(ground):
    pairs = list(itertools.combinations(ground, 2))
    subsets = (itertools.combinations(pairs, r) for r in range(len(pairs) + 1))
    return [Graph(ground, edges) for edges in itertools.chain.from_iterable(subsets)]


# the induced subgraph restricts; a relabeling re-sorts vertices and edges
GRAPHS = Factor(
    _graphs,
    lambda s, sub: Graph(
        tuple(x for x in s.vertices if x in sub), tuple(e for e in s.edges if e[0] in sub and e[1] in sub)
    ),
    lambda s, mapping: Graph(
        tuple(sorted(mapping[x] for x in s.vertices)),
        tuple(sorted((min(mapping[x], mapping[y]), max(mapping[x], mapping[y])) for x, y in s.edges)),
    ),
    lambda s: discrete(s.vertices),
    lambda s: frozenset(s.vertices),
)


class Graphs(Single):
    """Graphs on the ground: π₁ is discrete, π₂ the component partition."""

    name = "graphs"
    cap = 6

    def __init__(self):
        super().__init__(GRAPHS)

    def pi2(self, s):
        # the equivalence closure of the edges: its classes are the components
        return closure(s.vertices, s.edges + tuple((y, x) for x, y in s.edges))

    def serialize(self, s):
        return ("graph", s.vertices, s.edges)
