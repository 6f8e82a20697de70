"""One species as a `Factor`, and the Hadamard product of two (Aguiar–Mahajan,
*Monoidal Functors, Species and Hopf Algebras*, 2010): colored, graphs,
posets and preorders are single factors, perm_f and perm_m are L × L,
tensor is colorings × L, parking is parking chains squared, and cc, nc, nn
and packed_words are pairs of preorders."""

import itertools
from typing import Callable, NamedTuple

from ..preorder import chain
from ..species import SpeciesInstance, _sort_key


class Factor(NamedTuple):
    """One species over preorders, as the five functions a product reads."""

    elements: Callable  # sorted ground tuple -> list of elements on it
    restrict: Callable  # (x, frozenset) -> x restricted to the subset
    relabel: Callable  # (x, mapping) -> x under a bijection of labels
    project: Callable  # x -> its preorder
    ground: Callable  # x -> frozenset of its labels


# label sequences, each projected to the total order it lists; a list
# comprehension builds a short tuple faster than a generator does
LINEAR = Factor(
    lambda ground: list(itertools.permutations(ground)),
    lambda x, sub: tuple([a for a in x if a in sub]),
    lambda x, mapping: tuple([mapping[a] for a in x]),
    chain,
    frozenset,
)


class Single(SpeciesInstance):
    """The species of one factor f: its elements, restriction, relabeling and
    ground, with π₁ read from f's projection.  Subclasses set π₂ and the
    serialization; by default π₂ = π₁ and an element serializes as itself."""

    def __init__(self, f: Factor):
        super().__init__()
        self.f = f

    def _elements(self, ground):
        return self.f.elements(ground)

    def restrict(self, s, sub):
        return self.f.restrict(s, frozenset(sub))

    def relabel(self, s, mapping):
        return self.f.relabel(s, mapping)

    def pi1(self, s):
        return self.f.project(s)

    pi2 = pi1

    def serialize(self, s):
        return _sort_key(s)

    def ground_of(self, s):
        return self.f.ground(s)


class Hadamard(SpeciesInstance):
    """F × G: pairs (x, y) on one ground, restricted and relabeled
    componentwise, with π₁ read from x and π₂ from y.  Subclasses set the
    element type `pair(x, y)` and the serialization `tag`.

    The gluing rule.  F glues uniquely when, for every ground I and D ⊆ I,
    x ↦ (x|D, x|I−D) is a bijection from the x ∈ F[I] whose projection D
    cuts onto F[D] × F[I−D].  If F and G are species over preorders
    (functorial restriction, π(x|S) ⊆ π(x)|S) that both glue uniquely, F × G
    is intertwined: every four-block diagram passes `species._diagrams`.

    Proof.  Take blocks (A, B, C, D) and a corner-compatible quadruple: u, v
    split by A, B under π₁ and p, q by A, C under π₂, with u|A = p|A,
    v|B = p|B, u|C = q|C, v|D = q|D.  Glue x from (p.x, q.x) across A∪B and
    y from (u.y, v.y) across A∪C: s = (x, y) carries both big cuts.  A∪C
    cuts π(y), so A = (A∪B) ∩ (A∪C) cuts π(y)|A∪B ⊇ π(y|A∪B); then y|A∪B
    and p.y both split by A into (p.y|A, p.y|B), and injectivity makes them
    equal.  Likewise y|C∪D = q.y, x|A∪C = u.x, x|B∪D = v.x: s completes the
    quadruple, and injectivity leaves no other.  By the same monotonicity
    every doubly-cut element's corners form such a quadruple.

    The certificate.  π₁ reads only x, π₂ only y, and restriction is
    componentwise, so F × G passes `check_species_over_preorders` when each
    factor does as `Single(f)` (π₂ = π₁); the (Δ₂, μ₁) square on
    (A, B, C, D) is the (Δ₁, μ₂) square on (A, C, B, D), so the rule covers
    both bimonoid indices.  `species.glues_uniquely` checks it on every
    ground I ⊆ 1..n, with F[I] not empty: so each element on I is a
    restriction of one on 1..n, and each restriction is an element.
    `species._square_law` takes it only where `_elements`, `restrict`,
    `relabel`, `pi1` and `pi2` are this class's own: perm_m projects through
    both orders and cc, nc and nn filter the pairs, so they are walked, as
    is any product that the rule does not certify.
    """

    tag = "hadamard"
    pair = staticmethod(lambda x, y: (x, y))

    def __init__(self, f: Factor, g: Factor):
        super().__init__()
        self.f, self.g = f, g

    def _elements(self, ground):
        ys = self.g.elements(ground)
        return [self.pair(x, y) for x in self.f.elements(ground) for y in ys]

    def restrict(self, s, sub):
        sub = frozenset(sub)
        return self.pair(self.f.restrict(s[0], sub), self.g.restrict(s[1], sub))

    def relabel(self, s, mapping):
        return self.pair(self.f.relabel(s[0], mapping), self.g.relabel(s[1], mapping))

    def pi1(self, s):
        return self.f.project(s[0])

    def pi2(self, s):
        return self.g.project(s[1])

    def ground_of(self, s):
        return self.f.ground(s[0])

    def serialize(self, s):
        return (self.tag, _sort_key(s[0]), _sort_key(s[1]))
