"""Avoiding subspecies and irreducibility of a coproduct."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .preorder import cuts as preorder_cuts
from .species import ClassRegistry, SpeciesInstance, VerificationReport


@dataclass(frozen=True)
class AvoidanceSet:
    """Relabel-invariant predicate selecting the forbidden sub-elements.

    Invariance is load-bearing: with restriction natural, it makes has_part
    constant on each orbit class, so `AvoidingInstance` and `is_irreducible`
    decide one representative per class.  `sizes` limits the subset scan to
    grounds of those sizes (None scans all).
    """

    name: str
    membership: object
    sizes: frozenset | None = None


def has_part(inst: SpeciesInstance, aset: AvoidanceSet, s) -> bool:
    """Whether some restriction of s lies in the avoidance set."""
    ground = tuple(sorted(inst.ground_of(s)))
    sizes = range(len(ground) + 1) if aset.sizes is None else sorted(aset.sizes)
    subs = (sub for r in sizes for sub in itertools.combinations(ground, r))
    return any(aset.membership(inst.restrict(s, frozenset(sub))) for sub in subs)


class AvoidingInstance(SpeciesInstance):
    """The parent species filtered to avoiders.

    Restriction, relabeling, projections, ground and serialization are the
    parent's own bound methods; avoiders are closed under restriction, so
    this is again a restriction species over preorders.  The dual product
    automatically drops non-avoiding parent products, which is the quotient
    multiplication.

    The avoiders are a set of the parent's orbit classes: `kept(n)` runs
    has_part once on each representative of a registry of the parent that
    this instance owns, and a parent element is kept when its class is.
    That is sound for the reasons `is_irreducible` gives: the set is
    relabel-invariant and restriction is natural, so has_part(σs) =
    has_part(s).  `ClassRegistry.class_of` relabels an element on any ground
    onto 1..k first, and raises InvalidStructure when a relabeling leaves
    the parent's enumeration.  An avoider's own `ClassRegistry` is read off
    the kept classes, with no second orbit walk.
    """

    def __init__(self, parent: SpeciesInstance, aset: AvoidanceSet):
        super().__init__()
        self.parent, self.aset = parent, aset
        self.name = f"{parent.name}/{aset.name}"
        self.cap = parent.cap
        self.restrict, self.relabel, self.pi1, self.pi2 = parent.restrict, parent.relabel, parent.pi1, parent.pi2
        self.ground_of, self.serialize = parent.ground_of, parent.serialize
        self.registry = ClassRegistry(parent)
        self._kept = {}  # n -> the avoiding parent classes of degree n, by cid

    def kept(self, n):
        """The parent's classes of degree n whose representative has no part, by cid."""
        if n not in self._kept:
            classes, parent, aset = self.registry.classes_of_degree(n), self.parent, self.aset
            self._kept[n] = {c.cid: c for c in classes if not has_part(parent, aset, c.rep)}
        return self._kept[n]

    def _elements(self, ground):
        kept, class_of = self.kept(len(ground)), self.registry.class_of
        return [s for s in self.parent.elements(ground) if class_of(s).cid in kept]


def _lost_cut(inst, which, aset, s, stat):
    """The first cut of π_which(s) after which neither side keeps a part of
    s, or None (also when s has no part); counts into stat."""
    if not has_part(inst, aset, s):
        return None
    stat["with_part"] += 1
    for cut in preorder_cuts(inst.pi(which, s)):
        stat["cuts"] += 1
        left, right = inst.restrict(s, cut.down), inst.restrict(s, cut.up)
        if not (has_part(inst, aset, left) or has_part(inst, aset, right)):
            return cut
    return None


def is_irreducible(inst: SpeciesInstance, which, aset: AvoidanceSet, nmax) -> VerificationReport:
    """Whenever an element with a part splits across a nonzero cut, one side
    must keep a part.

    When Δ^which passes, the avoiding instance carries both bimonoids of
    the parent: dualizing Δ^which, the irreducible coproduct, multiplies
    through the quotient map and gives the quotient bimonoid; dualizing the
    other coproduct keeps every product inside and gives the sub-bimonoid.

    `inst` is the parent species, not its avoiding instance, and `which`
    selects the coproduct.  Each degree is checked on one representative
    per orbit class, from a class registry local to the call.  This is
    sound because the check is natural: for a relabeling σ, has_part(σs) =
    has_part(s), since the avoidance set is relabel-invariant and restriction
    commutes with relabeling; the cuts of π(σs) are σ of the cuts of π(s);
    and (σs)|σD = σ(s|D).  So (s, D) fails exactly when (σs, σD) fails.  The
    last two are the naturality of relabeling that `SpeciesInstance` asks of
    every species and that the Fock tables rest on too; the verifiers check
    that restriction is functorial, but not yet that relabeling is natural.
    The witness is the first failing labeled element, the one a walk over
    every labeled element returns: every earlier degree passed, elements
    are listed by serialization, each representative is the least member
    of its orbit in that order, and classes come sorted by it, so the first
    failing class's representative is the least failing element of the
    degree.

    `stats` holds per degree the `elements` (the sum of the orbit sizes),
    the orbit `classes`, the classes `with_part` and the `cuts` checked on
    them, up to the failure.
    """
    registry = ClassRegistry(inst)
    stats = []
    for n in range(nmax + 1):
        classes = registry.classes_of_degree(n)
        stat = dict(degree=n, elements=sum(map(registry.orbit_size, classes)), classes=len(classes), with_part=0, cuts=0)
        stats.append(stat)
        for c in classes:
            cut = _lost_cut(inst, which, aset, c.rep, stat)
            if cut is not None:
                return VerificationReport(
                    False,
                    "Irreducibility",
                    {"element": inst.serialize(c.rep), "cut_down": sorted(cut.down), "which": which},
                    tuple(stats),
                )
    return VerificationReport(True, stats=tuple(stats))

