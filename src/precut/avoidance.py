"""Avoiding subspecies, irreducibility of a coproduct, and the resulting
sub/quotient bimonoid structure."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import IrreducibilityNotVerified
from .preorder import cuts as preorder_cuts
from .species import SpeciesInstance, VerificationReport


@dataclass(frozen=True)
class AvoidanceSet:
    """Relabel-invariant predicate selecting the forbidden sub-elements.

    `sizes` limits the subset scan to grounds of those sizes (None scans
    all).  `monotone` declares that membership of a restriction implies
    membership of the element itself, collapsing has_part to membership.
    """

    name: str
    membership: object
    sizes: frozenset | None = None
    monotone: bool = False


def has_part(inst: SpeciesInstance, aset: AvoidanceSet, s) -> bool:
    """Whether some restriction of s lies in the avoidance set; the verdict
    is cached on inst."""
    if aset.monotone:
        return bool(aset.membership(s))
    key = (aset, s)
    hit = inst._part_cache.get(key)
    if hit is not None:
        return hit
    ground = tuple(sorted(inst.ground_of(s)))
    sizes = range(len(ground) + 1) if aset.sizes is None else sorted(aset.sizes)
    found = False
    for r in sizes:
        if r > len(ground):
            continue
        for sub in itertools.combinations(ground, r):
            if aset.membership(inst.restrict(s, frozenset(sub))):
                found = True
                break
        if found:
            break
    inst._part_cache[key] = found
    return found


class AvoidingInstance(SpeciesInstance):
    """The parent species filtered to avoiders.

    Restriction, relabeling and projections are inherited; avoiders are
    closed under restriction, so this is again a restriction species over
    preorders.  The dual product automatically drops non-avoiding parent
    products, which is the quotient multiplication.
    """

    def __init__(self, parent: SpeciesInstance, aset: AvoidanceSet):
        super().__init__()
        self.parent = parent
        self.aset = aset
        self.name = f"{parent.name}/{aset.name}"
        self.cap = parent.cap

    def _elements(self, ground):
        return [
            s
            for s in self.parent.elements(ground)
            if not has_part(self.parent, self.aset, s)
        ]

    def restrict(self, s, sub):
        return self.parent.restrict(s, sub)

    def relabel(self, s, mapping):
        return self.parent.relabel(s, mapping)

    def pi1(self, s):
        return self.parent.pi1(s)

    def pi2(self, s):
        return self.parent.pi2(s)

    def ground_of(self, s):
        return self.parent.ground_of(s)

    def serialize(self, s):
        return self.parent.serialize(s)


def avoiding_instance(parent: SpeciesInstance, aset: AvoidanceSet) -> AvoidingInstance:
    return AvoidingInstance(parent, aset)


def is_irreducible(inst: SpeciesInstance, which, aset: AvoidanceSet, nmax) -> VerificationReport:
    """Whenever an element with a part splits across a nonzero cut, one side
    must keep a part."""
    for n in range(nmax + 1):
        ground = tuple(range(1, n + 1))
        for s in inst.elements(ground):
            if not has_part(inst, aset, s):
                continue
            for cut in preorder_cuts(inst.pi(which, s)):
                left, right = inst.restrict(s, cut.down), inst.restrict(s, cut.up)
                if not (has_part(inst, aset, left) or has_part(inst, aset, right)):
                    return VerificationReport(
                        False,
                        "Irreducibility",
                        {
                            "element": inst.serialize(s),
                            "cut_down": sorted(cut.down),
                            "which": which,
                        },
                    )
    return VerificationReport(True)


def quotient_or_sub_bimonoid(inst: SpeciesInstance, aset: AvoidanceSet, irreducible_index, nmax):
    """Avoiding instance plus its bimonoid roles, after verifying
    irreducibility of the stated coproduct at nmax."""
    report = is_irreducible(inst, irreducible_index, aset, nmax)
    if not report.passed:
        raise IrreducibilityNotVerified(
            f"delta^{irreducible_index} is not {aset.name}-irreducible: {report.witness}"
        )
    other = 2 if irreducible_index == 1 else 1
    roles = {
        # dualizing the non-irreducible coproduct keeps all products inside
        f"bimonoid_{other}": "sub-bimonoid of the parent",
        # dualizing the irreducible one multiplies through the quotient map
        f"bimonoid_{irreducible_index}": "quotient bimonoid of the parent",
    }
    return avoiding_instance(inst, aset), roles
