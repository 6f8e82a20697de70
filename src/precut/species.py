"""Restriction species over preorders: cut coproducts, dual products, and
the exhaustive verifiers for the comonoid, intertwining and bimonoid laws.

A species instance bundles enumeration, restriction, relabeling and two
preorder projections.  The coproduct of an element at a decomposition
(A, B) is its restriction pair when (A, B) is a cut of the selected
projection, and zero otherwise; the product is the dual: all elements whose
coproduct returns the given pair.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import BadDecomposition, CapExceeded
from .preorder import Preorder, is_cut
from .preorder import cuts as preorder_cuts
from .preorder import restrict as preorder_restrict

STAGE_MONOTONICITY = "ProjectionMonotonicity"
STAGE_CUT_EQUALITY = "CutEquality"
STAGE_EXTENSION = "ExtensionUniqueness"
STAGE_CUT_VALIDITY = "CutValidity"
STAGE_COMMUTE = "PullbackCommute"
STAGE_UNIT = "Unit"
STAGE_COUNIT = "Counit"
STAGE_COASSOC = "Coassociativity"
STAGE_ASSOC = "Associativity"
STAGE_COMPAT = "Compatibility"


@dataclass(frozen=True)
class VerificationReport:
    passed: bool
    stage: str | None = None
    witness: object = None

    def __bool__(self):
        return self.passed

    def to_json(self):
        return {"passed": self.passed, "stage": self.stage, "witness": self.witness}


class SpeciesInstance:
    """Behavioral bundle for one restriction species over preorders.

    Subclasses provide `_elements`, `restrict`, `relabel`, `pi1`, `pi2`,
    `serialize` and `ground_of`; there are no optional hooks.  The last one,
    a per-species product fast path, went when `fock_tables` began building
    products in one pass per degree: it paid only by keeping a bucket scan
    per class pair out of `fock_tables(perm_f, N=5)` (32 MB peak RSS with
    it, 54 MB without), and the one-pass product scans no buckets.  Elements
    must be hashable values; `elements` results are cached per ground set
    and returned in serialization order.  Each instance owns its caches,
    including the canonical forms, intertwining verdicts and avoidance
    verdicts that `fock` and `avoidance` store here, so two instances never
    share a result.
    """

    name = "abstract"
    cap = 6

    def __init__(self):
        self._element_cache = {}
        self._mu_cache = {}
        self._pi_cache = {}
        self._canon_cache = {}
        self._verified = {}  # depth -> intertwining report
        self._part_cache = {}  # (avoidance set, element) -> has_part

    # -- required per species ------------------------------------------

    def _elements(self, ground):
        raise NotImplementedError

    def restrict(self, s, sub):
        raise NotImplementedError

    def relabel(self, s, mapping):
        raise NotImplementedError

    def pi1(self, s) -> Preorder:
        raise NotImplementedError

    def pi2(self, s) -> Preorder:
        raise NotImplementedError

    def serialize(self, s):
        raise NotImplementedError

    def ground_of(self, s) -> frozenset:
        raise NotImplementedError

    # -- shared machinery -------------------------------------------------

    def elements(self, ground):
        key = frozenset(ground)
        cached = self._element_cache.get(key)
        if cached is None:
            if len(key) > self.cap:
                raise CapExceeded(
                    f"{self.name}: ground of size {len(key)} above cap {self.cap}"
                )
            els = sorted(self._elements(tuple(sorted(key))), key=self.serialize)
            cached = tuple(els)
            self._element_cache[key] = cached
        return cached

    def unit(self):
        (e,) = self.elements(())
        return e

    def pi(self, which, s) -> Preorder:
        key = (which, s)
        p = self._pi_cache.get(key)
        if p is None:
            p = self.pi1(s) if which == 1 else self.pi2(s)
            self._pi_cache[key] = p
        return p


def delta(inst: SpeciesInstance, which, s, A, B):
    """Cut coproduct: the restriction pair when (A, B) cuts the projection, else None."""
    A, B = frozenset(A), frozenset(B)
    ground = inst.ground_of(s)
    if A & B or A | B != ground:
        raise BadDecomposition(f"({sorted(A)}, {sorted(B)}) does not decompose {sorted(ground)}")
    if not is_cut(inst.pi(which, s), A):
        return None
    return (inst.restrict(s, A), inst.restrict(s, B))


def mu_bucket(inst: SpeciesInstance, which, A, B):
    """Map (u, v) -> tuple of all s on A ∪ B with delta(which, s, A, B) == (u, v)."""
    A, B = frozenset(A), frozenset(B)
    key = (which, A, B)
    bucket = inst._mu_cache.get(key)
    if bucket is None:
        bucket = {}
        for s in inst.elements(A | B):
            d = delta(inst, which, s, A, B)
            if d is not None:
                bucket.setdefault(d, []).append(s)
        bucket = {k: tuple(v) for k, v in bucket.items()}
        inst._mu_cache[key] = bucket
    return bucket


def mu(inst: SpeciesInstance, which, u, v):
    """Dual product: all elements restricting to (u, v) across a (u, v)-cut.

    Each element occurs at most once since the coproduct is a partial map.
    """
    A, B = inst.ground_of(u), inst.ground_of(v)
    if A & B:
        raise BadDecomposition(f"grounds overlap: {sorted(A)} and {sorted(B)}")
    return mu_bucket(inst, which, A, B).get((u, v), ())


def _subsets(ground):
    ground = tuple(sorted(ground))
    for r in range(len(ground) + 1):
        yield from (frozenset(c) for c in itertools.combinations(ground, r))


def _block_assignments(ground, nblocks):
    ground = tuple(sorted(ground))
    for assignment in itertools.product(range(nblocks), repeat=len(ground)):
        blocks = [frozenset(x for x, a in zip(ground, assignment) if a == k) for k in range(nblocks)]
        yield blocks


def check_species_over_preorders(inst: SpeciesInstance, nmax) -> VerificationReport:
    """Both projections must shrink under restriction and be exact on cut sides."""
    for n in range(nmax + 1):
        ground = tuple(range(1, n + 1))
        for s in inst.elements(ground):
            projections = {which: inst.pi(which, s) for which in (1, 2)}
            for sub in _subsets(ground):
                r = inst.restrict(s, sub)
                for which in (1, 2):
                    inner = inst.pi(which, r)
                    outer = projections[which]
                    if not inner <= preorder_restrict(outer, sub):
                        return VerificationReport(
                            False,
                            STAGE_MONOTONICITY,
                            {
                                "element": inst.serialize(s),
                                "subset": sorted(sub),
                                "which": which,
                            },
                        )
            for which in (1, 2):
                p = projections[which]
                for cut in preorder_cuts(p):
                    for side in (cut.down, cut.up):
                        r = inst.restrict(s, side)
                        if inst.pi(which, r) != preorder_restrict(p, side):
                            return VerificationReport(
                                False,
                                STAGE_CUT_EQUALITY,
                                {
                                    "element": inst.serialize(s),
                                    "cut_down": sorted(cut.down),
                                    "side": sorted(side),
                                    "which": which,
                                },
                            )
    return VerificationReport(True)


def _corner_key(inst, u, v, A, B, C, D):
    """Corner restrictions of the pair (u on A∪C, v on B∪D), in slot order A, B, C, D."""
    return (
        inst.restrict(u, A),
        inst.restrict(v, B),
        inst.restrict(u, C),
        inst.restrict(v, D),
    )


def check_intertwined(inst: SpeciesInstance, nmax) -> VerificationReport:
    """Every mixed four-block diagram of the two cut coproducts must be a
    partial pullback: restrictions of doubly-cut elements carry the small
    cuts, the two restriction paths agree, and every corner-compatible
    quadruple has exactly one completion carrying both big cuts.
    """
    pre = check_species_over_preorders(inst, nmax)
    if not pre.passed:
        return pre
    for n in range(nmax + 1):
        ground = tuple(range(1, n + 1))
        els = inst.elements(ground)
        for A, B, C, D in _block_assignments(ground, 4):
            AB, CD, AC, BD = A | B, C | D, A | C, B | D
            witness_base = {
                "blocks": [sorted(A), sorted(B), sorted(C), sorted(D)],
            }
            completions = {}
            for s in els:
                if not is_cut(inst.pi(1, s), AB) or not is_cut(inst.pi(2, s), AC):
                    continue
                u, v = inst.restrict(s, AC), inst.restrict(s, BD)
                p, q = inst.restrict(s, AB), inst.restrict(s, CD)
                if not (
                    is_cut(inst.pi(1, u), A)
                    and is_cut(inst.pi(1, v), B)
                    and is_cut(inst.pi(2, p), A)
                    and is_cut(inst.pi(2, q), C)
                ):
                    return VerificationReport(
                        False,
                        STAGE_CUT_VALIDITY,
                        dict(witness_base, element=inst.serialize(s)),
                    )
                if _corner_key(inst, u, v, A, B, C, D) != (
                    inst.restrict(p, A),
                    inst.restrict(p, B),
                    inst.restrict(q, C),
                    inst.restrict(q, D),
                ):
                    return VerificationReport(
                        False,
                        STAGE_COMMUTE,
                        dict(witness_base, element=inst.serialize(s)),
                    )
                key = (u, v, p, q)
                completions[key] = completions.get(key, 0) + 1

            u_side = [u for u in inst.elements(AC) if is_cut(inst.pi(1, u), A)]
            v_side = [v for v in inst.elements(BD) if is_cut(inst.pi(1, v), B)]
            p_side = [p for p in inst.elements(AB) if is_cut(inst.pi(2, p), A)]
            q_side = [q for q in inst.elements(CD) if is_cut(inst.pi(2, q), C)]
            by_corner = {}
            for p in p_side:
                pa, pb = inst.restrict(p, A), inst.restrict(p, B)
                for q in q_side:
                    corner = (pa, pb, inst.restrict(q, C), inst.restrict(q, D))
                    by_corner.setdefault(corner, []).append((p, q))
            for u in u_side:
                for v in v_side:
                    corner = _corner_key(inst, u, v, A, B, C, D)
                    for p, q in by_corner.get(corner, ()):
                        count = completions.get((u, v, p, q), 0)
                        if count != 1:
                            return VerificationReport(
                                False,
                                STAGE_EXTENSION,
                                dict(
                                    witness_base,
                                    corners={
                                        "on_AC": inst.serialize(u),
                                        "on_BD": inst.serialize(v),
                                        "on_AB": inst.serialize(p),
                                        "on_CD": inst.serialize(q),
                                    },
                                    completions=count,
                                    near_misses=_near_misses(
                                        inst, els, (u, v, p, q), (AC, BD, AB, CD)
                                    ),
                                ),
                            )
    return VerificationReport(True)


def _near_misses(inst, els, quadruple, grounds):
    """Elements matching all four restrictions, with their big-cut status."""
    u, v, p, q = quadruple
    AC, BD, AB, CD = grounds
    out = []
    for s in els:
        if (
            inst.restrict(s, AC) == u
            and inst.restrict(s, BD) == v
            and inst.restrict(s, AB) == p
            and inst.restrict(s, CD) == q
        ):
            out.append(
                {
                    "element": inst.serialize(s),
                    "cut_for_pi1": is_cut(inst.pi(1, s), AB),
                    "cut_for_pi2": is_cut(inst.pi(2, s), AC),
                }
            )
    return out


def check_bimonoid(inst: SpeciesInstance, coproduct_index, nmax) -> VerificationReport:
    """Bimonoid laws for (delta_i, mu_j) on all ground sets of size <= nmax.

    Checks the unit and counit conventions on the empty set, coassociativity
    of both coproducts elementwise (associativity of the dual product is the
    transpose of the second), and the product/coproduct compatibility square
    as an exact count comparison.
    """
    i = coproduct_index
    j = 2 if i == 1 else 1
    if len(inst.elements(())) != 1:
        return VerificationReport(False, STAGE_UNIT, {"size_on_empty": len(inst.elements(()))})
    unit = inst.unit()
    for n in range(nmax + 1):
        ground = tuple(range(1, n + 1))
        els = inst.elements(ground)
        full = frozenset(ground)
        for s in els:
            for which in (i, j):
                if delta(inst, which, s, full, frozenset()) != (s, unit):
                    return VerificationReport(
                        False, STAGE_COUNIT, {"element": inst.serialize(s), "which": which}
                    )
                if delta(inst, which, s, frozenset(), full) != (unit, s):
                    return VerificationReport(
                        False, STAGE_COUNIT, {"element": inst.serialize(s), "which": which}
                    )
            if n:
                if mu(inst, j, unit, s) != (s,) or mu(inst, j, s, unit) != (s,):
                    return VerificationReport(
                        False, STAGE_UNIT, {"element": inst.serialize(s)}
                    )
        for A, B, C in _block_assignments(ground, 3):
            for s in els:
                for which, stage in ((i, STAGE_COASSOC), (j, STAGE_ASSOC)):
                    p = inst.pi(which, s)
                    left_defined = is_cut(p, A | B) and is_cut(
                        inst.pi(which, inst.restrict(s, A | B)), A
                    )
                    right_defined = is_cut(p, A) and is_cut(
                        inst.pi(which, inst.restrict(s, B | C)), B
                    )
                    if left_defined != right_defined:
                        return VerificationReport(
                            False,
                            stage,
                            {
                                "element": inst.serialize(s),
                                "blocks": [sorted(A), sorted(B), sorted(C)],
                                "which": which,
                            },
                        )
                    if left_defined:
                        ab = inst.restrict(s, A | B)
                        bc = inst.restrict(s, B | C)
                        left = (
                            inst.restrict(ab, A),
                            inst.restrict(ab, B),
                            inst.restrict(s, C),
                        )
                        right = (
                            inst.restrict(s, A),
                            inst.restrict(bc, B),
                            inst.restrict(bc, C),
                        )
                        if left != right:
                            return VerificationReport(
                                False,
                                stage,
                                {
                                    "element": inst.serialize(s),
                                    "blocks": [sorted(A), sorted(B), sorted(C)],
                                    "which": which,
                                },
                            )
        for A, B, C, D in _block_assignments(ground, 4):
            AB, CD, AC, BD = A | B, C | D, A | C, B | D
            path1 = {}
            for s in els:
                top = delta(inst, j, s, AC, BD)
                if top is None:
                    continue
                left = delta(inst, i, s, AB, CD)
                if left is None:
                    continue
                key = (top, left)
                path1[key] = path1.get(key, 0) + 1
            path2 = {}
            bucket_ab = mu_bucket(inst, j, A, B)
            bucket_cd = mu_bucket(inst, j, C, D)
            for u in inst.elements(AC):
                du = delta(inst, i, u, A, C)
                if du is None:
                    continue
                a, c = du
                for v in inst.elements(BD):
                    dv = delta(inst, i, v, B, D)
                    if dv is None:
                        continue
                    b, d = dv
                    for p in bucket_ab.get((a, b), ()):
                        for q in bucket_cd.get((c, d), ()):
                            key = ((u, v), (p, q))
                            path2[key] = path2.get(key, 0) + 1
            if path1 != path2:
                keys = set(path1) | set(path2)
                bad = next(k for k in keys if path1.get(k, 0) != path2.get(k, 0))
                (u, v), (p, q) = bad
                return VerificationReport(
                    False,
                    STAGE_COMPAT,
                    {
                        "blocks": [sorted(A), sorted(B), sorted(C), sorted(D)],
                        "corners": {
                            "on_AC": inst.serialize(u),
                            "on_BD": inst.serialize(v),
                            "on_AB": inst.serialize(p),
                            "on_CD": inst.serialize(q),
                        },
                        "mu_then_delta": path1.get(bad, 0),
                        "delta_then_mu": path2.get(bad, 0),
                    },
                )
    return VerificationReport(True)
