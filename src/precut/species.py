"""Restriction species over preorders: orbit classes under relabeling, cut
coproducts, dual products, and the exhaustive verifiers for the comonoid,
intertwining and bimonoid laws.

A species instance bundles enumeration, restriction, relabeling and two
preorder projections.  The coproduct of an element at a decomposition
(A, B) is its restriction pair when (A, B) is a cut of the selected
projection, and zero otherwise; the product is the dual: all elements whose
coproduct returns the given pair.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from collections import Counter
from dataclasses import dataclass

from .errors import BadDecomposition, CapExceeded, InvalidStructure
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
    stats: tuple = ()  # per-degree counts of the check; not in to_json()

    def __bool__(self):
        return self.passed

    def to_json(self):
        return {"passed": self.passed, "stage": self.stage, "witness": self.witness}


class SpeciesInstance:
    """Behavioral bundle for one restriction species over preorders.

    Subclasses provide `_elements`, `restrict`, `relabel`, `pi1`, `pi2`,
    `serialize` and `ground_of`; there are no optional hooks.  A shipped
    instance reads all but `pi2` and `serialize` from one `Factor`
    (`instances.hadamard.Single`), or all but `serialize` from two
    (`Hadamard`), and an avoiding instance binds its parent's.  Elements
    must be hashable values, each listed once; relabeling and restriction
    must stay among the elements, and relabeling must be natural, commuting
    with restriction and with π1, π2
    (`preorder.relabel`): the orbit classes of `ClassRegistry` and
    everything read off their representatives rest on it, and no verifier
    checks it yet.  `elements` results are cached per ground set and
    returned in serialization order.  Each instance owns its caches, with
    the intertwining verdicts that `fock` stores here, so two instances
    never share a result.  Orbit classes are not cached here: each
    `ClassRegistry` holds its own.
    """

    name = "abstract"
    cap = 6

    def __init__(self):
        self._element_cache = {}
        self._mu_cache = {}
        self._pi_cache = {}
        self._verified = {}  # depth -> intertwining report

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


# -- orbit classes -------------------------------------------------------------


def _jsonify(x):
    if isinstance(x, (list, tuple)):
        return [_jsonify(v) for v in x]
    if isinstance(x, frozenset):
        return sorted(_jsonify(v) for v in x)
    return x


def _orbit(inst, s):
    """The distinct relabelings of s onto 1..n, each with the image along the
    sorted ground of the first bijection giving it: the one orbit walk."""
    ground = sorted(inst.ground_of(s))
    n = len(ground)
    if n > inst.cap:
        raise CapExceeded(f"{inst.name}: canonical form at size {n} above cap {inst.cap}")
    members = {}
    for image in itertools.permutations(range(1, n + 1)):
        members.setdefault(inst.relabel(s, dict(zip(ground, image))), image)
    return ground, members


@dataclass(frozen=True)
class OrbitClass:
    instance: str
    degree: int
    rep: object
    key: object
    cid: str


def _class_id(instance, degree, key):
    blob = json.dumps([instance, degree, _jsonify(key)], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


class ClassRegistry:
    """The orbit classes of one instance, each degree built once, on first use.

    A class is an orbit of the elements on 1..n under relabeling: the
    species' coinvariants.  Building degree n walks, n! relabelings each, the
    orbits of the elements that no earlier walk met.  The orbit's least
    serialization is the representative; each member is filed under its
    class in one dict over the degree's elements, and no relabeled copy or
    witness outlives its walk.  It also records each orbit's size, for the
    Fock product.  A relabeling that leaves the degree's elements raises
    InvalidStructure.  Whatever a caller reads off a representative holds
    for its whole class only when relabeling is natural (`SpeciesInstance`).
    """

    def __init__(self, inst):
        self.inst = inst
        self.degrees = {}  # n -> ({element on 1..n: its class}, classes by key)
        self.orbits = {}  # cid -> orbit size

    def class_of(self, s):
        """The class of s on any ground: s relabeled in order onto 1..k, looked up."""
        inst = self.inst
        ground = sorted(inst.ground_of(s))
        k = len(ground)
        if ground != list(range(1, k + 1)):
            s = inst.relabel(s, dict(zip(ground, range(1, k + 1))))
        self.classes_of_degree(k)
        cls = self.degrees[k][0].get(s)
        if cls is None:
            raise InvalidStructure(f"{inst.name}: {inst.serialize(s)} is not an element of degree {k}")
        return cls

    def classes_of_degree(self, n):
        """The orbit classes of the elements on 1..n, sorted by key."""
        if n not in self.degrees:
            inst = self.inst
            els = inst.elements(tuple(range(1, n + 1)))
            of, classes = dict.fromkeys(els), []
            for s in els:
                if of[s] is None:
                    _, members = _orbit(inst, s)
                    rep = min(members, key=inst.serialize)
                    key = inst.serialize(rep)
                    cls = OrbitClass(inst.name, n, rep, key, _class_id(inst.name, n, key))
                    of.update(dict.fromkeys(members, cls))
                    if len(of) > len(els):
                        raise InvalidStructure(f"{inst.name}: relabeling {inst.serialize(s)} leaves degree {n}")
                    self.orbits[cls.cid] = len(members)
                    classes.append(cls)
            self.degrees[n] = (of, sorted(classes, key=lambda c: c.key))
        return self.degrees[n][1]

    def orbit_size(self, cls):
        """The number of distinct relabelings of cls's representative onto 1..n."""
        return self.orbits[cls.cid]


ELEMENT_BOUND = 518_400  # (6!)^2, perm pairs at their cap: the largest shipped degree


def check_element_count(inst: SpeciesInstance, n, count):
    """Refuse, before enumerating, a degree n of more than ELEMENT_BOUND elements."""
    if count > ELEMENT_BOUND:
        raise CapExceeded(f"{inst.name}: {count} elements in degree {n}, above {ELEMENT_BOUND}")


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
    """Both projections must shrink under restriction and be exact on cut sides.

    Every element is restricted once to each subset of its ground, and the
    cut sides are read from those restrictions.  The restriction of a
    projection to a subset is memoised per degree by (projection, subset):
    projections repeat across the elements of a degree.

    `stats` holds per degree the elements, the subsets restricted (2ⁿ per
    element on a passing run) and the cut sides compared, two per cut of each
    projection; on a failure the last entry counts up to the failing one.
    """
    stats = []
    for n in range(nmax + 1):
        ground = tuple(range(1, n + 1))
        subsets = tuple(_subsets(ground))
        projected = {}  # (projection, subset) -> its restriction
        els = inst.elements(ground)
        stat = {"degree": n, "elements": len(els), "restrictions": 0, "cut_sides": 0}
        stats.append(stat)

        def restricted(p, sub):
            key = (p, sub)
            r = projected.get(key)
            if r is None:
                r = projected[key] = preorder_restrict(p, sub)
            return r

        for s in els:
            projections = {which: inst.pi(which, s) for which in (1, 2)}
            on = {}  # restrictions of s, by subset
            for sub in subsets:
                r = on[sub] = inst.restrict(s, sub)
                stat["restrictions"] += 1
                for which in (1, 2):
                    if not inst.pi(which, r) <= restricted(projections[which], sub):
                        return VerificationReport(
                            False,
                            STAGE_MONOTONICITY,
                            {
                                "element": inst.serialize(s),
                                "subset": sorted(sub),
                                "which": which,
                            },
                            tuple(stats),
                        )
            for which in (1, 2):
                p = projections[which]
                for cut in preorder_cuts(p):
                    for side in (cut.down, cut.up):
                        stat["cut_sides"] += 1
                        if inst.pi(which, on[side]) != restricted(p, side):
                            return VerificationReport(
                                False,
                                STAGE_CUT_EQUALITY,
                                {
                                    "element": inst.serialize(s),
                                    "cut_down": sorted(cut.down),
                                    "side": sorted(side),
                                    "which": which,
                                },
                                tuple(stats),
                            )
    return VerificationReport(True, stats=tuple(stats))


class _Sides:
    """The split sides of one degree, each built once on first use:
    (which, ground, down) -> {x: (x|down, x|ground − down)} over the elements
    x on `ground` that `down` cuts for π_which (the domain of delta_which),
    in element order.

    All restrictions pass through one value pool, so equal restrictions are
    one object and the table holds each value once.  A verifier makes one
    table per degree and drops it with the degree; nothing lands on the
    instance.
    """

    def __init__(self, inst):
        self.inst = inst
        self.table = {}
        self.pool = {}

    def __call__(self, which, ground, down):
        key = (which, ground, down)
        side = self.table.get(key)
        if side is None:
            inst, intern = self.inst, self.pool.setdefault
            up = ground - down
            side = self.table[key] = {}
            for x in inst.elements(ground):
                if is_cut(inst.pi(which, x), down):
                    r, t = inst.restrict(x, down), inst.restrict(x, up)
                    side[x] = (intern(r, r), intern(t, t))
        return side

    def of(self, which, ground, down, x):
        """x's pair in its side, or None when `down` does not cut π_which(x).

        A faulty species can restrict onto a value that `ground` does not
        enumerate; such an x is tested and restricted on the spot.
        """
        pair = self(which, ground, down).get(x)
        if pair is None and is_cut(self.inst.pi(which, x), down):
            pair = (self.inst.restrict(x, down), self.inst.restrict(x, ground - down))
        return pair

    def corners(self, i, j, A, B, C, D):
        """Corner side of a four-block diagram: u on A∪C and v on B∪D split by
        the i-th cut, p on A∪B and q on C∪D split by the j-th."""
        return (self(i, A | C, A), self(i, B | D, B), self(j, A | B, A), self(j, C | D, C))


def _diagrams(split, ground, i, j, stats):
    """The four-block diagrams of one degree that break the square law, in
    block-assignment order, as (blocks, corner sides, incidences, counts,
    quadruples): the one place where the law is decided.

    The compatibility square of (Δ_i, μ_j) and the intertwining square of
    (Δ¹, Δ²) are one law: a diagram passes exactly when its doubly-cut
    elements hit every corner-compatible quadruple once and nothing else.
    The incidences are the elements s in both full-ground sides, split by
    A∪B for π_i and by A∪C for π_j, in element order, each with its corners
    (u, v, p, q) = (s|A∪C, s|B∪D, s|A∪B, s|C∪D); `counts` is their Counter
    and `quadruples` maps each quadruple, in `_quadruples` order, to 1.

    Appends the degree's entry to `stats`: `incidences` and `completions`
    add each diagram's incidences and quadruples through the failing one
    (a pair of cuts of π_i(s) and π_j(s) is an incidence of one diagram),
    and `sides` is kept current.
    """
    inst = split.inst
    full = frozenset(ground)
    els = inst.elements(ground)
    stat = {
        "degree": len(ground),
        "elements": len(els),
        "incidences": 0,
        "completions": 0,
        "sides": 0,
    }
    stats.append(stat)
    for blocks in _block_assignments(ground, 4):
        A, B, C, D = blocks
        sides = split.corners(i, j, A, B, C, D)
        on_AB, on_AC = split(i, full, A | B), split(j, full, A | C)
        stat["sides"] = len(split.table)
        small, big = sorted((on_AB, on_AC), key=len)  # both in element order
        incidences = [(s, on_AC[s] + on_AB[s]) for s in small if s in big]
        stat["incidences"] += len(incidences)
        counts = Counter(key for _, key in incidences)
        quadruples = dict.fromkeys(_quadruples(sides), 1)
        stat["completions"] += len(quadruples)
        if counts != quadruples:
            yield blocks, sides, incidences, counts, quadruples


def _quadruples(sides):
    """The corner-compatible quadruples, u-major, each side in element order:
    the order of a u × v × p × q scan."""
    U, V, P, Q = sides
    by_p, by_q = {}, {}
    for p, key in P.items():
        by_p.setdefault(key, []).append(p)
    for q, key in Q.items():
        by_q.setdefault(key, []).append(q)
    for u, (a, c) in U.items():
        for v, (b, d) in V.items():
            for p in by_p.get((a, b), ()):
                for q in by_q.get((c, d), ()):
                    yield u, v, p, q


def _corners_json(inst, quadruple):
    u, v, p, q = quadruple
    return {
        "on_AC": inst.serialize(u),
        "on_BD": inst.serialize(v),
        "on_AB": inst.serialize(p),
        "on_CD": inst.serialize(q),
    }


def check_intertwined(inst: SpeciesInstance, nmax) -> VerificationReport:
    """Every mixed four-block diagram of the two cut coproducts must be a
    partial pullback: restrictions of doubly-cut elements carry the small
    cuts, the two restriction paths agree, and every corner-compatible
    quadruple has exactly one completion carrying both big cuts.

    That is the square law that `_diagrams` decides, for this check and the
    bimonoid square alike, reading the incidences from the two full-ground
    sides (`_Sides`, built once per degree).  Only a diagram that breaks it
    is walked for a witness: its incidences in element order, then its
    quadruples in u × v × p × q order, so the first failure is the one a
    scan of every assignment against every element finds.

    CutValidity cannot fail once the precondition passes: monotonicity,
    π(s|S) ⊆ π(s)|S, carries each cut of π(s) down to s|S, so every small
    cut holds.  The stage is kept as a defence and fires only when the
    precondition is bypassed.

    `stats` holds per degree the elements, the doubly-cut elements of the
    diagrams walked (incidences), their corner-compatible quadruples
    (completions) and the split sides built.  On a passing run incidences
    and completions agree and the sides number 2·3ⁿ; on a failure the last
    entry is the failing degree, with all three counted through the failing
    diagram.
    """
    pre = check_species_over_preorders(inst, nmax)
    if not pre.passed:
        return VerificationReport(False, pre.stage, pre.witness)  # stats: four-block counts only
    stats = []
    for n in range(nmax + 1):
        ground = tuple(range(1, n + 1))
        split = _Sides(inst)
        for blocks, sides, incidences, counts, quadruples in _diagrams(split, ground, 1, 2, stats):
            A, B, C, D = blocks
            AB, CD, AC, BD = A | B, C | D, A | C, B | D
            witness_base = {"blocks": [sorted(block) for block in blocks]}
            U, V, P, Q = sides
            for s, (u, v, p, q) in incidences:
                # a corner side holds every enumerated element its small cut
                # cuts; `of` settles the rest
                pairs = (
                    U.get(u) or split.of(1, AC, A, u),
                    V.get(v) or split.of(1, BD, B, v),
                    P.get(p) or split.of(2, AB, A, p),
                    Q.get(q) or split.of(2, CD, C, q),
                )
                if None in pairs:
                    return VerificationReport(
                        False,
                        STAGE_CUT_VALIDITY,
                        dict(witness_base, element=inst.serialize(s)),
                        tuple(stats),
                    )
                (ua, uc), (vb, vd), (pa, pb), (qc, qd) = pairs
                if (ua, vb, uc, vd) != (pa, pb, qc, qd):
                    return VerificationReport(
                        False,
                        STAGE_COMMUTE,
                        dict(witness_base, element=inst.serialize(s)),
                        tuple(stats),
                    )
            for quadruple in quadruples:
                if counts[quadruple] != 1:
                    return VerificationReport(
                        False,
                        STAGE_EXTENSION,
                        dict(
                            witness_base,
                            corners=_corners_json(inst, quadruple),
                            completions=counts[quadruple],
                            near_misses=_near_misses(inst, blocks, quadruple),
                        ),
                        tuple(stats),
                    )
    return VerificationReport(True, stats=tuple(stats))


def _near_misses(inst, blocks, quadruple):
    """Elements matching all four restrictions, with their big-cut status."""
    u, v, p, q = quadruple
    A, B, C, D = blocks
    AB, CD, AC, BD = A | B, C | D, A | C, B | D
    out = []
    for s in inst.elements(A | B | C | D):
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


def _three_block_failure(split, ground, i, j):
    """The coassociativity or associativity failure of one degree that comes
    first in (block assignment, element, which) order, or None.

    The assignments (A, B, C) are walked in `_block_assignments` order and
    read from the degree's split sides.  The right side is defined on the
    elements s of the side split by A whose s|B∪C is split by B, the left
    side on those of the side split by A∪B whose s|A∪B is split by A.  A law
    fails when only one side is defined or when the restriction triples
    differ; the failing element with the least index is reported, and the
    element index is built only then.
    """
    inst = split.inst
    full = frozenset(ground)
    for A, B, C in _block_assignments(ground, 3):
        AB, BC = A | B, B | C
        failed = {}  # element -> position in (i, j) of its first failing law
        for w, which in enumerate((i, j)):
            right = {}
            for s, (a, bc) in split(which, full, A).items():
                pair = split.of(which, BC, B, bc)
                if pair is not None:
                    right[s] = (a,) + pair
            for s, (ab, c) in split(which, full, AB).items():
                pair = split.of(which, AB, A, ab)
                if pair is not None and right.pop(s, None) != pair + (c,):
                    failed.setdefault(s, w)
            for s in right:
                failed.setdefault(s, w)
        if failed:
            index = {s: k for k, s in enumerate(inst.elements(ground))}
            s, w = min(failed.items(), key=lambda item: (index[item[0]], item[1]))
            witness = {
                "element": inst.serialize(s),
                "blocks": [sorted(A), sorted(B), sorted(C)],
                "which": (i, j)[w],
            }
            return (STAGE_COASSOC, STAGE_ASSOC)[w], witness
    return None


def check_bimonoid(inst: SpeciesInstance, coproduct_index, nmax) -> VerificationReport:
    """Bimonoid laws for (delta_i, mu_j) on all ground sets of size <= nmax.

    Checks the unit and counit conventions on the empty set, coassociativity
    of both coproducts elementwise (associativity of the dual product is the
    transpose of the second), and the product/coproduct compatibility square
    as an exact count comparison.

    Every stage reads one table of split sides per degree (`_Sides`), made at
    the top of the degree.  What is enumerated, in this order: the elements,
    each with its counit pairs in the sides of the full ground split by itself
    and by ∅, and with μ_j(unit, s) and μ_j(s, unit), its inverse images in
    π_j's two such sides; the three-block assignments, in block-assignment
    order (`_three_block_failure`); the four-block diagrams of π_i and π_j,
    in block-assignment order.  The square is the law that
    `check_intertwined` checks, decided once in `_diagrams`: the
    mu-then-delta side counts the corners of the doubly-cut elements, read
    from the two sides on the full ground, and the delta-then-mu side holds
    one term per corner-compatible quadruple; they must be equal.  A
    failure is the one a scan of every block assignment against every
    element finds first.  A Compatibility witness names the least differing
    key, comparing the serializations of its corners on A∪C, B∪D, A∪B and
    C∪D in that order.

    `stats` holds per degree the elements, the incidences of the square and
    its delta-then-mu terms (completions), both counted through the failing
    diagram, and the split sides built, as in `check_intertwined`.  `sides` counts
    every side the degree built, the earlier stages' included, so a failing
    square may report more than it reached; a degree whose unit or
    three-block laws fail has no entry.
    """
    i = coproduct_index
    j = 2 if i == 1 else 1
    if len(inst.elements(())) != 1:
        return VerificationReport(False, STAGE_UNIT, {"size_on_empty": len(inst.elements(()))})
    unit = inst.unit()
    stats = []
    for n in range(nmax + 1):
        ground = tuple(range(1, n + 1))
        full, empty = frozenset(ground), frozenset()
        split = _Sides(inst)
        # pair -> its inverse image in π_j's side split by ∅, by full; on the
        # empty ground both are the counit's side, so the unit law follows
        products = ({}, {})
        for image, down in zip(products, (empty, full)):
            for x, pair in split(j, full, down).items():
                image.setdefault(pair, []).append(x)
        for s in inst.elements(ground):
            for which in (i, j):
                counit = split(which, full, full).get(s), split(which, full, empty).get(s)
                if counit != ((s, unit), (unit, s)):
                    return VerificationReport(
                        False,
                        STAGE_COUNIT,
                        {"element": inst.serialize(s), "which": which},
                        tuple(stats),
                    )
            if products[0].get((unit, s)) != [s] or products[1].get((s, unit)) != [s]:
                return VerificationReport(
                    False, STAGE_UNIT, {"element": inst.serialize(s)}, tuple(stats)
                )
        failure = _three_block_failure(split, ground, i, j)
        if failure is not None:
            return VerificationReport(False, *failure, tuple(stats))
        for blocks, _, _, path1, path2 in _diagrams(split, ground, i, j, stats):
            bad = min(
                (k for k in path1.keys() | path2.keys() if path1[k] != path2.get(k, 0)),
                key=lambda k: tuple(map(inst.serialize, k)),
            )
            return VerificationReport(
                False,
                STAGE_COMPAT,
                {
                    "blocks": [sorted(block) for block in blocks],
                    "corners": _corners_json(inst, bad),
                    "mu_then_delta": path1[bad],
                    "delta_then_mu": path2.get(bad, 0),
                },
                tuple(stats),
            )
    return VerificationReport(True, stats=tuple(stats))
