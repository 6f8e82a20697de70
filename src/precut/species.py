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
from math import factorial

from .errors import BadDecomposition, CapExceeded, InvalidStructure, PrecutError
from .preorder import Preorder, is_cut
from .preorder import cuts as preorder_cuts
from .preorder import restrict as preorder_restrict

STAGE_FUNCTORIALITY = "Functoriality"
STAGE_MONOTONICITY = "ProjectionMonotonicity"
STAGE_CUT_EQUALITY = "CutEquality"
STAGE_EXTENSION = "ExtensionUniqueness"
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
    must be hashable values, each listed once (`elements` refuses a ground
    that lists one twice); restriction and relabeling must stay among the
    elements (the verifiers refuse a restriction, `ClassRegistry` a
    relabeling that leaves them); restriction must be functorial, which
    `check_species_over_preorders` checks; and relabeling must be natural,
    commuting with restriction and with π1, π2 (`preorder.relabel`): the
    orbit classes of `ClassRegistry` and everything read off their
    representatives rest on it, and no verifier checks naturality yet.
    `elements` results are cached per
    ground set and returned in serialization order.  Each instance owns
    its caches, with the intertwining verdicts that `fock` stores here, so
    two instances never share a result.  Orbit classes are not cached
    here: each `ClassRegistry` holds its own.
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
            cached = tuple(sorted(self._elements(tuple(sorted(key))), key=self.serialize))
            if len(set(cached)) < len(cached):
                raise InvalidStructure(f"{self.name}: ground {sorted(key)} lists an element twice")
            self._element_cache[key] = cached
        return cached

    def pi(self, which, s) -> Preorder:
        key = (which, s)
        p = self._pi_cache.get(key)
        if p is None:
            require_projection(self, which)
            p = self._pi_cache[key] = self.pi1(s) if which == 1 else self.pi2(s)
        return p


def require_projection(inst: SpeciesInstance, which):
    """Refuse a projection, coproduct or product index other than 1 or 2."""
    if which not in (1, 2):
        raise PrecutError(f"{inst.name}: no projection pi{which}, only pi1 and pi2")


# -- orbit classes -------------------------------------------------------------


def _sort_key(x):
    # a preorder orders by refinement, a partial order, so it sorts by the
    # (ground, rows) key of `OrderSpecies` and `PreorderPairs` instead
    return (x.ground, x.rows) if type(x) is Preorder else x


def _jsonify(x):
    if isinstance(x, (list, tuple)):
        return [_jsonify(v) for v in x]
    if isinstance(x, frozenset):
        return sorted(_jsonify(v) for v in x)
    return x


@dataclass(frozen=True)
class OrbitClass:
    instance: str
    degree: int
    rep: object
    key: object
    cid: str


class ClassRegistry:
    """The orbit classes of one instance, each degree built once, on first use.

    A class is an orbit of the elements on 1..n under relabeling, the
    species' coinvariants, kept as its least member and its size.  Three
    builds: a plain Hadamard product F × G (`_elements`, `relabel`,
    `serialize` Hadamard's own) is a cartesian product of species
    (Bergeron–Labelle–Leroux): the classes through the least x₀ of an
    F-orbit are its stabilizer's orbits on G[n].  An avoiding instance
    (`_elements` its own) has the classes its parent's registry keeps, named
    by the avoider and looked up through the parent.  Anything else, or a
    degree above the cap, is walked, n! relabelings per orbit.
    Representatives speak for their classes only when relabeling is natural
    (`SpeciesInstance`).
    """

    def __init__(self, inst):
        from .avoidance import AvoidingInstance  # it imports this module

        self.inst = inst  # `build` makes each degree up to the cap; the walk refuses one above it
        self.build = (self._kept if _own(inst, ("_elements",), AvoidingInstance) else
                      self._product if _own(inst, ("_elements", "relabel", "serialize")) else self._walk)
        self.degrees = {}  # n -> (element on 1..n -> its class or None, classes by key)
        self.orbits = {}  # cid -> orbit size

    def class_of(self, s):
        """The class of s on any ground: s relabeled in order onto 1..k, looked up."""
        inst = self.inst
        ground = sorted(inst.ground_of(s))
        k = len(ground)
        if ground != list(range(1, k + 1)):
            s = inst.relabel(s, dict(zip(ground, range(1, k + 1))))
        self.classes_of_degree(k)
        cls = self.degrees[k][0](s)
        if cls is None:
            raise InvalidStructure(f"{inst.name}: {inst.serialize(s)} is not an element of degree {k}")
        return cls

    def classes_of_degree(self, n):
        """The orbit classes of the elements on 1..n, in key order, as every build meets them."""
        if n not in self.degrees:
            self.degrees[n] = (self.build if n <= self.inst.cap else self._walk)(n, tuple(range(1, n + 1)))
        return self.degrees[n][1]

    def orbit_size(self, cls):
        """The number of distinct relabelings of cls's representative onto 1..n."""
        return self.orbits[cls.cid]

    def _class(self, n, rep, size):
        key = self.inst.serialize(rep)
        blob = json.dumps([self.inst.name, n, _jsonify(key)], sort_keys=True).encode()
        cls = OrbitClass(self.inst.name, n, rep, key, hashlib.sha256(blob).hexdigest()[:16])
        self.orbits[cls.cid] = size
        return cls

    def _walk(self, n, ground):
        inst = self.inst
        back, stabs, out = _orbits(inst.relabel, inst.elements(ground), _relabelings(ground))
        if out is not None:
            raise InvalidStructure(f"{inst.name}: relabeling {inst.serialize(out)} leaves degree {n}")
        of = {x0: self._class(n, x0, factorial(n) // len(stab)) for x0, stab in stabs.items()}
        return (lambda s: of[back[s][0]] if s in back else None), list(of.values())

    def _kept(self, n, ground):  # the parent's classes that the avoider keeps, under its name
        parent = self.inst.registry
        of = {cid: self._class(n, c.rep, parent.orbit_size(c)) for cid, c in self.inst.kept(n).items()}
        return (lambda s: (c := parent.degrees[n][0](s)) and of.get(c.cid)), list(of.values())

    def _product(self, n, ground):
        inst = self.inst  # G listed first, as `Hadamard._elements` does: tensor's F refuses its size
        ys, xs = (sorted(h.elements(ground), key=_sort_key) for h in (inst.g, inst.f))
        group = _relabelings(ground)
        (back, stabs, x_out), (_, _, y_out) = (_orbits(h.relabel, zs, group) for h, zs in ((inst.f, xs), (inst.g, ys)))
        if x_out is not None or y_out is not None or len(set(xs)) + len(set(ys)) < len(xs) + len(ys):
            return self._walk(n, ground)  # it names the least pair that leaves, or refuses a pair listed twice
        relabel, table, classes = inst.g.relabel, {}, []
        for x0, stab in stabs.items():  # the classes through x₀: its stabilizer's orbits on G[n]
            to_least, fixed, _ = _orbits(relabel, ys, stab)
            of = {y0: self._class(n, inst.pair(x0, y0), factorial(n) // len(fix)) for y0, fix in fixed.items()}
            table[x0] = {y: of[y0] for y, (y0, _) in to_least.items()}
            classes += of.values()

        def lookup(s):  # y moved by the inverse of a relabeling that takes x₀ to x
            hit = back.get(s[0])
            return hit and table[hit[0]].get(relabel(s[1], hit[1][1]))

        return lookup, classes


def _relabelings(ground):  # each bijection of ground onto itself, with its inverse
    return [(dict(zip(ground, image)), dict(zip(image, ground))) for image in itertools.permutations(ground)]


def _orbits(relabel, xs, group):
    """The orbits of sorted xs under a group of (relabeling, inverse) pairs: member -> (least member
    x₀, a pair taking x₀ to it), x₀ -> its stabilizer, and the first x whose orbit leaves xs."""
    back, stabs = dict.fromkeys(xs), {}
    for x in xs:  # the first member met of an orbit is its least
        if back[x] is None:
            stab = stabs[x] = []
            for g in group:
                y = relabel(x, g[0])
                if y not in back:
                    return back, stabs, x
                if back[y] is None:
                    back[y] = (x, g)
                if y == x:
                    stab.append(g)
    return back, stabs, None


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
    """Restriction must be a functor, and both projections must shrink under
    restriction and be exact on cut sides: the species is one over preorders.

    Each element s on I is restricted once to each subset, into the table
    `on` that every stage reads, in this order per element: each
    restriction must be an element of its ground (else InvalidStructure, by
    `_restrictions`); Functoriality, s|I = s and (s|S)|T = s|T for T ⊆ S ⊆ I,
    decided by `_functorial`; ProjectionMonotonicity, π(s|S) ⊆ π(s)|S;
    CutEquality, π(s|S) = π(s)|S on both sides S of each cut of π(s), both
    for each distinct projection (π₂ is skipped where it is π₁).  Each
    projection is restricted to every subset once per degree: projections
    repeat across the elements of a degree.

    `stats` holds per degree the elements, the subsets checked for
    monotonicity (2ⁿ per element on a passing run) and the cut sides
    compared, two per cut of each distinct projection; on a failure the
    last entry counts up to the failing one.
    """
    stats = []
    whiches = (1,) if inst.pi2 == inst.pi1 else (1, 2)  # the distinct projections
    for n in range(nmax + 1):
        ground = tuple(range(1, n + 1))
        full = frozenset(ground)
        subsets = tuple(_subsets(ground))
        index = {}  # subset -> {element: element}, as in `_Sides`
        projected = {}  # projection -> {subset: its restriction}
        functorial = {}  # element on a proper subset -> (its restrictions, verdict)
        els = inst.elements(ground)
        stat = {"degree": n, "elements": len(els), "restrictions": 0, "cut_sides": 0}
        stats.append(stat)

        def restricted(p):
            table = projected.get(p)
            if table is None:
                table = projected[p] = {sub: preorder_restrict(p, sub) for sub in subsets}
            return table

        for s in els:
            on = dict(zip(subsets, _restrictions(inst, index, s, subsets)))  # restrictions of s, by subset
            if not _functorial(inst, s, full, on, functorial):
                witness = _functoriality_witness(inst, s, full, on)
                return VerificationReport(False, STAGE_FUNCTORIALITY, witness, tuple(stats))
            projections = {which: inst.pi(which, s) for which in whiches}
            outer = {which: restricted(p) for which, p in projections.items()}
            for sub, r in on.items():
                stat["restrictions"] += 1
                for which in whiches:
                    if not inst.pi(which, r) <= outer[which][sub]:
                        witness = {"element": inst.serialize(s), "subset": sorted(sub), "which": which}
                        return VerificationReport(False, STAGE_MONOTONICITY, witness, tuple(stats))
            for which in whiches:
                p = projections[which]
                for cut in preorder_cuts(p):
                    for side in (cut.down, cut.up):
                        stat["cut_sides"] += 1
                        if inst.pi(which, on[side]) != outer[which][side]:
                            witness = {"element": inst.serialize(s), "cut_down": sorted(cut.down)}
                            witness.update(side=sorted(side), which=which)
                            return VerificationReport(False, STAGE_CUT_EQUALITY, witness, tuple(stats))
    return VerificationReport(True, stats=tuple(stats))


def _functorial(inst, s, ground, on, memo):
    """Whether s on `ground` = I, with on = {S: s|S}, obeys the rule: s|I = s,
    and for each x ∈ I, r = s|I−x obeys the rule and r|T = s|T for all
    T ⊆ I−x.  Each r's table and verdict are kept in `memo`, one per degree.

    The rule is the law s|I = s and (s|S)|T = s|T for all T ⊆ S ⊆ I, by
    induction on |I|.  Law ⇒ rule: r|T = (s|I−x)|T = s|T, and r obeys the
    law, as r|I−x = s|I−x = r and (r|S)|T = (s|S)|T = s|T = r|T.
    Rule ⇒ law: (s|I)|T = s|T as s|I = s; for S ⊊ I pick x ∈ I − S and
    r = s|I−x, so s|S = r|S and (s|S)|T = (r|S)|T = r|T = s|T, r obeying
    the law by induction.  So s fails here exactly when some (S, T) fails.
    """
    if on[ground] != s:
        return False
    for x in ground:
        rest = ground - {x}
        r = on[rest]
        if r not in memo:
            table = {sub: inst.restrict(r, sub) for sub in _subsets(rest)}
            memo[r] = table, _functorial(inst, r, rest, table, memo)
        table, passed = memo[r]
        if not passed or any(t != on[sub] for sub, t in table.items()):
            return False
    return True


def _functoriality_witness(inst, s, ground, on):
    """The first law that s breaks, scanned only for a failing element: s|I = s
    (`subset` I), then (s|S)|T = s|T (`subset` S, `part` T) in `_subsets`
    order of S and then of T."""
    witness = {"element": inst.serialize(s), "subset": sorted(ground)}
    if on[ground] != s:
        return witness
    # a pair exists: `_functorial` fails exactly when one does
    sub, part = next((sub, part) for sub in on for part in _subsets(sub) if inst.restrict(on[sub], part) != on[part])
    return dict(witness, subset=sorted(sub), part=sorted(part))


def _restrictions(inst, index, x, subs):
    """(x|sub for sub in subs), each the element its ground enumerates by
    `index` (ground -> {element: element}), else InvalidStructure."""
    out = []
    for sub in subs:
        if sub not in index:
            index[sub] = {e: e for e in inst.elements(sub)}
        r = inst.restrict(x, sub)
        if (e := index[sub].get(r)) is None:
            raise InvalidStructure(f"{inst.name}: restriction {inst.serialize(r)} is not an element of {sorted(sub)}")
        out.append(e)
    return tuple(out)


class _Sides:
    """The split sides of one degree, each built once on first use:
    (which, ground, down) -> {x: (x|down, x|ground − down)} over the elements
    x on `ground` that `down` cuts for π_which (the domain of delta_which),
    in element order.

    Each restriction is resolved by `_restrictions`, as in the precondition:
    so equal restrictions are one object, and an element missing from a
    side is one that `down` does not cut.  A verifier makes one table per
    degree and drops it with the degree; nothing lands on the instance.
    """

    def __init__(self, inst):
        self.inst = inst
        self.table = {}
        self.index = {}  # ground -> {element: element}

    def __call__(self, which, ground, down):
        key = (which, ground, down)
        side = self.table.get(key)
        if side is None:
            inst, sides = self.inst, (down, ground - down)
            side = self.table[key] = {}
            for x in inst.elements(ground):
                if is_cut(inst.pi(which, x), down):
                    side[x] = _restrictions(inst, self.index, x, sides)
        return side


def _diagrams(split, ground, i, j, stats):
    """The four-block diagrams of one degree that break the square law, in
    block-assignment order, as (blocks, bad, mu_then_delta, delta_then_mu):
    the one place where the law is decided and its witness chosen.

    The compatibility square of (Δ_i, μ_j) and the intertwining square of
    (Δ¹, Δ²) are one law: a diagram passes exactly when its doubly-cut
    elements hit every corner-compatible quadruple once and nothing else.
    The doubly-cut elements are the s in both full-ground sides, split by
    A∪B for π_i and by A∪C for π_j; one Counter counts them by their corners
    (u, v, p, q) = (s|A∪C, s|B∪D, s|A∪B, s|C∪D), and each quadruple of
    `_quadruples` is wanted once.  `bad` is the least key, by the
    serializations of its corners in that order, on which the two counts
    differ, yielded with both counts.  Every side is held in serialization
    order, so `bad` is also the first failing quadruple of a u × v × p × q
    scan.

    Once `check_species_over_preorders` passes, every incidence key is a
    corner-compatible quadruple, so `bad` is one whose count is not 1:
    - A = (A∪B) ∩ (A∪C) is a down-set of π_i(s)|A∪C.  Monotonicity,
      π_i(s|A∪C) ⊆ π_i(s)|A∪C, makes it a down-set of π_i(s|A∪C), so u is
      in its corner side.  The same holds for B in v under π_i, and for A
      in p and C in q under π_j.
    - Functoriality gives (s|A∪C)|A = s|A = (s|A∪B)|A, and likewise for B,
      C and D, so the four corners agree on the blocks.

    Appends the degree's entry to `stats`: `incidences` and `completions`
    add each diagram's incidences and quadruples through the failing one
    (a pair of cuts of π_i(s) and π_j(s) is an incidence of one diagram),
    and `sides` is kept current.
    """
    inst = split.inst
    full = frozenset(ground)
    els = inst.elements(ground)
    stat = {"degree": len(ground), "elements": len(els), "incidences": 0, "completions": 0, "sides": 0}
    stats.append(stat)
    for blocks in _block_assignments(ground, 4):
        A, B, C, D = blocks
        # u on A∪C and v on B∪D split by the i-th cut, p on A∪B and q on C∪D by the j-th
        sides = (split(i, A | C, A), split(i, B | D, B), split(j, A | B, A), split(j, C | D, C))
        on_AB, on_AC = split(i, full, A | B), split(j, full, A | C)
        stat["sides"] = len(split.table)
        small, big = sorted((on_AB, on_AC), key=len)
        counts = Counter(on_AC[s] + on_AB[s] for s in small if s in big)
        stat["incidences"] += counts.total()
        quadruples = dict.fromkeys(_quadruples(sides), 1)
        stat["completions"] += len(quadruples)
        if counts != quadruples:
            differ = (k for k in counts.keys() | quadruples.keys() if counts[k] != quadruples.get(k, 0))
            bad = min(differ, key=lambda k: tuple(map(inst.serialize, k)))
            yield blocks, bad, counts[bad], quadruples.get(bad, 0)


def _quadruples(sides):
    """The corner-compatible quadruples (u, v, p, q): u|A = p|A, v|B = p|B,
    u|C = q|C and v|D = q|D."""
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


def glues_uniquely(inst: SpeciesInstance, nmax):
    """Per degree n ≤ nmax, the elements on 1..n and the pairs glued over all
    D ⊆ I ⊆ 1..n; None unless the pairs (x|D, x|I−D) of the x whose π₁ D cuts,
    read from one `_Sides` table, are distinct and number |S[D]|·|S[I−D]| > 0."""
    split, stats = _Sides(inst), []
    for n in range(nmax + 1):
        ground, glued = tuple(range(1, n + 1)), 0
        for sub, down in ((sub, down) for sub in _subsets(ground) for down in _subsets(sub)):
            side = split(1, sub, down)
            if not 0 < len(set(side.values())) == len(side) == len(inst.elements(down)) * len(inst.elements(sub - down)):
                return None
            glued += len(side)
        stats.append({"degree": n, "elements": len(inst.elements(ground)), "glued": glued})
    return stats


def _own(inst, names, cls=None):
    """Whether inst is a `cls`, by default a Hadamard product, whose methods `names` are cls's own."""
    from .instances.hadamard import Hadamard  # it imports this module

    cls = cls or Hadamard
    return isinstance(inst, cls) and all(getattr(getattr(inst, m), "__func__", 0) is getattr(cls, m) for m in names)


def _glued_factors(inst, nmax):
    """The `stats` of a product that the gluing rule of `Hadamard` certifies
    on both factors up to min(nmax, cap), else None."""
    from .instances.hadamard import Single  # it imports this module

    if not _own(inst, ("_elements", "restrict", "relabel", "pi1", "pi2")):
        return None
    top, glued = min(nmax, inst.cap), {}
    for f in dict.fromkeys((inst.f, inst.g)):  # a factor met twice is checked once
        try:
            glued[f] = check_species_over_preorders(single := Single(f), top) and glues_uniquely(single, top)
        except PrecutError:  # such as a restriction off the enumeration: the walk reports it
            return None
        if not glued[f]:
            return None
    if nmax > inst.cap:
        inst.elements(range(1, inst.cap + 2))  # CapExceeded, as the walk raises it
    return tuple({"factor": k, **d} for k, f in ((1, inst.f), (2, inst.g)) for d in glued[f])


def _square_law(inst, i, nmax, stage, fields):
    """The square law of (Δ_i, Δ_j), j the other index, on every degree up to
    nmax: a product that `_glued_factors` certifies passes; otherwise, after
    the precondition, the first failing diagram of `_diagrams` fails
    `stage`, its witness the blocks, the corners of its bad key and
    `fields(blocks, bad, mu_then_delta, delta_then_mu)`."""
    if (certified := _glued_factors(inst, nmax)) is not None:
        return VerificationReport(True, stats=certified)
    pre = check_species_over_preorders(inst, nmax)
    if not pre.passed:
        return VerificationReport(False, pre.stage, pre.witness)  # stats: four-block counts only
    j = 2 if i == 1 else 1
    stats = []
    for n in range(nmax + 1):
        for blocks, bad, *counts in _diagrams(_Sides(inst), tuple(range(1, n + 1)), i, j, stats):
            corners = dict(zip(("on_AC", "on_BD", "on_AB", "on_CD"), map(inst.serialize, bad)))
            witness = {"blocks": [sorted(block) for block in blocks], "corners": corners}
            return VerificationReport(False, stage, dict(witness, **fields(blocks, bad, *counts)), tuple(stats))
    return VerificationReport(True, stats=tuple(stats))


def check_intertwined(inst: SpeciesInstance, nmax) -> VerificationReport:
    """Every mixed four-block diagram of the two cut coproducts must be a
    partial pullback: every corner-compatible quadruple has exactly one
    completion carrying both big cuts, and no other corners occur.

    That is the square law that `_diagrams` decides, for this check and the
    bimonoid square alike, through one shared body (`_square_law`) and one
    `_Sides` table per degree, unless `_glued_factors` certifies a Hadamard
    product on its factors.  Once the precondition passes, the law can
    fail only at ExtensionUniqueness: `corners` is the least corner
    quadruple, by serialization, of the first failing diagram in
    block-assignment order, `completions` its count of doubly-cut elements
    (not 1), and `near_misses` the elements matching its four restrictions,
    with their big-cut status.

    `stats` holds per degree the elements, the doubly-cut elements of the
    diagrams walked (incidences), their corner-compatible quadruples
    (completions) and the split sides built.  On a passing run incidences
    and completions agree and the sides number 2·3ⁿ; on a failure the last
    entry is the failing degree, with all three counted through the failing
    diagram.  A certified pass holds instead, per factor and degree, the
    `factor`, `degree`, `elements` and `glued` pairs of `glues_uniquely`.
    """
    def fields(blocks, bad, found, wanted):
        return {"completions": found, "near_misses": _near_misses(inst, blocks, bad)}

    return _square_law(inst, 1, nmax, STAGE_EXTENSION, fields)


def _near_misses(inst, blocks, quadruple):
    """Elements matching all four restrictions, with their big-cut status."""
    A, B, C, D = blocks
    corners = tuple(zip((A | C, B | D, A | B, C | D), quadruple))  # u, v, p and q on their grounds
    return [
        {"element": inst.serialize(s), "cut_for_pi1": is_cut(inst.pi(1, s), A | B), "cut_for_pi2": is_cut(inst.pi(2, s), A | C)}
        for s in inst.elements(A | B | C | D)
        if all(inst.restrict(s, sub) == corner for sub, corner in corners)
    ]


def check_bimonoid(inst: SpeciesInstance, coproduct_index, nmax) -> VerificationReport:
    """Bimonoid laws for (delta_i, mu_j) on all ground sets of size <= nmax,
    for a restriction species over preorders, as in the paper.

    S[∅] must have one element (Unit), the species must pass
    `check_species_over_preorders` (its report is returned on a failure),
    and every four-block diagram of each degree must pass the square law of
    `_diagrams`.  The other laws follow from the precondition:
    - Coassociativity of Δ_i, Δ_j on blocks (A, B, C).  The left side is
      defined when A∪B cuts π(s) and A cuts π(s|A∪B), the right one when A
      cuts π(s) and B cuts π(s|B∪C).  By exactness on cut sides both mean
      that A and A∪B are down-sets of π(s), and the triples
      ((s|A∪B)|A, (s|A∪B)|B, s|C) and (s|A, (s|B∪C)|B, (s|B∪C)|C) agree by
      functoriality.  Associativity of μ_j is its transpose.
    - Counit and unit.  ∅ and I cut every preorder, and s|I = s with
      S[∅] = {1}, so Δ(s) there is (s, 1) or (1, s), and
      μ_j(1, s) = μ_j(s, 1) = {s}.
    - Compatibility is the intertwining square: the (Δ₂, μ₁) square on
      (A, B, C, D) is the (Δ₁, μ₂) square on (A, C, B, D).  So both indices
      and `check_intertwined` give one verdict, the paper's equivalence of a
      bimonoid in set_N with a pair of intertwined coproducts.
    Once the precondition passes, the square can fail only at Compatibility,
    with `_diagrams`' witness: the first failing diagram in block-assignment
    order and its least differing corner quadruple by serialization, with
    the mu-then-delta count (its doubly-cut elements) and the delta-then-mu
    count (1, as it is corner-compatible).  For index 1 that is the diagram
    and quadruple that `check_intertwined` names.

    `stats` holds `check_intertwined`'s four-block counts, or its factor
    counts on a certified product, and is empty when the Unit check or the
    precondition fails.
    """
    require_projection(inst, coproduct_index)
    if len(inst.elements(())) != 1:
        return VerificationReport(False, STAGE_UNIT, {"size_on_empty": len(inst.elements(()))})
    def fields(blocks, bad, found, wanted):
        return {"mu_then_delta": found, "delta_then_mu": wanted}

    return _square_law(inst, coproduct_index, nmax, STAGE_COMPAT, fields)
