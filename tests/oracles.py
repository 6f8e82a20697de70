"""Independent brute-force enumerators used as acceptance oracles.

Everything here is deliberately naive.  The counting oracles share no code
with the package paths they check; the two orbit oracles
(`orbit_size`, `coproduct_via_orbit_standard_splits`) reuse the package's
class registry and `is_cut` only to name classes and test cuts, and derive
the class coproduct by orbit averaging instead of from representatives.
The two Fock oracles search every relabeling of every element
(`brute_canonical_form`) and multiply each class pair through the species
product `mu` (`product_via_mu`); neither shares code with the orbit walk
or the product read off representatives that they check.
`labeled_product` is the class product as `fock_tables` counted it before
it read products off representatives: a pass over every labeled element of
degree <= N that matches each standard split against representatives
placed side by side.  `brute_check_natural` checks, for every relabeling
and every subset, that relabeling stays among the elements and commutes
with both projections and with restriction: the naturality that the class
registry and the product formula assume.  `labeled_is_irreducible` is the
irreducibility check as it was before it walked one representative per
orbit class: every labeled element of every degree, in order, and
`labeled_avoiders` is the avoiding filter as it was before it decided one
representative per class: `has_part` on every labeled parent element.
`cached_canonical_form` and `CachedClassRegistry` are the class registry
as it was while each instance
cached a canonical form and a witness for every labeled element, with
orbit sizes counted by `orbit_size`; the registry's classes, orbit sizes
and tables are pinned against them.  The two verifier oracles at the end
(`brute_check_intertwined`, `brute_check_bimonoid`) scan every block
assignment against every element and build the corner side as a full
product, as the verifiers did before they started from each element's cuts.
`brute_check_species` is the precondition as it was before it memoised the
restricted projections: every restriction and projection is recomputed
where it is used.  `brute_verify_hopf_axioms` is the Hopf-axiom check as it
was before its loops were bounded by degree: full triple and double loops
over all classes that skip cells above the degree bound.  `graded_dual`
transposes a table, and `check_isomorphism_by_constants` searches for a
degree-respecting class bijection that carries every constant, pruned by
the `_class_fingerprint` invariant: the tests compare tables with them, and
the package has no other use for either.  The last two oracles serve the
F -> M change of basis: `weak_order_zeta` is the Aguiar-Sottile closed
form, read from the permutation words only, and `dense_solve_affine` is
the dense column-by-column Gaussian elimination that the sparse reduced
echelon form replaced.  The oracles after them
build preorders and parking chains as the package did before it had one way
to build each: `brute_enumerate_preorders` tests every relation for
transitivity, `_ordered_set_partitions` lists the blocks of every total
preorder, least block first, by inserting one point at a time,
`closure_relabel` relabels through the Warshall closure, and
the `brute_*` parking functions validate and parkize their input anew at
every step, and `brute_restrict_filtration` is the oracle of the species'
parking restriction.  Then come two test-only factors of Hadamard
products (posets by components, built on the package's `POSETS`, and
discrete sets) and `glues_uniquely`, which tests the gluing bijection of
one factor from its own functions, without building a product.  Last,
`graph_components` finds the components of a graph by breadth-first
search, with no preorder.  The fixtures at the top are not
oracles: words to permutation pairs, packed words of preorder pairs, and
the tables the tests verify.
"""

import itertools
from math import factorial

from precut import species
from precut.avoidance import has_part
from precut.errors import NotExhaustive, NotNested
from precut.fock import StructureConstantTable, _add, _clean, _scale, _verify_transition
from precut.instances.hadamard import Factor
from precut.instances.pairs import POSETS
from precut.instances.perm import PermPair, word_of
from precut.preorder import Preorder, _is_transitive, closure, total_blocks, total_preorder_from_blocks
from precut.preorder import component_partition, discrete
from precut.preorder import cuts as preorder_cuts
from precut.preorder import is_cut
from precut.preorder import relabel as preorder_relabel
from precut.preorder import restrict as preorder_restrict
from precut.species import ClassRegistry, OrbitClass, VerificationReport, _class_id, delta, mu, mu_bucket

# -- fixtures ----------------------------------------------------------------

# (instance name, which_delta, which_mu, N) for every table the tests verify;
# instances that fail the intertwining precondition have no table
SHIPPED_TABLES = (
    ("perm_f", 1, 2, 4),
    ("perm_m", 1, 2, 4),
    ("colored", 1, 2, 3),
    ("tensor", 1, 2, 3),
    ("graphs", 1, 2, 3),
    ("posets", 1, 2, 3),
    ("preorders", 1, 2, 3),
    ("parking", 1, 2, 3),
    ("packed_words", 1, 2, 3),
    ("perm_m/213", 1, 2, 3),
    ("perm_m/132+213", 1, 2, 3),
    ("perm_m/12", 1, 2, 3),
    ("perm_m/3142+2413", 1, 2, 3),
    ("posets/cherry", 1, 2, 3),
    ("posets/cherry+V", 1, 2, 3),
    ("parking/nondecreasing-parking", 1, 2, 3),
)


def pair_from_word(word, ground=None):
    """Pair on ground (default 1..n) whose pattern is the given word."""
    n = len(word)
    ground = tuple(sorted(ground)) if ground is not None else tuple(range(1, n + 1))
    assert sorted(word) == list(range(1, n + 1))
    positions = sorted(range(n), key=lambda i: word[i])
    return PermPair(ground, tuple(ground[i] for i in positions))


def packed_word_of(s):
    """Word of second-component block ranks read along the first order."""
    seq = [x for block in total_blocks(s.p) for x in block]
    rank = {x: i for i, block in enumerate(total_blocks(s.q), start=1) for x in block}
    return tuple(rank[x] for x in seq)


def contains_pattern(word, pattern):
    k = len(pattern)
    for pos in itertools.combinations(range(len(word)), k):
        sub = [word[i] for i in pos]
        ranks = sorted(sub)
        std = tuple(ranks.index(v) + 1 for v in sub)
        if std == tuple(pattern):
            return True
    return False


def count_avoiders(n, patterns):
    return sum(
        1
        for w in itertools.permutations(range(1, n + 1))
        if not any(contains_pattern(w, p) for p in patterns)
    )


def catalan(n):
    return factorial(2 * n) // (factorial(n) * factorial(n + 1))


def count_parking_functions(n):
    total = 0
    for values in itertools.product(range(1, n + 1), repeat=n):
        if all(v <= i + 1 for i, v in enumerate(sorted(values))):
            total += 1
    return total


def count_unlabeled_graphs(n):
    verts = range(n)
    pairs = list(itertools.combinations(verts, 2))
    seen = set()
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        edges = {p for p, b in zip(pairs, bits) if b}
        best = None
        for perm in itertools.permutations(verts):
            img = frozenset(
                (min(perm[a], perm[b]), max(perm[a], perm[b])) for a, b in edges
            )
            key = tuple(sorted(img))
            if best is None or key < best:
                best = key
        seen.add(best)
    return len(seen)


def count_packed_words(n):
    if n == 0:
        return 1
    total = 0
    for k in range(1, n + 1):
        for w in itertools.product(range(1, k + 1), repeat=n):
            if set(w) == set(range(1, k + 1)):
                total += 1
    return total


def count_preorders(n):
    """Closure-dedup over all relations; independent of the transitivity filter."""
    ground = list(range(n))
    pairs = [(i, j) for i in ground for j in ground if i != j]
    seen = set()
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        rel = {(i, i) for i in ground} | {p for p, b in zip(pairs, bits) if b}
        changed = True
        while changed:
            changed = False
            for (a, b) in list(rel):
                for (c, d) in list(rel):
                    if b == c and (a, d) not in rel:
                        rel.add((a, d))
                        changed = True
        seen.add(frozenset(rel))
    return len(seen)


def exhaustive_chains(ground, max_len):
    """All nested exhaustive chains on the ground with at most max_len levels,
    encoded as tuples of frozensets (levels 1..m)."""
    ground = tuple(sorted(ground))
    out = set()
    if not ground:
        out.add(())
    for m in range(1, max_len + 1):
        for levels in itertools.product(range(1, m + 1), repeat=len(ground)):
            chain = tuple(
                frozenset(x for x, lv in zip(ground, levels) if lv <= i)
                for i in range(1, m + 1)
            )
            if not ground or chain[-1] == frozenset(ground):
                out.add(chain)
    if not ground:
        out.add(())
    return sorted(out, key=lambda ch: (len(ch), tuple(tuple(sorted(s)) for s in ch)))


def orbit_size(inst, s):
    """Number of distinct relabelings of s on its own ground."""
    ground = sorted(inst.ground_of(s))
    seen = set()
    for image in itertools.permutations(ground):
        mapping = dict(zip(ground, image))
        seen.add(inst.relabel(s, mapping))
    return len(seen)


def coproduct_via_orbit_standard_splits(inst, which, cls):
    """Oracle for the class coproduct: orbit totals of standard splits,
    renormalized by |stab| / (k! (n-k)!); asserts exact integrality."""
    registry = ClassRegistry(inst)
    n = cls.degree
    ground = tuple(range(1, n + 1))
    stab = factorial(n) // orbit_size(inst, cls.rep)
    totals = {}
    seen = set()
    for image in itertools.permutations(ground):
        mapping = dict(zip(ground, image))
        s = inst.relabel(cls.rep, mapping)
        if s in seen:
            continue
        seen.add(s)
        for k in range(n + 1):
            down = frozenset(ground[:k])
            if not is_cut(inst.pi(which, s), down):
                continue
            pair = (
                registry.class_of(inst.restrict(s, down)).cid,
                registry.class_of(inst.restrict(s, frozenset(ground) - down)).cid,
                k,
            )
            totals[pair] = totals.get(pair, 0) + 1
    out = {}
    for (x, y, k), total in totals.items():
        scaled = total * stab
        denom = factorial(k) * factorial(n - k)
        assert scaled % denom == 0, "orbit-averaged coproduct must be integral"
        out[(x, y)] = out.get((x, y), 0) + scaled // denom
    return out


def brute_canonical_form(inst, s):
    """Least-serialization relabeling of s onto 1..n, trying all n! bijections."""
    ground = sorted(inst.ground_of(s))
    best_key = best = None
    for image in itertools.permutations(range(1, len(ground) + 1)):
        mapping = dict(zip(ground, image))
        r = inst.relabel(s, mapping)
        key = inst.serialize(r)
        if best_key is None or key < best_key:
            best_key, best = key, (r, mapping)
    return best


def cached_canonical_form(inst, s, cached):
    """`canonical_form` as it was while instances cached it: a miss walks
    the orbit of s's in-order relabeling once and caches every member with
    the representative and its own witness; `cached` stands in for the
    instance's cache."""
    hit = cached.get(s)
    if hit is not None:
        return hit
    ground = sorted(inst.ground_of(s))
    n = len(ground)
    std = dict(zip(ground, range(1, n + 1)))
    t = inst.relabel(s, std)
    if t not in cached:
        members = {}  # relabeling of t -> first image tuple giving it
        for image in itertools.permutations(range(1, n + 1)):
            members.setdefault(inst.relabel(t, dict(enumerate(image, 1))), image)
        rep = min(members, key=inst.serialize)
        to_rep = members[rep]
        for r, image in members.items():
            cached[r] = (rep, dict(zip(image, to_rep)))
    rep, witness = cached[t]
    out = (rep, {x: witness[std[x]] for x in ground})
    cached[s] = out
    return out


class CachedClassRegistry:
    """The class registry as it was over `cached_canonical_form`: every
    element named through its cached canonical form, classes made on first
    sight."""

    def __init__(self, inst):
        self.inst = inst
        self.by_key = {}
        self.cache = {}

    def class_of(self, s):
        rep, _ = cached_canonical_form(self.inst, s, self.cache)
        key = self.inst.serialize(rep)
        cls = self.by_key.get(key)
        if cls is None:
            degree = len(self.inst.ground_of(rep))
            cls = OrbitClass(self.inst.name, degree, rep, key, _class_id(self.inst.name, degree, key))
            self.by_key[key] = cls
        return cls

    def classes_of_degree(self, n):
        seen = {}
        for s in self.inst.elements(tuple(range(1, n + 1))):
            cls = self.class_of(s)
            seen[cls.cid] = cls
        return sorted(seen.values(), key=lambda c: c.key)

    def orbit_size(self, cls):
        return orbit_size(self.inst, cls.rep)


def product_via_mu(inst, which_mu, table):
    """Class product: each class pair's representatives side by side, multiplied
    in the species and named by brute-force canonical form."""
    cid_of = {c.key: c.cid for c in table.classes}
    out = {}
    for a in table.classes:
        for b in table.classes:
            if a.degree + b.degree > table.N:
                continue
            shift = {i: a.degree + i for i in range(1, b.degree + 1)}
            acc = {}
            for s in mu(inst, which_mu, a.rep, inst.relabel(b.rep, shift)):
                cid = cid_of[inst.serialize(brute_canonical_form(inst, s)[0])]
                acc[cid] = acc.get(cid, 0) + 1
            out[(a.cid, b.cid)] = acc
    return out


def labeled_product(inst, which_mu, table):
    """The class product as `fock_tables` counted it over labeled elements:
    every element of degree <= N whose standard split (1..p, p+1..n) is a cut
    of its mu-projection, with a representative on 1..p and a representative
    shifted by p on p+1..n, counted by the pair and by its own class."""
    registry = ClassRegistry(inst)
    N = table.N
    # every representative and its copies shifted onto p+1..p+k: the side of
    # a standard split on 1..p can only match a representative, the side on
    # p+1..n only a representative shifted by p
    placed = {}
    for p in range(N + 1):
        for b in table.classes:
            if p + b.degree <= N:
                placed[inst.relabel(b.rep, {i: p + i for i in range(1, b.degree + 1)})] = b
    product = {(a.cid, b.cid): {} for a in table.classes for b in table.classes if a.degree + b.degree <= N}
    for n in range(N + 1):
        ground = tuple(range(1, n + 1))
        splits = [(frozenset(ground[:p]), frozenset(ground[p:])) for p in range(n + 1)]
        for s in inst.elements(ground):
            for down, up in splits:
                a = placed.get(inst.restrict(s, down))
                if a is None:
                    continue
                b = placed.get(inst.restrict(s, up))
                if b is None or not is_cut(inst.pi(which_mu, s), down):
                    continue
                cell = product[(a.cid, b.cid)]
                cid = registry.class_of(s).cid
                cell[cid] = cell.get(cid, 0) + 1
    return product


def brute_check_natural(inst, nmax):
    """Naturality on 1..n for every n <= nmax: for every relabeling sigma of
    1..n and every element s, sigma.s is an element, pi_i(sigma.s) is
    sigma.pi_i(s) (by `preorder.relabel`) for i = 1, 2, and for every subset
    S, (sigma.s)|sigma(S) is sigma|S.(s|S).  The stage names the first law
    that fails: Relabel, Pi1, Pi2 or Restrict."""
    for n in range(nmax + 1):
        ground = tuple(range(1, n + 1))
        els = inst.elements(ground)
        members = set(els)
        subsets = list(_subsets(ground))
        for s in els:
            parts = [(sub, inst.restrict(s, sub)) for sub in subsets]
            for image in itertools.permutations(ground):
                sigma = dict(zip(ground, image))
                t = inst.relabel(s, sigma)
                witness = {"element": inst.serialize(s), "sigma": list(image)}
                if t not in members:
                    return VerificationReport(False, "Relabel", witness)
                for which in (1, 2):
                    if inst.pi(which, t) != preorder_relabel(inst.pi(which, s), sigma):
                        return VerificationReport(False, f"Pi{which}", witness)
                for sub, part in parts:
                    on_sub = {x: sigma[x] for x in sub}
                    if inst.restrict(t, frozenset(on_sub.values())) != inst.relabel(part, on_sub):
                        return VerificationReport(False, "Restrict", dict(witness, subset=sorted(sub)))
    return VerificationReport(True)


def labeled_avoiders(parent, aset, ground):
    """The parent's elements on the ground with no part in the avoidance set."""
    return [s for s in parent.elements(ground) if not has_part(parent, aset, s)]


def labeled_is_irreducible(inst, which, aset, nmax):
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


def _subsets(ground):
    ground = tuple(sorted(ground))
    for r in range(len(ground) + 1):
        yield from (frozenset(c) for c in itertools.combinations(ground, r))


def brute_check_species(inst, nmax):
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
                            species.STAGE_MONOTONICITY,
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
                                species.STAGE_CUT_EQUALITY,
                                {
                                    "element": inst.serialize(s),
                                    "cut_down": sorted(cut.down),
                                    "side": sorted(side),
                                    "which": which,
                                },
                            )
    return VerificationReport(True)


def _block_assignments(ground, nblocks):
    ground = tuple(sorted(ground))
    for assignment in itertools.product(range(nblocks), repeat=len(ground)):
        yield [frozenset(x for x, a in zip(ground, assignment) if a == k) for k in range(nblocks)]


def _corner_key(inst, u, v, A, B, C, D):
    return (
        inst.restrict(u, A),
        inst.restrict(v, B),
        inst.restrict(u, C),
        inst.restrict(v, D),
    )


def _near_misses(inst, els, quadruple, grounds):
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


def brute_check_intertwined(inst, nmax):
    """Intertwining by scanning all 4^n block assignments against every element,
    with the corner side materialised as a product of p x q and u x v."""
    pre = species.check_species_over_preorders(inst, nmax)
    if not pre.passed:
        return pre
    for n in range(nmax + 1):
        ground = tuple(range(1, n + 1))
        els = inst.elements(ground)
        for A, B, C, D in _block_assignments(ground, 4):
            AB, CD, AC, BD = A | B, C | D, A | C, B | D
            witness_base = {"blocks": [sorted(A), sorted(B), sorted(C), sorted(D)]}
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
                        False, species.STAGE_CUT_VALIDITY, dict(witness_base, element=inst.serialize(s))
                    )
                if _corner_key(inst, u, v, A, B, C, D) != (
                    inst.restrict(p, A),
                    inst.restrict(p, B),
                    inst.restrict(q, C),
                    inst.restrict(q, D),
                ):
                    return VerificationReport(
                        False, species.STAGE_COMMUTE, dict(witness_base, element=inst.serialize(s))
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
                                species.STAGE_EXTENSION,
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


def brute_check_bimonoid(inst, coproduct_index, nmax):
    """Bimonoid laws by scanning all 3^n and 4^n block assignments against every
    element; a Compatibility witness is the least differing key by serialization."""
    i = coproduct_index
    j = 2 if i == 1 else 1
    if len(inst.elements(())) != 1:
        return VerificationReport(False, species.STAGE_UNIT, {"size_on_empty": len(inst.elements(()))})
    unit = inst.unit()
    for n in range(nmax + 1):
        ground = tuple(range(1, n + 1))
        els = inst.elements(ground)
        full = frozenset(ground)
        for s in els:
            for which in (i, j):
                if delta(inst, which, s, full, frozenset()) != (s, unit):
                    return VerificationReport(
                        False, species.STAGE_COUNIT, {"element": inst.serialize(s), "which": which}
                    )
                if delta(inst, which, s, frozenset(), full) != (unit, s):
                    return VerificationReport(
                        False, species.STAGE_COUNIT, {"element": inst.serialize(s), "which": which}
                    )
            if n:
                if mu(inst, j, unit, s) != (s,) or mu(inst, j, s, unit) != (s,):
                    return VerificationReport(False, species.STAGE_UNIT, {"element": inst.serialize(s)})
        for A, B, C in _block_assignments(ground, 3):
            for s in els:
                for which, stage in ((i, species.STAGE_COASSOC), (j, species.STAGE_ASSOC)):
                    witness = {
                        "element": inst.serialize(s),
                        "blocks": [sorted(A), sorted(B), sorted(C)],
                        "which": which,
                    }
                    p = inst.pi(which, s)
                    left_defined = is_cut(p, A | B) and is_cut(
                        inst.pi(which, inst.restrict(s, A | B)), A
                    )
                    right_defined = is_cut(p, A) and is_cut(
                        inst.pi(which, inst.restrict(s, B | C)), B
                    )
                    if left_defined != right_defined:
                        return VerificationReport(False, stage, witness)
                    if left_defined:
                        ab = inst.restrict(s, A | B)
                        bc = inst.restrict(s, B | C)
                        left = (inst.restrict(ab, A), inst.restrict(ab, B), inst.restrict(s, C))
                        right = (inst.restrict(s, A), inst.restrict(bc, B), inst.restrict(bc, C))
                        if left != right:
                            return VerificationReport(False, stage, witness)
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
                bad = min(
                    (k for k in path1.keys() | path2.keys() if path1.get(k, 0) != path2.get(k, 0)),
                    key=lambda k: tuple(inst.serialize(x) for pair in k for x in pair),
                )
                (u, v), (p, q) = bad
                return VerificationReport(
                    False,
                    species.STAGE_COMPAT,
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


def brute_verify_hopf_axioms(table, N=None):
    """Exact integer checks of unit, counit, associativity, coassociativity
    and the bialgebra compatibility up to degree N."""
    N = table.N if N is None else N
    e = table.unit_class().cid
    deg = {c.cid: c.degree for c in table.classes}
    cls = [c.cid for c in table.classes if c.degree <= N]

    for a in cls:
        if table.product.get((e, a)) != {a: 1} or table.product.get((a, e)) != {a: 1}:
            return VerificationReport(False, species.STAGE_UNIT, {"class": a})
    for a in cls:
        cop = table.coproduct[a]
        left_counit = _clean({y: c for (x, y), c in cop.items() if x == e})
        right_counit = _clean({x: c for (x, y), c in cop.items() if y == e})
        if left_counit != {a: 1} or right_counit != {a: 1}:
            return VerificationReport(False, species.STAGE_COUNIT, {"class": a})

    for a in cls:
        for b in cls:
            for c in cls:
                if deg[a] + deg[b] + deg[c] > N:
                    continue
                left = {}
                for w, cw in table.product[(a, b)].items():
                    _add(left, _scale(table.product[(w, c)], cw))
                right = {}
                for w, cw in table.product[(b, c)].items():
                    _add(right, _scale(table.product[(a, w)], cw))
                if _clean(left) != _clean(right):
                    return VerificationReport(
                        False, species.STAGE_ASSOC, {"classes": [a, b, c]}
                    )

    for a in cls:
        left = {}
        for (x, y), c in table.coproduct[a].items():
            for (x1, x2), c2 in table.coproduct[x].items():
                key = (x1, x2, y)
                left[key] = left.get(key, 0) + c * c2
        right = {}
        for (x, y), c in table.coproduct[a].items():
            for (y1, y2), c2 in table.coproduct[y].items():
                key = (x, y1, y2)
                right[key] = right.get(key, 0) + c * c2
        if _clean(left) != _clean(right):
            return VerificationReport(False, species.STAGE_COASSOC, {"class": a})

    for a in cls:
        for b in cls:
            if deg[a] + deg[b] > N:
                continue
            left = {}
            for w, cw in table.product[(a, b)].items():
                for pair, c in table.coproduct[w].items():
                    left[pair] = left.get(pair, 0) + cw * c
            right = {}
            for (a1, a2), ca in table.coproduct[a].items():
                for (b1, b2), cb in table.coproduct[b].items():
                    for x, cx in table.product[(a1, b1)].items():
                        for y, cy in table.product[(a2, b2)].items():
                            key = (x, y)
                            right[key] = right.get(key, 0) + ca * cb * cx * cy
            if _clean(left) != _clean(right):
                def rows(vec):
                    return [
                        {"left": x, "right": y, "coeff": c}
                        for (x, y), c in sorted(_clean(vec).items())
                    ]

                return VerificationReport(
                    False,
                    species.STAGE_COMPAT,
                    {
                        "classes": [a, b],
                        "delta_of_product": rows(left),
                        "product_of_deltas": rows(right),
                    },
                )
    return VerificationReport(True)


def graded_dual(table: StructureConstantTable) -> StructureConstantTable:
    """Transpose the pairing: dual products are coproduct constants and
    vice versa."""
    product = {}
    coproduct = {cid: {} for cid in (c.cid for c in table.classes)}
    deg = {c.cid: c.degree for c in table.classes}
    for w, cop in table.coproduct.items():
        for (x, y), c in cop.items():
            product.setdefault((x, y), {})[w] = c
    for (x, y), out in table.product.items():
        for w, c in out.items():
            coproduct[w][(x, y)] = c
    # dual product cells absent from any coproduct are zero maps
    for a in table.classes:
        for b in table.classes:
            if a.degree + b.degree <= table.N:
                product.setdefault((a.cid, b.cid), {})
    return StructureConstantTable(
        table.instance + "^dual",
        table.which_mu,
        table.which_delta,
        table.N,
        table.classes,
        product,
        {cid: _clean(v) for cid, v in coproduct.items()},
    )


def _class_fingerprint(table, cls):
    """Cheap isomorphism invariant: degree patterns of the class's coproduct
    and of its products with itself."""
    deg = {c.cid: c.degree for c in table.classes}
    cop = sorted(
        (deg[x], deg[y], c) for (x, y), c in table.coproduct[cls.cid].items()
    )
    square = table.product.get((cls.cid, cls.cid), {})
    prod = sorted(square.values())
    return (cls.degree, tuple(cop), tuple(prod))


def check_isomorphism_by_constants(ta, tb, N=None):
    """Degree-respecting class bijection matching all constants, or None.

    Backtracks one class at a time; a candidate image must share the degree
    fingerprint and reproduce the class's full coproduct, which is already
    determined at assignment time (all its terms lie in lower degrees or
    involve the class itself).  Each completed degree must then carry every
    product and coproduct constant within it (`_verify_transition`).
    """
    N = min(ta.N, tb.N) if N is None else N
    if ta.dims(N) != tb.dims(N):
        return None
    per_a = {n: sorted((c for c in ta.classes if c.degree == n), key=lambda c: c.key) for n in range(N + 1)}
    per_b = {n: sorted((c for c in tb.classes if c.degree == n), key=lambda c: c.key) for n in range(N + 1)}
    fp_a = {c.cid: _class_fingerprint(ta, c) for c in ta.classes}
    fp_b = {c.cid: _class_fingerprint(tb, c) for c in tb.classes}

    def coproduct_matches(a_cid, b_cid, trial):
        image = dict(trial)
        image[a_cid] = b_cid
        want = {}
        for (x, y), c in ta.coproduct[a_cid].items():
            want[(image[x], image[y])] = want.get((image[x], image[y]), 0) + c
        return _clean(want) == _clean(tb.coproduct[b_cid])

    def assign_degree(degree, mapping):
        a_list = per_a[degree]
        b_list = per_b[degree]

        def rec(i, trial, used):
            if i == len(a_list):
                if _verify_transition(ta, tb, {a: {b: 1} for a, b in trial.items()}, degree):
                    return extend(trial, degree + 1)
                return None
            a = a_list[i]
            for b in b_list:
                if b.cid in used or fp_b[b.cid] != fp_a[a.cid]:
                    continue
                if not coproduct_matches(a.cid, b.cid, trial):
                    continue
                trial[a.cid] = b.cid
                used.add(b.cid)
                out = rec(i + 1, trial, used)
                if out is not None:
                    return out
                del trial[a.cid]
                used.discard(b.cid)
            return None

        return rec(0, dict(mapping), set())

    def extend(mapping, degree):
        if degree > N:
            return mapping
        return assign_degree(degree, mapping)

    return extend({}, 0)


def weak_order_zeta(table_f, table_m, n, order_key):
    """Zeta matrix of the weak order on S_n, F_u = sum over u <= w of M_w
    (Aguiar-Sottile): entry 1 iff inv(u) is a subset of inv(w), with the
    inversions (i, j) taken by position, i < j and w[i] > w[j].  Rows and
    columns are the degree-n classes of each table sorted by order_key."""

    def inversion_sets(table):
        classes = sorted((c for c in table.classes if c.degree == n), key=order_key)
        words = [word_of(c.rep) if n else () for c in classes]
        return [
            {(i, j) for i, j in itertools.combinations(range(n), 2) if w[i] > w[j]}
            for w in words
        ]

    targets = inversion_sets(table_m)
    return tuple(tuple(int(u <= w) for w in targets) for u in inversion_sets(table_f))


def dense_solve_affine(rows, nvars):
    """Exact Gaussian elimination on [coeffs | rhs]; returns (pivots, reduced)
    or None when inconsistent."""
    from fractions import Fraction

    mat = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    r = 0
    for col in range(nvars):
        pivot = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        mat[r] = [v / mat[r][col] for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                factor = mat[i][col]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
    for row in mat[r:]:
        if row[-1]:
            return None
    return pivots, mat[: len(pivots)]


# -- preorders and parking chains as they were built before the extension
# enumerator, the bitmask relabel and the once-validated parking helpers --


def brute_enumerate_preorders(n):
    """All preorders on ground (1, ..., n): every relation tested for transitivity."""
    ground = tuple(range(1, n + 1))
    if n == 0:
        yield Preorder(ground, ())
        return
    offdiag = [(i, j) for i in range(n) for j in range(n) if i != j]
    for bits in range(1 << len(offdiag)):
        rows = [1 << i for i in range(n)]
        for b, (i, j) in enumerate(offdiag):
            if bits >> b & 1:
                rows[i] |= 1 << j
        if _is_transitive(n, rows):
            yield Preorder(ground, tuple(rows))


def _ordered_set_partitions(items):
    items = tuple(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for blocks in _ordered_set_partitions(rest):
        for i in range(len(blocks)):
            yield blocks[:i] + [(first,) + blocks[i]] + blocks[i + 1 :]
        for i in range(len(blocks) + 1):
            yield blocks[:i] + [(first,)] + blocks[i:]


def closure_relabel(s, mapping):
    """Relabel by closing the image of every related pair."""
    return closure(
        [mapping[x] for x in s.ground],
        [(mapping[x], mapping[y]) for x, y in s.pairs()],
    )


def _brute_normalize_raw(raw, ground):
    ground = frozenset(ground)
    sets = [frozenset(part) for part in raw]
    prev = frozenset()
    for part in sets:
        if not prev <= part:
            raise NotNested(f"chain step {sorted(part)} does not contain {sorted(prev)}")
        if not part <= ground:
            raise NotNested(f"chain step {sorted(part)} escapes ground {sorted(ground)}")
        prev = part
    if sets and sets[-1] != ground or (not sets and ground):
        raise NotExhaustive("chain never reaches the ground set")
    return sets, ground


def brute_dilation_sequence(raw, ground):
    sets, ground = _brute_normalize_raw(raw, ground)
    n = len(ground)
    sizes = [0] + [len(part) for part in sets]

    def size_at(p):
        return sizes[p] if p < len(sizes) else n

    out = [0]
    for t in range(1, n + 1):
        p = out[-1] + 1
        while size_at(p) < t:
            p += 1
        out.append(p)
    return tuple(out)


def brute_parkize(raw, ground):
    sets, ground = _brute_normalize_raw(raw, ground)
    p = brute_dilation_sequence(raw, ground)

    def level(i):
        return sets[i - 1] if i <= len(sets) else frozenset(ground)

    return tuple(tuple(sorted(level(p[t]))) for t in range(1, len(ground) + 1))


def brute_break_points(raw, ground):
    sets, ground = _brute_normalize_raw(raw, ground)
    chain = brute_parkize(raw, ground)
    out = [0]
    for b in range(1, len(ground) + 1):
        if len(chain[b - 1]) == b:
            out.append(b)
    return tuple(out)


def brute_filtration_preorder(raw, ground):
    chain = brute_parkize(raw, ground)
    bps = brute_break_points(raw, ground)
    blocks = []
    prev = frozenset()
    for b in bps[1:]:
        cur = frozenset(chain[b - 1])
        blocks.append(tuple(sorted(cur - prev)))
        prev = cur
    return total_preorder_from_blocks(blocks)


def brute_restrict_filtration(chain, sub):
    sub = frozenset(sub)
    return brute_parkize([frozenset(part) & sub for part in chain], sub)


# -- factors of pair products ------------------------------------------------

# test-only factors for the census of Hadamard products: posets projected to
# their components, and one element per ground
POSETS_BY_COMPONENTS = POSETS._replace(project=component_partition)
DISCRETE_SETS = Factor(
    lambda ground: [ground],
    lambda x, sub: tuple(a for a in x if a in sub),
    lambda x, mapping: tuple(sorted(mapping[a] for a in x)),
    discrete,
    frozenset,
)


def glues_uniquely(factor, nmax):
    """Whether, on every ground 1..n with n <= nmax and for every D with
    complement U, x ↦ (x|D, x|U) is a bijection from the elements whose
    projection D cuts onto F[D] × F[U].  Reads the factor's own functions
    one at a time; no product species is built."""
    for n in range(nmax + 1):
        ground = tuple(range(1, n + 1))
        for D in _subsets(ground):
            U = frozenset(ground) - D
            images = [
                (factor.restrict(x, D), factor.restrict(x, U))
                for x in factor.elements(ground)
                if is_cut(factor.project(x), D)
            ]
            pieces = itertools.product(factor.elements(tuple(sorted(D))), factor.elements(tuple(sorted(U))))
            if len(set(images)) != len(images) or set(images) != set(pieces):
                return False
    return True


# -- graphs ------------------------------------------------------------------


def graph_components(vertices, edges):
    """The connected components of a graph, each a frozenset, by a
    breadth-first search from every vertex not yet reached."""
    neighbours = {x: set() for x in vertices}
    for x, y in edges:
        neighbours[x].add(y)
        neighbours[y].add(x)
    reached, components = set(), set()
    for start in vertices:
        if start in reached:
            continue
        component, frontier = {start}, [start]
        while frontier:
            frontier = [y for x in frontier for y in neighbours[x] if y not in component]
            component.update(frontier)
        reached |= component
        components.add(frozenset(component))
    return components
