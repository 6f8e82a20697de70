import copy
import itertools

import pytest

from precut import avoidance
from precut.avoidance import (
    AvoidanceSet,
    AvoidingInstance,
    has_part,
    is_irreducible,
)
from precut.fock import fock_tables, graded_dimensions, verify_hopf_axioms
from precut.instances import (
    AVOIDANCE_PRESETS,
    CHERRY,
    CHERRY_V,
    PARKING_SECOND,
    _not_total,
    build_instance,
    build_preset,
    pattern_set,
)
from precut.instances.parking import PARKING
from precut.species import ClassRegistry, check_intertwined, mu

from oracles import (
    contains_pattern,
    count_avoiders,
    labeled_avoiders,
    labeled_is_irreducible,
    pair_from_word,
    walked,
)


def test_has_part_examples():
    inst = build_instance("perm_f")
    identity3 = pair_from_word((1, 2, 3))
    assert not has_part(inst, pattern_set((2, 1)), identity3)
    s = pair_from_word((3, 1, 2, 4))
    assert has_part(inst, pattern_set((2, 1, 3)), s)
    empty = AvoidanceSet("empty", lambda s: False)
    assert not has_part(inst, empty, s)


def test_has_part_matches_naive_scan():
    # each preset's scan of the listed sizes only against the scan of every subset
    for preset, (parent_name, aset, _) in AVOIDANCE_PRESETS.items():
        parent = build_instance(parent_name)
        naive = AvoidanceSet(aset.name, aset.membership)
        for n in range(4 if parent_name == "parking" else 5):
            for s in parent.elements(tuple(range(1, n + 1))):
                assert has_part(parent, aset, s) == has_part(parent, naive, s), (preset, s)


def test_has_part_leaves_the_avoidance_set_unchanged():
    # has_part keeps no state, so it never writes to a module-level preset
    before = copy.deepcopy(vars(CHERRY))
    inst = build_instance("posets")
    assert any(has_part(inst, CHERRY, s) for s in inst.elements((1, 2, 3)))
    assert vars(CHERRY) == before


def test_two_point_restrictions_decide_a_total_chain():
    # the lemma behind the parking presets' sizes {2}
    for n in range(7):
        ground = tuple(range(1, n + 1))
        for c in PARKING.elements(ground):
            pairs = itertools.combinations(ground, 2)
            assert _not_total(c) == any(_not_total(PARKING.restrict(c, frozenset(p))) for p in pairs), c


def test_avoiding_instance_counts():
    inst = AvoidingInstance(build_instance("perm_m"), pattern_set((2, 1, 3)))
    assert len(inst.elements((1, 2, 3))) == 30  # 6 relabelings of 5 avoiding words


# every preset, up to the degree it is checked at
CHECKED = {"213": 5, "132+213": 5, "12": 5, "3142+2413": 5, "cherry": 4, "cherry+V": 4,
           "nondecreasing-parking": 4, "mr-in-parking": 4}
assert set(CHECKED) == set(AVOIDANCE_PRESETS)


@pytest.mark.parametrize("preset", list(CHECKED) + ["perm_f/132"])
def test_avoiders_equal_the_labeled_filter(preset):
    # on 1..n and on grounds that start elsewhere and skip labels, which the
    # class lookup relabels onto 1..n
    if preset == "perm_f/132":
        parent, aset, nmax = build_instance("perm_f"), pattern_set((1, 3, 2)), 5
    else:
        parent_name, aset, _ = AVOIDANCE_PRESETS[preset]
        parent, nmax = build_instance(parent_name), CHECKED[preset]
    inst = AvoidingInstance(parent, aset)
    for n in range(nmax + 1):
        for ground in (tuple(range(1, n + 1)), (2, 4, 5, 7, 8, 11)[:n]):
            assert list(inst.elements(ground)) == labeled_avoiders(parent, aset, ground), (preset, ground)


def test_has_part_runs_once_per_parent_class(monkeypatch):
    # 154 orbit classes of perm_m at n <= 5, against 15 018 labeled elements
    calls = []
    real = avoidance.has_part
    monkeypatch.setattr(avoidance, "has_part", lambda *a: calls.append(a) or real(*a))
    assert graded_dimensions(build_preset("213"), 5) == [1, 1, 2, 5, 14, 42]
    assert len(calls) == 154
    # parking too: 877 classes at n <= 4, against 15 892 labeled pairs
    calls.clear()
    inst = build_preset("nondecreasing-parking")
    assert graded_dimensions(inst, 4) == [1, 1, 3, 16, 125]
    assert len(calls) == 1 + 1 + 5 + 51 + 819 == 877


@pytest.mark.parametrize("preset", list(CHECKED))
def test_avoider_classes_equal_the_walk(preset):
    # read off the parent's registry: the cid, key, representative and orbit
    # size of every class, and the class of each avoider on a ground that
    # skips labels, are those of a twin that walks the avoiders' orbits
    parent_name, aset, _ = AVOIDANCE_PRESETS[preset]
    got, want = (ClassRegistry(cls(build_instance(parent_name), aset)) for cls in (AvoidingInstance, walked(AvoidingInstance)))
    for n in range(CHECKED[preset] + 1):
        rows = [[(c.cid, c.key, c.rep, r.orbit_size(c)) for c in r.classes_of_degree(n)] for r in (got, want)]
        assert rows[0] == rows[1], (preset, n)
        shifted = got.inst.elements((2, 4, 5, 7, 8, 11)[:n])
        assert [got.class_of(s) for s in shifted] == [want.class_of(s) for s in shifted], (preset, n)


def _relabels(parent, work):
    # counts the relabelings of both factors of a Hadamard parent during work()
    calls = []
    for side in ("f", "g"):
        factor = getattr(parent, side)
        setattr(parent, side, factor._replace(relabel=lambda x, m, real=factor.relabel: calls.append(x) or real(x, m)))
    work()
    return len(calls)


def test_avoider_classes_relabel_nothing_beyond_the_parent():
    perm_m, inst = build_instance("perm_m"), build_preset("213")
    registry = ClassRegistry(perm_m)
    built = _relabels(perm_m, lambda: [registry.classes_of_degree(n) for n in range(6)])
    assert built > 0
    assert _relabels(inst.parent, lambda: graded_dimensions(inst, 5)) == built


def test_empty_avoidance_changes_nothing():
    parent = build_instance("graphs")
    inst = AvoidingInstance(parent, AvoidanceSet("empty", lambda s: False))
    for n in range(4):
        ground = tuple(range(1, n + 1))
        assert inst.elements(ground) == parent.elements(ground)


def test_cherry_avoiders_have_forest_hasse_diagrams():
    inst = AvoidingInstance(build_instance("posets"), CHERRY)
    ground = (1, 2, 3, 4)
    for s in inst.elements(ground):
        for z in ground:
            below = [x for x in ground if s.lt(x, z)]
            covers = [
                x
                for x in below
                if not any(s.lt(x, y) and s.lt(y, z) for y in below)
            ]
            assert len(covers) <= 1


def test_avoiders_closed_under_restriction():
    parent = build_instance("perm_m")
    aset = pattern_set((2, 1, 3))
    inst = AvoidingInstance(parent, aset)
    ground = (1, 2, 3, 4)
    for s in inst.elements(ground):
        for r in range(5):
            for sub in itertools.combinations(ground, r):
                assert not has_part(parent, aset, inst.restrict(s, frozenset(sub)))


def test_irreducibility_of_descent_coproduct():
    inst = build_instance("perm_m")
    assert is_irreducible(inst, 1, pattern_set((2, 1, 3)), 4).passed
    assert is_irreducible(inst, 1, pattern_set((1, 2)), 4).passed


def test_deconcatenation_is_not_irreducible():
    # splitting 213 itself after one position separates the pattern
    inst = build_instance("perm_f")
    r = is_irreducible(inst, 1, pattern_set((2, 1, 3)), 3)
    assert not r.passed
    assert r.witness["which"] == 1


def test_parking_second_total_irreducible():
    inst = build_instance("parking")
    assert is_irreducible(inst, 2, PARKING_SECOND, 3).passed


@pytest.mark.parametrize("preset", [name for name, (*_, claimed) in AVOIDANCE_PRESETS.items() if claimed is not None])
def test_has_part_is_relabel_invariant(preset):
    # is_irreducible reads each orbit class off one representative, which needs this
    parent_name, aset, _ = AVOIDANCE_PRESETS[preset]
    parent = build_instance(parent_name)
    for n in range(5):
        ground = tuple(range(1, n + 1))
        sigmas = [dict(zip(ground, image)) for image in itertools.permutations(ground)]
        for s in parent.elements(ground):
            verdict = has_part(parent, aset, s)
            assert all(has_part(parent, aset, parent.relabel(s, sigma)) == verdict for sigma in sigmas)


def test_quotient_or_sub_roles():
    # perm_m's Δ^1 is 213-irreducible, so on the 213-avoiders the product
    # dual to Δ^2 (bimonoid 1) goes through the quotient map, while the
    # product dual to Δ^1 (bimonoid 2) keeps every product inside
    parent = build_instance("perm_m")
    aset = pattern_set((2, 1, 3))
    assert is_irreducible(parent, 1, aset, 3).passed
    inst = AvoidingInstance(parent, aset)
    assert len(inst.elements((1, 2, 3))) == 30
    left_by_mu2 = False
    for a, b in itertools.product(range(4), repeat=2):
        if a + b > 3:
            continue
        A, B = tuple(range(1, a + 1)), tuple(range(a + 1, a + b + 1))
        for u, v in itertools.product(inst.elements(A), inst.elements(B)):
            assert not any(has_part(parent, aset, s) for s in mu(parent, 1, u, v)), (u, v)
            parent_out = mu(parent, 2, u, v)
            assert set(mu(inst, 2, u, v)) == {s for s in parent_out if not has_part(parent, aset, s)}
            left_by_mu2 |= any(has_part(parent, aset, s) for s in parent_out)
    assert left_by_mu2


def test_quotient_requires_verified_irreducibility():
    # the quotient on the 213-avoiders needs Δ^1 to be irreducible: it is
    # for perm_m, and not for perm_f, whose Δ^1 is deconcatenation
    aset = pattern_set((2, 1, 3))
    assert is_irreducible(build_instance("perm_m"), 1, aset, 3).passed
    assert not is_irreducible(build_instance("perm_f"), 1, aset, 3).passed


def test_avoiding_instances_stay_intertwined():
    assert check_intertwined(build_preset("213"), 3).passed
    assert check_intertwined(build_preset("nondecreasing-parking"), 3).passed


def test_quotient_multiplication_drops_non_avoiders():
    # q∘mu_parent = mu_quotient on avoiders, for the irreducible-side dual
    parent = build_instance("perm_m")
    aset = pattern_set((2, 1, 3))
    inst = AvoidingInstance(parent, aset)
    u = pair_from_word((2, 1), ground=(1, 2))
    v = pair_from_word((1,), ground=(3,))
    parent_out = mu(parent, 2, u, v)
    quotient_out = mu(inst, 2, u, v)
    assert set(quotient_out) == {
        s for s in parent_out if not has_part(parent, aset, s)
    }
    assert len(parent_out) > len(quotient_out)


def test_mr_in_parking_elements_are_total_pairs():
    inst = build_preset("mr-in-parking")
    for n in range(4):
        ground = tuple(range(1, n + 1))
        els = inst.elements(ground)
        import math

        assert len(els) == math.factorial(n) ** 2
        for s in els:
            assert all(len(part) == i + 1 for i, part in enumerate(s.first))
            assert all(len(part) == i + 1 for i, part in enumerate(s.second))


# -- theorem (i) as a census over every pattern of length 3 and 4 -----------

PATTERNS = [w for k in (3, 4) for w in itertools.permutations(range(1, k + 1))]


def has_global_descent(word):
    """Some split of the word puts every letter before it above every letter after."""
    return any(min(word[:i]) > max(word[i:]) for i in range(1, len(word)))


def test_census_irreducible_exactly_without_global_descent():
    perm_m = build_instance("perm_m")
    verdicts = {w: is_irreducible(perm_m, 1, pattern_set(w), 4).passed for w in PATTERNS}
    assert verdicts == {w: not has_global_descent(w) for w in PATTERNS}
    assert len(PATTERNS) == 30 and sum(verdicts.values()) == 16  # OEIS A003319: 3 + 13


def test_census_dimensions_count_avoiders():
    perm_m = build_instance("perm_m")
    for w in PATTERNS:
        inst = AvoidingInstance(perm_m, pattern_set(w))
        assert graded_dimensions(inst, 5) == [count_avoiders(n, [w]) for n in range(6)], w


@pytest.fixture(scope="module")
def perm_m():
    return build_instance("perm_m")


@pytest.mark.parametrize("word, last", [((1, 3, 4, 2), 512), ((1, 2, 3, 4), 513), ((1, 3, 2, 4), 513)])
def test_wilf_classes_separate_at_degree_six(perm_m, word, last):
    # n = 6 is the first degree where length-4 patterns of different Wilf
    # classes differ: 1342 parts from 1234 and 1324 (Bóna, *Combinatorics of
    # Permutations*), which stay equal until n = 7
    dims = graded_dimensions(AvoidingInstance(perm_m, pattern_set(word)), 6)
    assert dims == [count_avoiders(n, [word]) for n in range(7)]
    assert dims == [1, 1, 2, 6, 23, 103, last]


@pytest.mark.parametrize(
    "word", [w for w in PATTERNS if not has_global_descent(w)], ids=lambda w: "".join(map(str, w))
)
def test_census_quotient_tables_pass_hopf_axioms(word):
    inst = AvoidingInstance(build_instance("perm_m"), pattern_set(word))
    assert verify_hopf_axioms(fock_tables(inst, 1, 2, 3)).passed


def test_irreducible_reports_equal_the_labeled_walk():
    # every witness is the first failing labeled element, as before classes were walked
    cases = [(p, pattern_set(w)) for p in ("perm_m", "perm_f") for w in PATTERNS]
    cases += [(p, aset) for p in ("posets", "preorders") for aset in (CHERRY, CHERRY_V)]
    cases += [("parking", PARKING_SECOND)]
    parents = {name: build_instance(name) for name in ("perm_m", "perm_f", "posets", "preorders", "parking")}
    reports = []
    for parent, aset in cases:
        for which in (1, 2):
            got = is_irreducible(parents[parent], which, aset, 4)
            want = labeled_is_irreducible(parents[parent], which, aset, 4)
            assert got.to_json() == want.to_json(), (parent, aset.name, which)
            reports.append(got)
    assert len(reports) == 130 and sum(not r.passed for r in reports) == 109


def minimal_members(words):
    """The words that contain no other word of the set as a pattern."""
    return [w for w in words if not any(v != w and contains_pattern(w, v) for v in words)]


def test_census_pairs_irreducible_exactly_when_minimal_members_lack_global_descents():
    # also holds at n <= 5 (126 pairs), kept out of the suite for time
    perm_m = build_instance("perm_m")
    pairs = list(itertools.combinations(PATTERNS, 2))
    verdicts = {pair: is_irreducible(perm_m, 1, pattern_set(*pair), 4).passed for pair in pairs}
    assert verdicts == {pair: not any(map(has_global_descent, minimal_members(pair))) for pair in pairs}
    assert len(pairs) == 435 and sum(verdicts.values()) == 126
