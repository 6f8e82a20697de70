import copy
import itertools

import pytest

from precut.avoidance import (
    AvoidanceSet,
    AvoidingInstance,
    has_part,
    is_irreducible,
    quotient_or_sub_bimonoid,
)
from precut.errors import IrreducibilityNotVerified
from precut.fock import fock_tables, graded_dimensions, verify_hopf_axioms
from precut.instances import (
    AVOIDANCE_PRESETS,
    CHERRY,
    CHERRY_V,
    PARKING_SECOND,
    build_instance,
    build_preset,
    pattern_set,
)
from precut.instances.perm import pair_from_word
from precut.species import check_intertwined, mu

from oracles import contains_pattern, count_avoiders, labeled_is_irreducible


def test_has_part_examples():
    inst = build_instance("perm_f")
    identity3 = pair_from_word((1, 2, 3))
    assert not has_part(inst, pattern_set((2, 1)), identity3)
    s = pair_from_word((3, 1, 2, 4))
    assert has_part(inst, pattern_set((2, 1, 3)), s)
    empty = AvoidanceSet("empty", lambda s: False)
    assert not has_part(inst, empty, s)


def test_has_part_matches_naive_scan():
    # size-restricted scan against the unrestricted one
    inst = build_instance("perm_m")
    sized = pattern_set((2, 1, 3))
    naive = AvoidanceSet("naive", sized.membership)
    for s in inst.elements((1, 2, 3, 4))[:200]:
        assert has_part(inst, sized, s) == has_part(inst, naive, s)


def test_has_part_leaves_the_avoidance_set_unchanged():
    # verdicts are cached on the instance, never on a module-level preset
    before = copy.deepcopy(vars(CHERRY))
    inst = build_instance("posets")
    assert any(has_part(inst, CHERRY, s) for s in inst.elements((1, 2, 3)))
    assert vars(CHERRY) == before


def test_avoiding_instance_counts():
    inst = AvoidingInstance(build_instance("perm_m"), pattern_set((2, 1, 3)))
    assert len(inst.elements((1, 2, 3))) == 30  # 6 relabelings of 5 avoiding words


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


@pytest.mark.parametrize("preset", [name for name, (_, aset, _) in AVOIDANCE_PRESETS.items() if aset is not None])
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
    inst = build_instance("perm_m")
    sub, roles = quotient_or_sub_bimonoid(inst, pattern_set((2, 1, 3)), 1, 3)
    assert roles["bimonoid_2"] == "sub-bimonoid of the parent"
    assert roles["bimonoid_1"] == "quotient bimonoid of the parent"
    assert len(sub.elements((1, 2, 3))) == 30


def test_quotient_requires_verified_irreducibility():
    with pytest.raises(IrreducibilityNotVerified):
        quotient_or_sub_bimonoid(build_instance("perm_f"), pattern_set((2, 1, 3)), 1, 3)


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
        assert graded_dimensions(inst, 4) == [count_avoiders(n, [w]) for n in range(5)], w


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
