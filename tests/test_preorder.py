import itertools
import math

import pytest

from oracles import _ordered_set_partitions, brute_enumerate_preorders, closure_relabel, leq
from precut.errors import CapExceeded, GroundMismatch, InvalidStructure, UnknownLabel
from precut.preorder import (
    Preorder,
    bubble_partition,
    bubbles,
    chain,
    closure,
    coarse,
    component_partition,
    cuts,
    discrete,
    enumerate_preorders,
    is_coarse,
    is_cut,
    is_discrete,
    is_partition_order,
    is_poset,
    is_total_order,
    is_total_preorder,
    join,
    meet,
    minimal_total_refinement,
    opposite,
    partition_order,
    preorder_from_json,
    relabel,
    restrict,
    total_preorder_from_blocks,
)
from precut.instances.pairs import TOTAL_ORDERS, TOTAL_PREORDERS

ABC = ("a", "b", "c")


def all_preorders(ground):
    ground = tuple(sorted(ground))
    n = len(ground)
    out = []
    for p in enumerate_preorders(n):
        mapping = dict(zip(p.ground, ground))
        out.append(closure(ground, [(mapping[x], mapping[y]) for x, y in p.pairs()]))
    return out


def test_closure_discrete_and_coarse():
    assert closure(ABC, []) == discrete(ABC)
    assert closure(ABC, [(x, y) for x in ABC for y in ABC]) == coarse(ABC)


def test_closure_chain():
    p = closure(ABC, [("a", "b"), ("b", "c")])
    assert p == chain(("a", "b", "c"))
    assert len(p.pairs()) == 6


def test_closure_unknown_label():
    with pytest.raises(UnknownLabel):
        closure(ABC, [("a", "z")])


def test_lattice_identities():
    for p in all_preorders(("a", "b")):
        assert meet(p, coarse(("a", "b"))) == p
        assert join(p, discrete(("a", "b"))) == p


def test_join_of_opposite_chains_is_coarse():
    assert join(chain(("a", "b")), chain(("b", "a"))) == coarse(("a", "b"))


def test_ground_mismatch():
    with pytest.raises(GroundMismatch):
        meet(discrete(("a",)), discrete(("b",)))


def test_join_is_least_upper_bound_exhaustive():
    ps = all_preorders(ABC)
    for p, q in itertools.product(ps, repeat=2):
        j = join(p, q)
        assert p <= j and q <= j
        for r in ps:
            if p <= r and q <= r:
                assert j <= r


def test_bubbles_poset_and_coarse():
    assert bubbles(chain(ABC)) == (frozenset("a"), frozenset("b"), frozenset("c"))
    assert bubbles(coarse(ABC)) == (frozenset(ABC),)


def test_component_partition_hand_case():
    p = closure(ABC, [("a", "b")])
    assert component_partition(p) == partition_order([("a", "b"), ("c",)])
    assert bubble_partition(p) == discrete(ABC)


def test_total_order_has_n_plus_one_cuts():
    for n in range(1, 6):
        ground = tuple(range(n))
        assert len(cuts(chain(ground))) == n + 1


def test_discrete_has_all_cuts():
    assert len(cuts(discrete(ABC))) == 8


def test_coarse_has_trivial_cuts_only():
    cs = cuts(coarse(ABC))
    assert [sorted(c.down) for c in cs] == [[], ["a", "b", "c"]]


def test_is_cut_matches_down_set_definition():
    for p in all_preorders(ABC):
        for r in range(4):
            for sub in itertools.combinations(ABC, r):
                want = all(
                    (not leq(p, x, y)) or x in sub for y in sub for x in ABC
                )
                assert is_cut(p, sub) == want


def test_restrict_full_is_identity():
    for p in all_preorders(ABC):
        assert restrict(p, ABC) == p


def test_restrict_meet_commutes_exhaustive():
    ps = all_preorders(ABC)
    subs = [s for r in range(4) for s in itertools.combinations(ABC, r)]
    for p, q in itertools.product(ps, repeat=2):
        for sub in subs:
            assert restrict(meet(p, q), sub) == meet(restrict(p, sub), restrict(q, sub))


def test_restrict_join_on_cut_sides_exhaustive():
    ps = all_preorders(ABC)
    for p, q in itertools.product(ps, repeat=2):
        j = join(p, q)
        for cut in cuts(j):
            for side in (cut.down, cut.up):
                assert restrict(j, side) == join(restrict(p, side), restrict(q, side))


def ref_oracle(p, q):
    ok = True
    for x, y in itertools.combinations(p.ground, 2):
        if p.same_bubble(x, y) and not q.same_bubble(x, y):
            ok = False
        if not q.same_bubble(x, y):
            if (q.lt(x, y) != p.lt(x, y)) or (q.lt(y, x) != p.lt(y, x)):
                ok = False
    return ok


def test_minimal_total_refinement_simple_cases():
    t = chain(ABC)
    assert minimal_total_refinement(t) == t
    assert minimal_total_refinement(total_preorder_from_blocks([("a", "b"), ("c",)])) == \
        total_preorder_from_blocks([("a", "b"), ("c",)])
    assert minimal_total_refinement(discrete(ABC)) == coarse(ABC)


def test_minimal_total_refinement_against_meet_oracle():
    ground = tuple(range(1, 5))
    totals = [total_preorder_from_blocks(blocks) for blocks in _ordered_set_partitions(ground)]
    for p in enumerate_preorders(4):
        fast = minimal_total_refinement(p)
        candidates = [t for t in totals if ref_oracle(p, t)]
        oracle = candidates[0]
        for t in candidates[1:]:
            oracle = meet(oracle, t)
        assert fast == oracle
        assert is_total_preorder(fast)
        assert ref_oracle(p, fast)


def test_predicates_on_extremes():
    d, c = discrete(ABC), coarse(ABC)
    assert is_partition_order(d) and is_poset(d) and not is_total_preorder(d)
    assert is_total_preorder(c) and is_partition_order(c) and not is_poset(c)
    assert is_discrete(d) and is_coarse(c)


def test_counts_on_three_set():
    assert len(TOTAL_PREORDERS.elements(ABC)) == 13
    assert len(TOTAL_ORDERS.elements(ABC)) == 6
    assert sum(1 for t in TOTAL_PREORDERS.elements(ABC) if is_total_order(t)) == 6


# grounds of 0-4 points, with labels that are not 1..n; 1, 1, 3, 13, 75
# total preorders (ordered Bell numbers) and n! total orders
ORACLE_GROUNDS = [((), 1), ((5,), 1), ((2, 9), 3), (ABC, 13), ((1, 2, 3, 4), 75), ((2, 4, 5, 7), 75)]


@pytest.mark.parametrize("ground, count", ORACLE_GROUNDS)
def test_total_preorder_factor_against_ordered_set_partitions(ground, count):
    got = TOTAL_PREORDERS.elements(ground)
    assert len(got) == len(set(got)) == count
    assert set(got) == {total_preorder_from_blocks(b) for b in _ordered_set_partitions(ground)}


@pytest.mark.parametrize("ground, count", ORACLE_GROUNDS)
def test_total_order_factor_against_singleton_partitions(ground, count):
    # the ordered set partitions into singletons, not chains of permutations
    got = TOTAL_ORDERS.elements(ground)
    singletons = [b for b in _ordered_set_partitions(ground) if all(len(block) == 1 for block in b)]
    assert len(got) == len(set(got)) == len(singletons) == math.factorial(len(ground))
    assert set(got) == {total_preorder_from_blocks(b) for b in singletons}


def test_enumerate_preorders_counts():
    # 1, 1, 4, 29, 355 labeled preorders for n = 0..4
    assert [sum(1 for _ in enumerate_preorders(n)) for n in range(5)] == [1, 1, 4, 29, 355]


def test_enumerate_preorders_matches_closure_dedup_oracle():
    for n in range(4):
        ground = tuple(range(1, n + 1))
        seen = set()
        pairs_all = [(x, y) for x in ground for y in ground if x != y]
        for r in range(len(pairs_all) + 1):
            for chosen in itertools.combinations(pairs_all, r):
                seen.add(closure(ground, chosen))
        assert seen == set(enumerate_preorders(n))


def test_enumerate_preorders_equals_brute_force():
    for n in range(5):
        listed = list(enumerate_preorders(n))
        assert len(listed) == len(set(listed))
        assert set(listed) == set(brute_enumerate_preorders(n))
    assert sum(1 for _ in enumerate_preorders(5)) == 6942  # OEIS A000798


def test_relabel_equals_closure_relabel():
    # every preorder at n <= 4 under every bijection onto a shifted ground
    for n in range(5):
        ground = tuple(range(1, n + 1))
        for p in enumerate_preorders(n):
            for image in itertools.permutations(range(11, 11 + n)):
                mapping = dict(zip(ground, image))
                assert relabel(p, mapping) == closure_relabel(p, mapping)


def test_bad_labels_are_invalid_structure():
    with pytest.raises(InvalidStructure):
        closure([1, "a"], [])
    with pytest.raises(InvalidStructure):
        preorder_from_json({"ground": [[1]], "rel": [[True]]})
    with pytest.raises(UnknownLabel):
        closure([1], [([1], 1)])


def test_chain_refuses_repeated_labels():
    with pytest.raises(InvalidStructure):
        chain(("a", "b", "a"))


def test_total_preorder_from_blocks_refuses_overlapping_blocks():
    with pytest.raises(InvalidStructure):
        total_preorder_from_blocks([("a", "b"), ("b", "c")])


def test_partition_order_refuses_overlapping_blocks():
    with pytest.raises(InvalidStructure):
        partition_order([("a",), ("a", "b")])


def test_enumerate_preorders_cap():
    with pytest.raises(CapExceeded):
        list(enumerate_preorders(6))


def test_opposite_involution_on_enumeration():
    for p in enumerate_preorders(3):
        assert opposite(opposite(p)) == p


def test_lattice_laws_exhaustive():
    ps = all_preorders(ABC)
    for p in ps:
        assert meet(p, p) == p and join(p, p) == p
    for p, q in itertools.product(ps, repeat=2):
        assert meet(p, q) == meet(q, p)
        assert join(p, q) == join(q, p)
        assert join(p, meet(p, q)) == p
        assert meet(p, join(p, q)) == p


def test_preorder_json_roundtrip():
    p = closure(ABC, [("a", "b")])
    assert preorder_from_json(p.to_json()) == p


def test_minimal_total_refinement_on_all_outputs_valid():
    for p in enumerate_preorders(4):
        t = minimal_total_refinement(p)
        assert is_total_preorder(t)
        assert ref_oracle(p, t)


def test_unchecked_results_are_preorders_and_bad_inputs_still_raise():
    # restrict, relabel and enumerate_preorders skip the constructor's checks
    for p in enumerate_preorders(4):
        for q in (p, restrict(p, (1, 3, 4)), relabel(p, {1: 7, 2: 5, 3: 9, 4: 6})):
            assert Preorder(q.ground, q.rows) == q
    p = chain((1, 2, 3))
    with pytest.raises(InvalidStructure):
        relabel(p, {1: 5, 2: 5, 3: 6})
    with pytest.raises(UnknownLabel):
        is_cut(p, {1, 4})
    with pytest.raises(UnknownLabel):
        restrict(p, {1, 4})
