import itertools

import pytest

from oracles import (
    brute_break_points,
    brute_dilation_sequence,
    brute_filtration_preorder,
    brute_parkize,
    brute_restrict_filtration,
    exhaustive_chains,
)
from precut.errors import InvalidStructure, NotExhaustive, NotNested
from precut.instances.parking import (
    ParkingPairs,
    _restrict,
    break_points,
    dilation_sequence,
    filtration_preorder,
    parking_chains,
    parkize,
)
from precut.preorder import cuts, restrict, total_preorder_from_blocks

ABC = ("a", "b", "c")


def test_dilation_of_parking_chain_is_identity():
    for chain in parking_chains((1, 2, 3)):
        n = len(chain)
        assert dilation_sequence(chain, (1, 2, 3)) == tuple(range(n + 1))


def test_dilation_hand_example():
    raw = [{"a"}, {"a"}, {"a", "b", "c"}, {"a", "b", "c"}]
    assert dilation_sequence(raw, ABC) == (0, 1, 3, 4)
    assert parkize(raw, ABC) == (("a",), ("a", "b", "c"), ("a", "b", "c"))
    assert break_points(raw, ABC) == (0, 1, 3)
    assert filtration_preorder(raw, ABC) == total_preorder_from_blocks([("a",), ("b", "c")])


def test_chain_validation_errors():
    with pytest.raises(NotNested):
        dilation_sequence([{"a"}, {"b"}], ("a", "b"))
    with pytest.raises(NotExhaustive):
        dilation_sequence([{"a"}], ("a", "b"))
    for raw, ground in [(5, (1,)), ([[[1]]], ([1],)), ([{1, "a"}], (1, "a")), ([[1, "a"]], (1,))]:
        with pytest.raises(InvalidStructure):
            parkize(raw, ground)


@pytest.mark.parametrize("raw, ground", [([[1]], [1, 1]), ([[1, 2, 2]], [1, 2])])
def test_repeated_labels_are_refused(raw, ground):
    # these were answered as if for the ground [1] and for the step [1, 2]
    for calculator in (dilation_sequence, parkize, break_points, filtration_preorder):
        with pytest.raises(InvalidStructure, match="duplicate labels"):
            calculator(raw, ground)


def test_parkize_idempotent_exhaustive():
    ground = (1, 2, 3, 4)
    for raw in exhaustive_chains(ground, 5):
        parked = parkize(raw, ground)
        assert parkize(parked, ground) == parked
        assert break_points(parked, ground) == break_points(raw, ground)
        assert filtration_preorder(parked, ground) == filtration_preorder(raw, ground)


def test_all_break_points_iff_total_order():
    ground = (1, 2, 3)
    for chain in parking_chains(ground):
        all_bps = break_points(chain, ground) == tuple(range(len(ground) + 1))
        strict = all(len(chain[i]) == i + 1 for i in range(len(chain)))
        assert all_bps == strict


def test_single_element_removal_dilation_shift():
    # removing one element between successive break points shifts the
    # dilation sequence past the upper break point
    ground = (1, 2, 3, 4)
    for raw in exhaustive_chains(ground, 5):
        p_old = dilation_sequence(raw, ground)
        bps = break_points(raw, ground)
        parked = parkize(raw, ground)
        for b_prev, b in zip(bps, bps[1:]):
            prev_level = set(parked[b_prev - 1]) if b_prev else set()
            for x in set(parked[b - 1]) - prev_level:
                smaller = [set(part) - {x} for part in raw]
                rest = tuple(y for y in ground if y != x)
                p_new = dilation_sequence(smaller, rest)
                for t in range(len(rest) + 1):
                    assert p_new[t] == (p_old[t] if t < b else p_old[t + 1])


def test_restriction_respects_equivalence_exhaustive():
    # equivalent filtrations (same parkization) restrict to equivalent ones
    ground = (1, 2, 3)
    by_parkization = {}
    for raw in exhaustive_chains(ground, 4):
        by_parkization.setdefault(parkize(raw, ground), []).append(raw)
    subsets = [
        frozenset(c) for r in range(4) for c in itertools.combinations(ground, r)
    ]
    for parked, raws in by_parkization.items():
        for sub in subsets:
            images = {
                parkize([set(part) & sub for part in raw], sub) for raw in raws
            }
            assert len(images) == 1
            assert images == {_restrict(parked, sub)}


def test_slices_at_break_points():
    # the cuts of the filtration preorder are the levels at break points, and
    # restricting to either side of one truncates the chain or takes the
    # difference chain past it
    ground = (1, 2, 3, 4)
    for chain in parking_chains(ground):
        bps = break_points(chain, ground)
        levels = [frozenset(chain[b - 1]) if b else frozenset() for b in bps]
        assert [c.down for c in cuts(filtration_preorder(chain, ground))] == levels
        for b, low in zip(bps, levels):
            below = _restrict(chain, low)
            assert below == chain[:b]
            above = _restrict(chain, frozenset(ground) - low)
            assert above == tuple(tuple(sorted(frozenset(part) - low)) for part in chain[b:])
            assert filtration_preorder(below, low) == restrict(filtration_preorder(chain, ground), low)


def test_parking_chain_counts():
    assert [len(parking_chains(tuple(range(1, n + 1)))) for n in range(5)] == [
        1,
        1,
        3,
        16,
        125,
    ]


def _subsets(ground):
    combos = (itertools.combinations(ground, r) for r in range(len(ground) + 1))
    return [frozenset(c) for cs in combos for c in cs]


def test_helpers_equal_brute_oracles():
    # every parking chain at n <= 5 and every subset, then every raw chain at n <= 4
    for n in range(6):
        ground = tuple(range(1, n + 1))
        for chain in parking_chains(ground):
            for sub in _subsets(ground):
                assert _restrict(chain, sub) == brute_restrict_filtration(chain, sub)
    for n in range(5):
        ground = tuple(range(1, n + 1))
        for raw in list(parking_chains(ground)) + exhaustive_chains(ground, 5):
            assert dilation_sequence(raw, ground) == brute_dilation_sequence(raw, ground)
            assert parkize(raw, ground) == brute_parkize(raw, ground)
            assert break_points(raw, ground) == brute_break_points(raw, ground)
            assert filtration_preorder(raw, ground) == brute_filtration_preorder(raw, ground)


def test_species_restrict_outputs_are_parkized():
    inst = ParkingPairs()
    for n in range(5):
        ground = tuple(range(1, n + 1))
        outputs = set()
        for s in inst.elements(ground):
            if s.first == s.second:  # each chain once
                want = brute_filtration_preorder(s.first, ground)
                assert inst.pi1(s) == inst.pi2(s) == want
            for sub in _subsets(ground):
                r = inst.restrict(s, sub)
                outputs |= {(r.first, sub), (r.second, sub)}
        assert all(parkize(chain, sub) == chain for chain, sub in outputs)
