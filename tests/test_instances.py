import itertools

import pytest

from precut.errors import CapExceeded, UnknownInstance
from precut.instances import build_instance
from precut.instances.perm import DescentPairs, PermPair, word_of
from precut.preorder import (
    bubble_partition,
    bubbles,
    chain,
    coarse,
    component_partition,
    cuts,
    discrete,
    is_coarse,
    is_cut,
    is_partition_order,
    is_total_order,
    is_total_preorder,
)

from oracles import graph_components, pair_from_word


def test_registry_unknown():
    with pytest.raises(UnknownInstance):
        build_instance("nope")


def test_cap_exceeded():
    inst = build_instance("parking")
    with pytest.raises(CapExceeded):
        inst.elements(tuple(range(1, 7)))


def test_colored_single_palette_counts():
    inst = build_instance("colored", palette=1)
    for n in range(4):
        assert len(inst.elements(tuple(range(1, n + 1)))) == 1


def test_colored_counts_palette_two():
    inst = build_instance("colored")
    assert [len(inst.elements(tuple(range(1, n + 1)))) for n in range(4)] == [1, 2, 4, 8]


def test_tensor_counts():
    inst = build_instance("tensor")
    assert len(inst.elements((1, 2))) == 4 * 2
    assert len(inst.elements((1, 2, 3))) == 8 * 6


def test_graphs_counts():
    inst = build_instance("graphs")
    assert [len(inst.elements(tuple(range(1, n + 1)))) for n in range(5)] == [1, 1, 2, 8, 64]


def test_graph_second_projection_is_the_component_partition():
    # every graph with at most 5 vertices, against a breadth-first search
    inst = build_instance("graphs")
    for n in range(6):
        for s in inst.elements(tuple(range(1, n + 1))):
            p = inst.pi2(s)
            assert is_partition_order(p)
            assert set(bubbles(p)) == graph_components(s.vertices, s.edges)


@pytest.mark.parametrize("palette", [2, 3])
def test_colored_elements_are_the_colorings_of_tensor(palette):
    colored = build_instance("colored", palette=palette)
    tensor = build_instance("tensor", palette=palette)
    for n in range(4):
        ground = tuple(range(1, n + 1))
        assert len(colored.elements(ground)) == palette**n
        assert set(colored.elements(ground)) == {s[0] for s in tensor.elements(ground)}


def test_posets_and_preorders_counts():
    posets = build_instance("posets")
    pres = build_instance("preorders")
    assert [len(posets.elements(tuple(range(1, n + 1)))) for n in range(5)] == [1, 1, 3, 19, 219]
    assert [len(pres.elements(tuple(range(1, n + 1)))) for n in range(5)] == [1, 1, 4, 29, 355]


def test_perm_counts():
    inst = build_instance("perm_f")
    assert len(inst.elements((1, 2, 3))) == 36


def test_perm_f_and_perm_m_share_elements():
    f = build_instance("perm_f")
    m = build_instance("perm_m")
    ground = (1, 2, 3)
    assert f.elements(ground) == m.elements(ground)
    s = f.elements(ground)[7]
    sub = frozenset({1, 3})
    assert f.restrict(s, sub) == m.restrict(s, sub)


PERM_M = DescentPairs()


def descents_oracle(word):
    n = len(word)
    return {
        k
        for k in range(1, n)
        if set(word[:k]) == set(range(n - k + 1, n + 1))
    }


def global_descents(s):
    """Sizes of the nontrivial cuts of perm_m's first projection."""
    n = len(s.t1)
    return {len(c.down) for c in cuts(PERM_M.pi1(s)) if 0 < len(c.down) < n}


def test_perm_m_projections_match_descent_structure():
    # the first projection of the descent basis is coarse exactly when the
    # word has no global descents
    m = build_instance("perm_m")
    for word in itertools.permutations((1, 2, 3)):
        s = pair_from_word(word)
        descents = descents_oracle(word)
        assert is_coarse(m.pi1(s)) == (not descents)
        # nontrivial cuts of pi1 correspond to global descents
        assert global_descents(s) == descents


def test_permutation_of_pair_roundtrip():
    for n in range(5):
        for word in itertools.permutations(range(1, n + 1)):
            assert word_of(pair_from_word(word)) == word


def test_pair_swap_gives_inverse_permutation():
    for word in itertools.permutations((1, 2, 3, 4)):
        p = pair_from_word(word)
        swapped = PermPair(p.t2, p.t1)
        inv = tuple(word.index(v) + 1 for v in range(1, len(word) + 1))
        assert word_of(swapped) == inv


def test_descent_preorder_examples():
    assert PERM_M.pi1(pair_from_word((3, 1, 2, 4))) == coarse((1, 2, 3, 4))
    assert global_descents(pair_from_word((3, 1, 2, 4))) == set()
    assert PERM_M.pi1(pair_from_word((1, 2, 3))) == coarse((1, 2, 3))
    rev = pair_from_word((4, 3, 2, 1))
    assert global_descents(rev) == {1, 2, 3}
    assert is_total_order(PERM_M.pi1(rev))


def test_descent_preorder_cuts_match_global_descents_over_s4():
    for word in itertools.permutations((1, 2, 3, 4)):
        p = pair_from_word(word)
        t = PERM_M.pi1(p)
        assert is_total_preorder(t)
        # each nontrivial cut is a t1-prefix whose size is a global descent
        for c in cuts(t):
            if 0 < len(c.down) < len(word):
                assert set(p.t1[: len(c.down)]) == c.down
        assert global_descents(p) == descents_oracle(word)
        assert global_descents(p) == descents_oracle(word_of(p))


def test_no_global_descents_iff_meet_connected_over_s4():
    # the meet of the pair is connected exactly when the join with the
    # opposite is coarse (bubble/component comparison of the two lattices)
    for word in itertools.permutations((1, 2, 3, 4)):
        p = pair_from_word(word)
        s = PERM_M.pi2(p)
        t = PERM_M.pi1(p)
        assert component_partition(s) == bubble_partition(t)


def test_perm_m_singleton_projections():
    m = build_instance("perm_m")
    s = pair_from_word((2, 1))
    assert m.pi1(s) == chain((1, 2))  # global descent: strict total preorder
    assert m.pi2(s) == discrete((1, 2))


def test_pair_species_small_membership():
    nn = build_instance("nn")
    cc = build_instance("cc")
    ground = (1, 2)
    dd = [s for s in nn.elements(ground) if s.p == discrete(ground) and s.q == discrete(ground)]
    assert len(dd) == 1
    # all four total-order pairs are of type cc
    total_pairs = [
        s
        for s in cc.elements(ground)
        if s.p in (chain((1, 2)), chain((2, 1))) and s.q in (chain((1, 2)), chain((2, 1)))
    ]
    assert len(total_pairs) == 4
    # (D, D) is nn but not cc on two elements
    assert not any(
        s.p == discrete(ground) and s.q == discrete(ground) for s in cc.elements(ground)
    )


def test_packed_words_element_counts():
    inst = build_instance("packed_words")
    assert len(inst.elements((1, 2))) == 2 * 3
    assert len(inst.elements((1, 2, 3))) == 6 * 13


def test_delta_cuts_are_break_points_for_parking():
    inst = build_instance("parking")
    for s in inst.elements((1, 2, 3)):
        p1 = inst.pi1(s)
        for mask in range(8):
            down = frozenset(x for i, x in enumerate((1, 2, 3)) if mask >> i & 1)
            if is_cut(p1, down):
                # each cut side is a union of chain levels
                assert down == frozenset() or any(
                    down == frozenset(level) for level in s.first
                )
