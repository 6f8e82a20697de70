import itertools

import pytest

from precut.errors import FrameViolation, GroundMismatch, NotARefinement, NotTotalPreorder
from precut.instances import build_instance
from precut.instances.pairs import (
    MEMBERSHIP,
    PreorderPair,
    cc_matrix,
    generate_pair,
    is_cc,
    is_nc,
    is_nn,
    refine_along,
)
from precut.preorder import (
    bubbles,
    chain,
    coarse,
    component_partition,
    discrete,
    minimal_total_refinement,
    partition_order,
    restrict,
    total_preorder_from_blocks,
)
from precut.species import delta, mu

from oracles import _ordered_set_partitions, packed_word_of, unit_of


def all_pairs(kind, ground):
    return build_instance(kind).elements(ground)


def test_membership_two_element_cases():
    g = ("x", "y")
    d, c = discrete(g), coarse(g)
    t = chain(("x", "y"))
    assert is_nn(d, d) and not is_cc(d, d)
    assert is_cc(d, c) and is_cc(c, d) and is_cc(c, c)
    assert is_cc(t, t) and is_cc(t, c)
    assert is_nc(d, t)  # partition order with a total second component
    assert not is_nc(t, d)  # strict first comparison without a second bubble


@pytest.mark.parametrize("kind", ["cc", "nc", "nn"])
def test_membership_restriction_closed_and_relabel_invariant(kind):
    inst = build_instance(kind)
    member = MEMBERSHIP[kind]
    ground = (1, 2, 3)
    mapping = {1: "b", 2: "c", 3: "a"}
    for s in inst.elements(ground):
        for r in range(4):
            for sub in itertools.combinations(ground, r):
                t = inst.restrict(s, frozenset(sub))
                assert member(t.p, t.q)
        r = inst.relabel(s, mapping)
        assert member(r.p, r.q)


def test_refine_along_checks_frames():
    g = ("x", "y", "z")
    with pytest.raises(FrameViolation):
        refine_along(coarse(g), {frozenset({"x", "y"}): discrete(("x", "y"))})
    with pytest.raises(NotARefinement):
        refine_along(coarse(g), {frozenset(g): discrete(("x", "y"))})


def test_generate_cc_from_total_orders_trivial():
    t1, t2 = chain((1, 2, 3)), chain((3, 1, 2))
    pair = generate_pair("cc", t1, t2, {}, {})
    assert pair == PreorderPair(t1, t2)
    assert is_cc(pair.p, pair.q)


def test_generate_nn_discrete_frames():
    d = discrete((1, 2))
    pair = generate_pair("nn", d, d, {}, {})
    assert pair == PreorderPair(d, d)
    assert is_nn(pair.p, pair.q)
    assert not is_cc(pair.p, pair.q)


def test_generate_pair_frame_violations():
    g = (1, 2)
    with pytest.raises(FrameViolation):
        generate_pair("cc", discrete(g), coarse(g), {}, {})  # discrete not total
    with pytest.raises(FrameViolation):
        generate_pair("nc", chain(g), coarse(g), {}, {})  # first frame not partition
    b = frozenset(g)
    with pytest.raises(FrameViolation):
        # the same bubble refined on both sides
        generate_pair("cc", coarse(g), coarse(g), {b: discrete(g)}, {b: discrete(g)})
    with pytest.raises(FrameViolation):
        generate_pair("unknown", coarse(g), coarse(g), {}, {})


def _frames_of(kind, pair):
    """Reconstruct the frame data from a pair, mirroring the structure proofs."""
    if kind == "cc":
        f1 = minimal_total_refinement(pair.p)
        f2 = minimal_total_refinement(pair.q)
    elif kind == "nc":
        f1 = component_partition(pair.p)
        f2 = minimal_total_refinement(pair.q)
    else:
        f1 = component_partition(pair.p)
        f2 = component_partition(pair.q)
    refinements1 = {
        frozenset(b): restrict(pair.p, b)
        for b in bubbles(f1)
        if restrict(pair.p, b) != coarse(tuple(sorted(b)))
    }
    refinements2 = {
        frozenset(b): restrict(pair.q, b)
        for b in bubbles(f2)
        if restrict(pair.q, b) != coarse(tuple(sorted(b)))
    }
    return f1, f2, refinements1, refinements2


@pytest.mark.parametrize("kind", ["cc", "nc", "nn"])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_generator_surjectivity(kind, n):
    # every pair of the kind is reproduced from its reconstructed frames
    ground = tuple(range(1, n + 1))
    for s in all_pairs(kind, ground):
        f1, f2, r1, r2 = _frames_of(kind, s)
        rebuilt = generate_pair(kind, f1, f2, r1, r2)
        assert rebuilt == s


@pytest.mark.parametrize("kind", ["cc", "nc", "nn"])
def test_generator_soundness_random_frames(kind):
    # frames built from partitions of a 3-set with legal refinements
    ground = (1, 2, 3)
    blocks_options = [
        [(1, 2, 3)],
        [(1, 2), (3,)],
        [(1, 3), (2,)],
        [(1,), (2, 3)],
        [(1,), (2,), (3,)],
    ]
    member = MEMBERSHIP[kind]
    count = 0
    for blocks1 in blocks_options:
        for blocks2 in blocks_options:
            if kind == "cc":
                f1 = total_preorder_from_blocks(blocks1)
                f2 = total_preorder_from_blocks(blocks2)
            elif kind == "nc":
                f1 = partition_order(blocks1)
                f2 = total_preorder_from_blocks(blocks2)
            else:
                f1 = partition_order(blocks1)
                f2 = partition_order(blocks2)
            bubbles1 = [frozenset(b) for b in blocks1 if len(b) > 1]
            bubbles2 = [frozenset(b) for b in blocks2 if len(b) > 1]
            for b1 in [None] + bubbles1:
                for b2 in [None] + bubbles2:
                    r1 = {} if b1 is None else {b1: discrete(tuple(sorted(b1)))}
                    r2 = {} if b2 is None else {b2: discrete(tuple(sorted(b2)))}
                    sets1 = set(r1)
                    sets2 = set(r2)
                    legal = (
                        not (sets1 & sets2)
                        and all(
                            any(b <= frozenset(c) for c in bubbles(f2)) for b in sets1
                        )
                        and all(
                            any(b <= frozenset(c) for c in bubbles(f1)) for b in sets2
                        )
                    )
                    if not legal:
                        continue
                    pair = generate_pair(kind, f1, f2, r1, r2)
                    assert member(pair.p, pair.q)
                    count += 1
    assert count > 10


def test_cc_matrix_examples():
    t = chain((1, 2, 3))
    assert cc_matrix(t, t) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    c = coarse((1, 2, 3, 4))
    assert cc_matrix(c, c) == ((4,),)
    with pytest.raises(NotTotalPreorder):
        cc_matrix(discrete((1, 2)), c)


def test_pairs_on_different_grounds_are_refused():
    with pytest.raises(GroundMismatch):
        cc_matrix(coarse((1, 2)), coarse((3, 4)))
    for member in MEMBERSHIP.values():
        with pytest.raises(GroundMismatch):
            member(discrete((1,)), discrete((2,)))


def test_cc_matrix_is_isomorphism_invariant():
    # two total-preorder pairs are relabelings of each other iff their
    # matrices coincide; exhaustive on a 3-set
    ground = (1, 2, 3)
    totals = [total_preorder_from_blocks(blocks) for blocks in _ordered_set_partitions(ground)]
    pairs = [(p, q) for p in totals for q in totals]
    perms = [dict(zip(ground, img)) for img in itertools.permutations(ground)]

    def relabeled(p, mapping):
        from precut.preorder import closure

        return closure(ground, [(mapping[x], mapping[y]) for x, y in p.pairs()])

    for p1, q1 in pairs:
        orbit = {
            (relabeled(p1, m), relabeled(q1, m)) for m in perms
        }
        for p2, q2 in pairs:
            same_matrix = cc_matrix(p1, q1) == cc_matrix(p2, q2)
            assert same_matrix == ((p2, q2) in orbit)


def test_packed_word_of_reads_blocks():
    pair = PreorderPair(
        chain((1, 2, 3)), total_preorder_from_blocks([(2, 3), (1,)])
    )
    assert packed_word_of(pair) == (2, 1, 1)


def test_nn_compatibility_counterexample():
    # pinned demonstration that the all-pairs nn species is not a bimonoid:
    # the compatibility square produces three corner terms from the factors
    # but only one from the product
    inst = build_instance("nn")
    u = PreorderPair(chain((1, 3)), coarse((1, 3)))
    v = inst.elements((2,))[0]
    assert u in inst.elements((1, 3))
    prods = mu(inst, 2, u, v)
    assert len(prods) == 1
    du = delta(inst, 1, u, frozenset({1}), frozenset({3}))
    assert du is not None
    a, c = du
    assert len(mu(inst, 2, a, v)) == 3
    assert len(mu(inst, 2, c, unit_of(inst))) == 1
    left = delta(inst, 1, prods[0], frozenset({1, 2}), frozenset({3}))
    assert left is not None  # one term against three
