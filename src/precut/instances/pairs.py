"""Pairs of preorders of the three incomparability-forces-bubble types, the
frame generators that produce them, and the packed-word subspecies."""

from __future__ import annotations

import itertools
from typing import NamedTuple

from ..errors import FrameViolation, NotARefinement, NotTotalPreorder
from ..preorder import (
    Preorder,
    _check_same_ground,
    bubbles,
    chain,
    closure,
    enumerate_preorders,
    is_partition_order,
    is_poset,
    is_total_preorder,
    total_blocks,
    relabel as relabel_preorder,
    restrict as restrict_preorder,
)
from .hadamard import LINEAR, Factor, Hadamard


class PreorderPair(NamedTuple):
    p: Preorder
    q: Preorder


# restriction looks `restrict_preorder` up at each call, so a rebinding of the
# module name (perfbench/tracing.py counts calls that way) reaches it.  1..n
# onto the sorted ground preserves order, so the enumerated rows carry over.
PREORDERS = Factor(
    lambda ground: [Preorder._valid(ground, p.rows) for p in enumerate_preorders(len(ground))],
    lambda p, sub: restrict_preorder(p, sub),
    relabel_preorder,
    lambda p: p,
    lambda p: frozenset(p.ground),
)
POSETS = PREORDERS._replace(elements=lambda ground: [p for p in PREORDERS.elements(ground) if is_poset(p)])
TOTAL_PREORDERS = PREORDERS._replace(
    elements=lambda ground: [p for p in PREORDERS.elements(ground) if is_total_preorder(p)]
)
TOTAL_ORDERS = PREORDERS._replace(elements=lambda ground: [chain(x) for x in LINEAR.elements(ground)])


def _pointwise(p: Preorder, q: Preorder, forward, backward):
    """forward: strict p-comparison forces same q-bubble;
    backward: p-incomparability forces same q-bubble.  Returns the predicate
    'for all pairs, the selected implications hold' for (p, q) in this order."""
    _check_same_ground(p, q)
    for x, y in itertools.combinations(p.ground, 2):
        if forward and (p.lt(x, y) or p.lt(y, x)) and not q.same_bubble(x, y):
            return False
        if backward and p.incomparable(x, y) and not q.same_bubble(x, y):
            return False
    return True


def is_cc(p: Preorder, q: Preorder) -> bool:
    return _pointwise(p, q, False, True) and _pointwise(q, p, False, True)


def is_nc(p: Preorder, q: Preorder) -> bool:
    return _pointwise(q, p, False, True) and _pointwise(p, q, True, False)


def is_nn(p: Preorder, q: Preorder) -> bool:
    return _pointwise(p, q, True, False) and _pointwise(q, p, True, False)


MEMBERSHIP = {"cc": is_cc, "nc": is_nc, "nn": is_nn}


class PreorderPairs(Hadamard):
    """The pairs of f × g (all preorders, squared, by default) of one kind."""

    cap = 4
    pair = PreorderPair

    def __init__(self, kind, f=PREORDERS, g=PREORDERS):
        assert kind in MEMBERSHIP
        super().__init__(f, g)
        self.kind = self.name = kind

    def _elements(self, ground):
        return [s for s in super()._elements(ground) if MEMBERSHIP[self.kind](*s)]

    def serialize(self, s):
        return ("pair", self.kind, s.p.ground, s.p.rows, s.q.rows)


class PackedWords(PreorderPairs):
    """Subspecies of type cc: first component a total order, second a total
    preorder.  Orbit classes in degree n are the packed words of length n."""

    cap = 5
    # neither component has an incomparable pair, so every pair is cc
    _elements = Hadamard._elements

    def __init__(self):
        super().__init__("cc", TOTAL_ORDERS, TOTAL_PREORDERS)
        self.name = "packed_words"


# -- generators from frames ------------------------------------------------


def refine_along(frame: Preorder, refinements) -> Preorder:
    """Replace selected bubbles of the frame by the given preorders on them."""
    frame_bubbles = set(bubbles(frame))
    refined = {}
    for bubble, r in refinements.items():
        bubble = frozenset(bubble)
        if bubble not in frame_bubbles:
            raise FrameViolation(f"{sorted(bubble)} is not a bubble of the frame")
        if not isinstance(r, Preorder) or frozenset(r.ground) != bubble:
            raise NotARefinement(f"refinement of {sorted(bubble)} must be a preorder on it")
        refined[bubble] = r
    pairs = []
    for x, y in frame.pairs():
        bubble = next(b for b in frame_bubbles if x in b)
        if y in bubble and bubble in refined:
            continue
        pairs.append((x, y))
    for r in refined.values():
        pairs += r.pairs()
    return closure(frame.ground, pairs)


def generate_pair(kind, frame1: Preorder, frame2: Preorder, refinements1, refinements2):
    """Construct a pair of the given type from frames plus bubble refinements.

    Frames: two total preorders for cc, a partition order and a total
    preorder for nc, two partition orders for nn.  The refined bubble sets
    must be disjoint and cross-contained in the other frame's bubbles.
    """
    if kind == "cc":
        if not (is_total_preorder(frame1) and is_total_preorder(frame2)):
            raise FrameViolation("cc frames must be total preorders")
    elif kind == "nc":
        if not is_partition_order(frame1):
            raise FrameViolation("nc first frame must be a partition order")
        if not is_total_preorder(frame2):
            raise FrameViolation("nc second frame must be a total preorder")
    elif kind == "nn":
        if not (is_partition_order(frame1) and is_partition_order(frame2)):
            raise FrameViolation("nn frames must be partition orders")
    else:
        raise FrameViolation(f"unknown kind {kind!r}")
    if frame1.ground != frame2.ground:
        raise FrameViolation("frames must share a ground")
    bset1 = {frozenset(b) for b in refinements1}
    bset2 = {frozenset(b) for b in refinements2}
    if bset1 & bset2:
        raise FrameViolation("refined bubble sets must be disjoint")
    for b in bset1:
        if not any(b <= frozenset(c) for c in bubbles(frame2)):
            raise FrameViolation(
                f"refined bubble {sorted(b)} not inside a bubble of the second frame"
            )
    for b in bset2:
        if not any(b <= frozenset(c) for c in bubbles(frame1)):
            raise FrameViolation(
                f"refined bubble {sorted(b)} not inside a bubble of the first frame"
            )
    p = refine_along(frame1, refinements1)
    q = refine_along(frame2, refinements2)
    pair = PreorderPair(p, q)
    if not MEMBERSHIP[kind](p, q):
        raise FrameViolation("constructed pair fails the type predicate")
    return pair


def cc_matrix(p: Preorder, q: Preorder):
    """Block-intersection matrix of two total preorders; entries sum to |X|."""
    if not (is_total_preorder(p) and is_total_preorder(q)):
        raise NotTotalPreorder("both components must be total preorders")
    _check_same_ground(p, q)
    rows = total_blocks(p)
    cols = total_blocks(q)
    return tuple(
        tuple(len(set(b) & set(c)) for c in cols) for b in rows
    )
