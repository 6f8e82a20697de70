"""Parking filtrations, parkization, and the species of filtration pairs.

A chain is stored in canonical parking form: a tuple of sorted label tuples
(X_1, ..., X_n) on a ground of size n with |X_p| >= p and X_n the ground;
X_0 = () is implicit.  Raw exhaustive filtrations of any length are accepted
at the boundary and parkized on ingest.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from ..errors import CapExceeded, InvalidStructure, NotExhaustive, NotNested
from ..preorder import Preorder, total_preorder_from_blocks
from .hadamard import Factor, Hadamard


def _normalize_raw(raw, ground):
    try:
        labels, steps = sorted(ground), [sorted(step) for step in raw]  # sortable for messages
        ground, sets = frozenset(labels), [frozenset(step) for step in steps]
    except TypeError:
        raise InvalidStructure("a chain is a list of lists of comparable labels") from None
    if len(ground) != len(labels) or any(len(s) != len(t) for s, t in zip(steps, sets)):
        raise InvalidStructure("duplicate labels in the ground or a chain step")
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


# The underscored helpers take validated levels or a canonical chain.


def _dilation(sets, n):
    out = [0]
    for t in range(1, n + 1):
        p = out[-1] + 1
        while p <= len(sets) and len(sets[p - 1]) < t:  # later levels are the ground
            p += 1
        out.append(p)
    return out


def _parkize(sets, ground):
    return tuple(
        tuple(sorted(sets[p - 1] if p <= len(sets) else ground))
        for p in _dilation(sets, len(ground))[1:]
    )


def _break_points(chain):
    return (0,) + tuple(b for b, part in enumerate(chain, start=1) if len(part) == b)


def _filtration_preorder(chain):
    bps = _break_points(chain)
    return total_preorder_from_blocks(
        set(chain[b - 1]).difference(chain[a - 1] if a else ()) for a, b in zip(bps, bps[1:])
    )


def _restrict(chain, sub):
    return _parkize([frozenset(part) & sub for part in chain], sub)


def _relabel(chain, mapping):
    image, out, prev = mapping.__getitem__, [], None
    for part in chain:  # a chain repeats levels: sort each run once
        if part != prev:
            prev, moved = part, tuple(sorted(map(image, part)))
        out.append(moved)
    return tuple(out)


def dilation_sequence(raw, ground):
    """Strictly increasing reindexing p(0..n): p(t) is the first level past
    p(t-1) holding at least t elements.  Levels beyond the listed chain are
    the full ground."""
    sets, ground = _normalize_raw(raw, ground)
    return tuple(_dilation(sets, len(ground)))


def parkize(raw, ground):
    """Canonical parking chain (X_{p(1)}, ..., X_{p(n)})."""
    return _parkize(*_normalize_raw(raw, ground))


def break_points(raw, ground):
    """All b with |X_{p(b)}| = b; always contains 0 and n."""
    return _break_points(parkize(raw, ground))


def filtration_preorder(raw, ground) -> Preorder:
    """Total preorder whose bubbles are the gaps between successive break
    points, earlier gaps smaller."""
    return _filtration_preorder(parkize(raw, ground))


PARKING_ENUM_CAP = 7  # n^n candidate tuples: 823 543 at 7, a few seconds


def parking_chains(ground):
    """All parking chains on the ground, via parking functions."""
    ground = tuple(sorted(ground))
    n = len(ground)
    if n > PARKING_ENUM_CAP:
        raise CapExceeded(f"n={n} above parking chain enumeration cap {PARKING_ENUM_CAP}")
    out = []
    for values in itertools.product(range(1, n + 1), repeat=n):
        if all(sum(1 for v in values if v <= i) >= i for i in range(1, n + 1)):
            out.append(
                tuple(
                    tuple(x for x, v in zip(ground, values) if v <= i)
                    for i in range(1, n + 1)
                )
            )
    return out


# parking chains, each projected to its break-point preorder
PARKING = Factor(
    parking_chains, _restrict, _relabel, _filtration_preorder, lambda c: frozenset(c[-1] if c else ())
)


class ParkingPair(NamedTuple):
    first: tuple
    second: tuple


class ParkingPairs(Hadamard):
    """Pairs of parking filtrations; projections are the break-point preorders."""

    name = "parking"
    cap = 4
    pair = ParkingPair
    tag = "parking"

    def __init__(self):
        super().__init__(PARKING, PARKING)
