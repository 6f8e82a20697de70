"""The lattice of preorders on a finite labeled set.

Relations are stored as bitmask rows over the sorted ground tuple, so meet is
bitwise AND, join is a Warshall closure of bitwise OR, and the opposite is a
transpose.  Cuts, bubbles and components, restriction, the minimal total
refinement and exhaustive enumeration live here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapExceeded, GroundMismatch, InvalidStructure, NotTotalPreorder, UnknownLabel


def _closed_rows(n, rows):
    """Reflexive-transitive closure of bitmask rows, Warshall style."""
    rows = list(rows)
    for i in range(n):
        rows[i] |= 1 << i
    for k in range(n):
        kbit = 1 << k
        krow = rows[k]
        for i in range(n):
            if rows[i] & kbit:
                rows[i] |= krow
    return tuple(rows)


def _is_transitive(n, rows):
    for i in range(n):
        acc = rows[i]
        row = acc
        for k in range(n):
            if row >> k & 1:
                acc |= rows[k]
        if acc != rows[i]:
            return False
    return True


@dataclass(frozen=True)
class Preorder:
    """Reflexive transitive relation; ground is kept sorted."""

    ground: tuple
    rows: tuple

    def __post_init__(self):
        ground = tuple(self.ground)
        if list(ground) != sorted(ground):
            raise InvalidStructure("ground must be sorted at construction")
        if len(set(ground)) != len(ground):
            raise InvalidStructure("duplicate ground labels")
        n = len(ground)
        full = (1 << n) - 1
        for i, row in enumerate(self.rows):
            if row & ~full:
                raise InvalidStructure("relation bits outside ground")
            if not row >> i & 1:
                raise InvalidStructure("relation not reflexive")
        if not _is_transitive(n, self.rows):
            raise InvalidStructure("relation not transitive")

    @classmethod
    def _valid(cls, ground, rows):
        """Skips the checks: restrictions, relabelings and enumerations are preorders."""
        p = object.__new__(cls)
        object.__setattr__(p, "ground", ground)
        object.__setattr__(p, "rows", rows)
        return p

    # -- basic queries ----------------------------------------------------

    def index(self, x):
        try:
            return self.ground.index(x)
        except ValueError:
            raise UnknownLabel(f"{x!r} not in ground {self.ground!r}") from None

    def lt(self, x, y):
        """Strictly below: comparable but not in the same bubble."""
        i, j = self.index(x), self.index(y)
        return bool(self.rows[i] >> j & 1) and not self.rows[j] >> i & 1

    def same_bubble(self, x, y):
        i, j = self.index(x), self.index(y)
        return bool(self.rows[i] >> j & 1) and bool(self.rows[j] >> i & 1)

    def incomparable(self, x, y):
        i, j = self.index(x), self.index(y)
        return not self.rows[i] >> j & 1 and not self.rows[j] >> i & 1

    def pairs(self):
        """All related pairs (x, y) with x <= y."""
        return [
            (x, y)
            for i, x in enumerate(self.ground)
            for j, y in enumerate(self.ground)
            if self.rows[i] >> j & 1
        ]

    def to_json(self):
        n = len(self.ground)
        return {
            "ground": list(self.ground),
            "rel": [[bool(self.rows[i] >> j & 1) for j in range(n)] for i in range(n)],
        }

    def __le__(self, other):
        """Lattice comparison: self refines-or-equals other entrywise."""
        if self.ground != other.ground:
            raise GroundMismatch(f"{self.ground!r} vs {other.ground!r}")
        return all(r & ~s == 0 for r, s in zip(self.rows, other.rows))


def sorted_labels(labels):
    """The labels as a sorted tuple, refusing unhashable or incomparable ones."""
    try:
        out = tuple(sorted(labels))
        hash(out)
    except TypeError:
        raise InvalidStructure(
            f"labels must be hashable and mutually comparable: {labels!r}"
        ) from None
    return out


def preorder_from_json(data) -> Preorder:
    """Parse {"ground": [labels], "rel": n x n booleans}."""
    if not isinstance(data, dict) or not isinstance(data.get("ground"), list):
        raise InvalidStructure('a preorder is an object with a list "ground"')
    ground = tuple(data["ground"])
    g = sorted_labels(ground)
    n = len(ground)
    rel = data.get("rel")
    square = isinstance(rel, list) and len(rel) == n
    square = square and all(isinstance(row, list) and len(row) == n for row in rel)
    if not (square and all(isinstance(v, bool) for row in rel for v in row)):
        raise InvalidStructure(f'a preorder on {n} labels needs a {n} x {n} list "rel" of booleans')
    order = sorted(range(n), key=lambda i: ground[i])
    rows = tuple(
        sum(1 << j for j, oj in enumerate(order) if rel[oi][oj]) for oi in order
    )
    return Preorder(g, rows)


# -- constructors ---------------------------------------------------------


def closure(ground, pairs) -> Preorder:
    """Smallest preorder on ground containing the given pairs."""
    g = sorted_labels(ground)
    idx = {x: i for i, x in enumerate(g)}
    rows = [0] * len(g)
    for x, y in pairs:
        if x not in g or y not in g:  # compares, so an unhashable label is refused too
            raise UnknownLabel(f"pair ({x!r}, {y!r}) not within ground")
        rows[idx[x]] |= 1 << idx[y]
    return Preorder(g, _closed_rows(len(g), rows))


def discrete(ground) -> Preorder:
    g = tuple(sorted(ground))
    return Preorder(g, tuple(1 << i for i in range(len(g))))


def coarse(ground) -> Preorder:
    g = tuple(sorted(ground))
    full = (1 << len(g)) - 1
    return Preorder(g, tuple(full for _ in g))


def chain(sequence) -> Preorder:
    """Total order with the given sequence increasing left to right."""
    seq = tuple(sequence)
    g = tuple(sorted(seq))
    if len(set(seq)) != len(seq) or set(seq) != set(g):
        raise InvalidStructure("chain sequence must list each ground element once")
    idx = {x: i for i, x in enumerate(g)}
    rows = [0] * len(g)
    for pos, x in enumerate(seq):
        for y in seq[pos:]:
            rows[idx[x]] |= 1 << idx[y]
    return Preorder(g, tuple(rows))


def total_preorder_from_blocks(blocks) -> Preorder:
    """Total preorder whose bubbles are the given blocks, increasing left to right."""
    blocks = [tuple(b) for b in blocks]
    flat = [x for b in blocks for x in b]
    g = tuple(sorted(flat))
    if len(set(flat)) != len(flat):
        raise InvalidStructure("blocks overlap")
    idx = {x: i for i, x in enumerate(g)}
    rows = [0] * len(g)
    for bi, block in enumerate(blocks):
        above = [x for b in blocks[bi:] for x in b]
        for x in block:
            for y in above:
                rows[idx[x]] |= 1 << idx[y]
    return Preorder(g, tuple(rows))


def partition_order(blocks) -> Preorder:
    """Partition order (equivalence relation) with the given blocks."""
    blocks = [tuple(b) for b in blocks]
    flat = [x for b in blocks for x in b]
    g = tuple(sorted(flat))
    if len(set(flat)) != len(flat):
        raise InvalidStructure("blocks overlap")
    idx = {x: i for i, x in enumerate(g)}
    rows = [0] * len(g)
    for block in blocks:
        mask = sum(1 << idx[x] for x in block)
        for x in block:
            rows[idx[x]] = mask
    return Preorder(g, tuple(rows))


# -- lattice operations ---------------------------------------------------


def _check_same_ground(p: Preorder, q: Preorder):
    if p.ground != q.ground:
        raise GroundMismatch(f"{p.ground!r} vs {q.ground!r}")


def meet(p: Preorder, q: Preorder) -> Preorder:
    _check_same_ground(p, q)
    return Preorder(p.ground, tuple(a & b for a, b in zip(p.rows, q.rows)))


def join(p: Preorder, q: Preorder) -> Preorder:
    _check_same_ground(p, q)
    n = len(p.ground)
    return Preorder(p.ground, _closed_rows(n, (a | b for a, b in zip(p.rows, q.rows))))


def opposite(p: Preorder) -> Preorder:
    n = len(p.ground)
    rows = tuple(
        sum(1 << j for j in range(n) if p.rows[j] >> i & 1) for i in range(n)
    )
    return Preorder(p.ground, rows)


# -- bubbles and components ----------------------------------------------


def bubbles(p: Preorder):
    """Mutual-comparability classes, each a frozenset, in sorted order."""
    n = len(p.ground)
    seen = 0
    out = []
    for i in range(n):
        if seen >> i & 1:
            continue
        mask = p.rows[i] & sum(1 << j for j in range(n) if p.rows[j] >> i & 1)
        seen |= mask
        out.append(frozenset(p.ground[j] for j in range(n) if mask >> j & 1))
    return tuple(out)


def total_blocks(p: Preorder):
    """Bubbles of a total preorder, smallest block first.

    Raises NotTotalPreorder when some pair is incomparable.
    """
    if not is_total_preorder(p):
        raise NotTotalPreorder(f"not a total preorder on {p.ground!r}")
    ranked = sorted(
        bubbles(p),
        key=lambda b: -bin(p.rows[p.index(next(iter(b)))]).count("1"),
    )
    return tuple(tuple(sorted(b)) for b in ranked)


def bubble_partition(p: Preorder) -> Preorder:
    """P° = P ∧ P-opposite: the partition order of the bubbles."""
    return meet(p, opposite(p))


def component_partition(p: Preorder) -> Preorder:
    """P• = P ∨ P-opposite: the partition order of the connected components."""
    return join(p, opposite(p))


# -- cuts and restriction -------------------------------------------------


@dataclass(frozen=True)
class Cut:
    down: frozenset
    up: frozenset


def _down_mask_ok(p: Preorder, mask):
    """mask is a down-set iff no row outside it reaches into it."""
    for i, row in enumerate(p.rows):
        if row & mask and not mask >> i & 1:
            return False
    return True


def is_cut(p: Preorder, down) -> bool:
    down = frozenset(down)
    mask = sum(1 << i for i, x in enumerate(p.ground) if x in down)
    if mask.bit_count() != len(down):
        raise UnknownLabel(f"{down!r} not within ground")
    return _down_mask_ok(p, mask)


def cuts(p: Preorder):
    """All cuts, by subset bitmask ascending (so (∅, X) first, (X, ∅) last)."""
    n = len(p.ground)
    ground = frozenset(p.ground)
    out = []
    for mask in range(1 << n):
        if _down_mask_ok(p, mask):
            down = frozenset(p.ground[i] for i in range(n) if mask >> i & 1)
            out.append(Cut(down, ground - down))
    return out


def restrict(p: Preorder, sub) -> Preorder:
    sub = frozenset(sub)
    if not sub <= set(p.ground):
        raise UnknownLabel(f"{sub!r} not within ground")
    keep = [i for i, x in enumerate(p.ground) if x in sub]
    rows = tuple(
        sum(1 << jj for jj, j in enumerate(keep) if p.rows[i] >> j & 1) for i in keep
    )
    return Preorder._valid(tuple(p.ground[i] for i in keep), rows)


def relabel(p: Preorder, mapping) -> Preorder:
    """Image of p under a bijection of labels: the bitmask rows permuted."""
    ground = tuple(sorted(mapping[x] for x in p.ground))
    if len(set(ground)) != len(ground):
        raise InvalidStructure("duplicate ground labels")
    pos = [ground.index(mapping[x]) for x in p.ground]
    rows = [0] * len(ground)
    for i, row in enumerate(p.rows):
        rows[pos[i]] = sum(1 << pj for j, pj in enumerate(pos) if row >> j & 1)
    return Preorder._valid(ground, tuple(rows))


# -- the minimal total refinement -----------------------------------------


def minimal_total_refinement(p: Preorder) -> Preorder:
    """Least total preorder that p refines.

    Its bubbles are the components of the incomparable-or-same-bubble
    relation, which are the closure rows of that symmetric relation.
    Distinct components compare uniformly through p, so adding each
    element's component to its row leaves the relation transitive.
    """
    n = len(p.ground)
    full = (1 << n) - 1
    # x <= y and y <= x agree exactly when x, y are incomparable or one bubble
    comps = _closed_rows(n, [full & ~(r ^ c) for r, c in zip(p.rows, opposite(p).rows)])
    return Preorder(p.ground, tuple(r | c for r, c in zip(p.rows, comps)))


# -- predicates ------------------------------------------------------------


def is_total_preorder(p: Preorder) -> bool:
    n = len(p.ground)
    return all(
        p.rows[i] >> j & 1 or p.rows[j] >> i & 1
        for i in range(n)
        for j in range(i + 1, n)
    )


def is_poset(p: Preorder) -> bool:
    n = len(p.ground)
    return all(
        not (p.rows[i] >> j & 1 and p.rows[j] >> i & 1)
        for i in range(n)
        for j in range(i + 1, n)
    )


def is_total_order(p: Preorder) -> bool:
    return is_total_preorder(p) and is_poset(p)


def is_partition_order(p: Preorder) -> bool:
    return p == opposite(p)


def is_discrete(p: Preorder) -> bool:
    return p == discrete(p.ground)


def is_coarse(p: Preorder) -> bool:
    return p == coarse(p.ground)


# -- enumeration ----------------------------------------------------------

PREORDER_ENUM_CAP = 5


def enumerate_preorders(n):
    """All preorders on ground (1, ..., n), each exactly once.

    Each preorder on 1..k+1 is one on 1..k plus the point k+1 with a down-set
    L below it and an up-set U above it, every element of L below every
    element of U.
    """
    if n > PREORDER_ENUM_CAP:
        raise CapExceeded(f"n={n} above preorder enumeration cap {PREORDER_ENUM_CAP}")
    level = [()]
    for k in range(n):
        new, extended = 1 << k, []
        for rows in level:
            rows_of = [[r for i, r in enumerate(rows) if m >> i & 1] for m in range(new)]
            # nothing outside a down-set lies below it; an up-set holds all above it
            downs = [m for m in range(new) if not any(r & m for r in rows_of[new - 1 - m])]
            ups = [m for m in range(new) if all(r & ~m == 0 for r in rows_of[m])]
            extended += [
                tuple(r | new if low >> i & 1 else r for i, r in enumerate(rows)) + (up | new,)
                for low in downs
                for up in ups
                if all(up & ~r == 0 for r in rows_of[low])
            ]
        level = extended
    ground = tuple(range(1, n + 1))
    for rows in level:
        yield Preorder._valid(ground, rows)

