"""Independent brute-force enumerators used as acceptance oracles.

Everything here is deliberately naive.  The counting oracles share no code
with the package paths they check; the two orbit oracles
(`orbit_size`, `coproduct_via_orbit_standard_splits`) reuse the package's
class registry and `is_cut` only to name classes and test cuts, and derive
the class coproduct by orbit averaging instead of from representatives.
The two Fock oracles at the end search every relabeling of every element
(`brute_canonical_form`) and multiply each class pair through the species
product `mu` (`product_via_mu`); neither shares code with the orbit walk
or the one-pass product they check.
"""

import itertools
from math import factorial

from precut.fock import _ClassRegistry
from precut.preorder import is_cut
from precut.species import mu


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
    registry = _ClassRegistry(inst)
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
