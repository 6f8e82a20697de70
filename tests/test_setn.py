import itertools

import pytest

from oracles import identity, is_isomorphism, zero_map
from precut.errors import DimensionMismatch, InvalidStructure, NotPartialMap, NotPromap
from precut.setn import (
    CheckResult,
    FiniteSet,
    Multimap,
    Square,
    check_dual_commutation,
    check_partial_pullback,
    classify,
    compose,
    dual,
    multimap_from_json,
)

AB = FiniteSet(("a", "b"))
C1 = FiniteSet(("c",))


def mm(src, tgt, rows):
    return Multimap(src, tgt, tuple(tuple(r) for r in rows))


def all_matrices(nrows, ncols, maxentry):
    for flat in itertools.product(range(maxentry + 1), repeat=nrows * ncols):
        yield tuple(flat[i * ncols : (i + 1) * ncols] for i in range(nrows))


def test_compose_identity():
    f = identity(AB)
    assert compose(f, f) == f


def test_compose_hand_product():
    f = mm(AB, AB, [[1, 2], [0, 1]])
    g = mm(AB, C1, [[1], [3]])
    assert compose(f, g).coeff == ((7,), (3,))


def test_compose_zero_rows_absorb():
    f = mm(AB, AB, [[0, 0], [1, 1]])
    g = mm(AB, AB, [[2, 3], [4, 5]])
    assert compose(f, g).coeff[0] == (0, 0)


def test_compose_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        compose(mm(AB, C1, [[1], [1]]), mm(AB, AB, [[1, 0], [0, 1]]))


def test_compose_through_empty_set():
    empty = FiniteSet(())
    f = mm(AB, empty, [(), ()])
    g = mm(empty, C1, [])
    assert compose(f, g) == zero_map(AB, C1)


def test_dual_involution_and_transpose():
    f = mm(AB, AB, [[1, 2], [0, 1]])
    assert dual(f).coeff == ((1, 0), (2, 1))
    assert dual(dual(f)) == f


def test_dual_of_bijection_is_inverse():
    labels = FiniteSet((1, 2, 3))
    for perm in itertools.permutations(range(3)):
        f = mm(labels, labels, [[1 if perm[i] == j else 0 for j in range(3)] for i in range(3)])
        assert compose(f, dual(f)) == identity(labels)
        assert compose(dual(f), f) == identity(labels)


def test_classify_cases():
    ident = classify(identity(AB))
    assert ident.flags == {"Ordinary", "Promap", "PartialMap"}
    zero = classify(zero_map(AB, AB))
    assert zero.flags == {"Promap", "PartialMap"}
    wide = classify(mm(FiniteSet(("x",)), AB, [[1, 1]]))
    assert wide.flags == {"Promap"}
    assert classify(mm(AB, AB, [[2, 1], [0, 1]])).general is True
    # naturals force partial maps to be promaps: a row summing to <= 1 has 0/1 entries
    for rows in all_matrices(2, 2, 2):
        c = classify(mm(AB, AB, rows))
        assert not c.partial_map or c.promap
        assert not c.ordinary or (c.partial_map and c.promap)


def test_is_isomorphism():
    labels = FiniteSet((1, 2, 3))
    perm312 = mm(labels, labels, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    assert is_isomorphism(perm312)
    assert not is_isomorphism(mm(AB, AB, [[1, 1], [0, 0]]))


def test_is_isomorphism_matches_dual_inverse_oracle():
    # exhaustive over all 2x2 natural matrices with entries <= 2
    for rows in all_matrices(2, 2, 2):
        f = mm(AB, AB, rows)
        by_def = is_isomorphism(f)
        by_oracle = (
            compose(f, dual(f)) == identity(AB) and compose(dual(f), f) == identity(AB)
        )
        assert by_def == by_oracle, rows


def test_compose_associative_small():
    sets = {1: FiniteSet(("p",)), 2: AB}
    for sx, sy, sz, sw in itertools.product((1, 2), repeat=4):
        X, Y, Z, W = sets[sx], sets[sy], sets[sz], sets[sw]
        for fr in all_matrices(len(X), len(Y), 1):
            f = mm(X, Y, fr)
            for gr in all_matrices(len(Y), len(Z), 1):
                g = mm(Y, Z, gr)
                for hr in all_matrices(len(Z), len(W), 1):
                    h = mm(Z, W, hr)
                    assert compose(compose(f, g), h) == compose(f, compose(g, h))


def test_dual_contravariant():
    f = mm(AB, AB, [[1, 2], [3, 0]])
    g = mm(AB, C1, [[2], [1]])
    assert dual(compose(f, g)) == compose(dual(g), dual(f))


def test_partial_map_composition_closure():
    # promap-after-partial stays promap; partial-after-partial stays partial
    mats = [m for m in all_matrices(2, 2, 1)]
    partials = [m for m in mats if all(sum(r) <= 1 for r in m)]
    for pm in partials:
        f = mm(AB, AB, pm)
        for qm in mats:
            g = mm(AB, AB, qm)
            assert classify(compose(f, g)).promap
        for qm in partials:
            g = mm(AB, AB, qm)
            assert classify(compose(f, g)).partial_map


def square_of_identities(X):
    i = identity(X)
    return Square(i, i, i, i)


def test_dual_commutation_identity_square():
    assert check_dual_commutation(square_of_identities(AB)).ok


def test_dual_commutation_requires_promaps():
    bad = mm(AB, AB, [[2, 0], [0, 1]])
    i = identity(AB)
    with pytest.raises(NotPromap):
        check_dual_commutation(Square(bad, i, i, i))


def test_dual_commutation_perturbed_square_fails_with_witness():
    i = identity(AB)
    delta = mm(AB, AB, [[1, 1], [0, 1]])
    res = check_dual_commutation(Square(i, i, i, delta))
    assert not res.ok and res.witness is not None


def test_dual_commutation_matches_matrix_equation():
    # oracle: compose(gamma, dual(delta)) == compose(dual(alpha), beta)
    promaps = [mm(AB, AB, rows) for rows in all_matrices(2, 2, 1)]
    for alpha, beta, gamma, delta in itertools.product(promaps, repeat=4):
        sq = Square(alpha, beta, gamma, delta)
        want = compose(gamma, dual(delta)) == compose(dual(alpha), beta)
        assert check_dual_commutation(sq).ok == want


def test_partial_pullback_identity_square():
    assert check_partial_pullback(square_of_identities(AB)).ok


def test_partial_pullback_requires_partial_maps():
    bad = mm(AB, AB, [[1, 1], [0, 1]])
    i = identity(AB)
    with pytest.raises(NotPartialMap):
        check_partial_pullback(Square(bad, i, i, i))


def partial_maps(X, Y):
    n, m = len(X), len(Y)
    rows_options = [tuple(0 for _ in range(m))] + [
        tuple(1 if j == k else 0 for j in range(m)) for k in range(m)
    ]
    for rows in itertools.product(rows_options, repeat=n):
        yield mm(X, Y, rows)


def test_partial_pullback_agrees_with_dual_commutation():
    # Acceptance criterion 10: exhaustive over partial-map squares on 2-element sets.
    X = FiniteSet((0, 1))
    for alpha in partial_maps(X, X):
        for beta in partial_maps(X, X):
            for gamma in partial_maps(X, X):
                for delta in partial_maps(X, X):
                    sq = Square(alpha, beta, gamma, delta)
                    want = compose(gamma, dual(delta)) == compose(dual(alpha), beta)
                    assert check_partial_pullback(sq).ok == want


def test_multimap_json_roundtrip():
    f = mm(AB, C1, [[2], [0]])
    assert multimap_from_json(f.to_json()) == f


@pytest.mark.parametrize("entry", [1.7, "2", True])
def test_multimap_refuses_entries_that_are_not_ints(entry):
    # an entry is kept as given, never truncated or parsed into a natural
    with pytest.raises(InvalidStructure):
        Multimap(FiniteSet((1,)), FiniteSet(("a",)), ((entry,),))


def test_check_result_truthiness():
    assert CheckResult(True)
    assert not CheckResult(False, {"w": 1})
