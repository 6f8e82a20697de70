import dataclasses
import hashlib
import itertools
import json
import os
import shutil
import tracemalloc
from math import factorial

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from precut import cli, fock
from precut.errors import InvalidStructure, NotIntertwined, PrecutError
from precut.fock import (
    _reduced_echelon,
    canonical_form,
    check_isomorphism_by_change_of_basis,
    fock_tables,
    graded_dimensions,
    table_from_json,
    verify_hopf_axioms,
)
from precut.instances import build_instance, build_preset
from precut.instances.colored import ColoredSets
from precut.instances.perm import PermPairs, word_of
from precut.preorder import chain
from precut.species import ClassRegistry, check_species_over_preorders

from oracles import (
    SHIPPED_TABLES,
    CachedClassRegistry,
    brute_canonical_form,
    brute_check_natural,
    brute_verify_hopf_axioms,
    check_isomorphism_by_constants,
    coproduct_via_orbit_standard_splits,
    dense_solve_affine,
    graded_dual,
    labeled_product,
    pair_from_word,
    product_via_mu,
    weak_order_zeta,
)


@pytest.fixture(scope="module")
def perm_f():
    return build_instance("perm_f")


@pytest.fixture(scope="module")
def table_f3(perm_f):
    return fock_tables(perm_f, 1, 2, 3)


def cid_of_word(inst, table, word):
    rep, _ = canonical_form(inst, pair_from_word(word))
    key = inst.serialize(rep)
    return next(c.cid for c in table.classes if c.key == key)


def test_canonical_form_constancy(perm_f):
    s = pair_from_word((2, 3, 1))
    rep, witness = canonical_form(perm_f, s)
    assert perm_f.relabel(s, witness) == rep
    for image in itertools.permutations((1, 2, 3)):
        mapping = dict(zip((1, 2, 3), image))
        rep2, _ = canonical_form(perm_f, perm_f.relabel(s, mapping))
        assert rep2 == rep


def test_canonical_form_counts(perm_f):
    keys = {perm_f.serialize(canonical_form(perm_f, s)[0]) for s in perm_f.elements((1, 2, 3))}
    assert len(keys) == 6


@pytest.mark.parametrize(
    "name, nmax",
    [(name, 3) for name in dict.fromkeys(t[0] for t in SHIPPED_TABLES)] + [("perm_f", 4)],
)
def test_canonical_form_matches_brute_force(name, nmax):
    # elements off 1..n as well as on it, so that walks start from both
    inst = build_instance(name)
    for n in range(nmax + 1):
        for ground in ((2, 3, 5, 8)[:n], tuple(range(1, n + 1))):
            for s in inst.elements(ground):
                rep, witness = canonical_form(inst, s)
                assert rep == brute_canonical_form(inst, s)[0]
                assert inst.relabel(s, witness) == rep


SHIPPED_NAMES = list(dict.fromkeys(t[0] for t in SHIPPED_TABLES))


@pytest.mark.parametrize("name", SHIPPED_NAMES)
@pytest.mark.parametrize("which_delta, which_mu", [(1, 2), (2, 1)])
def test_product_matches_class_pair_products_through_mu(name, which_delta, which_mu):
    inst = build_instance(name)
    table = fock_tables(inst, which_delta, which_mu, 3)
    assert table.product == product_via_mu(inst, which_mu, table)


@pytest.fixture(scope="module")
def parking4():
    # forced, since parking's precondition at n=4 alone takes about 19 s; it
    # is pinned at n <= 3, and a forced table is the same table
    return fock_tables(build_instance("parking"), 1, 2, 4, verify="force")


@pytest.mark.parametrize("name", ["perm_f", "perm_m", "graphs", "posets", "packed_words", "parking"])
def test_product_matches_class_pair_products_through_mu_at_degree_4(name, parking4):
    # forced like parking4: a forced table is the same table
    inst = build_instance(name)
    table = parking4 if name == "parking" else fock_tables(inst, 1, 2, 4, verify="force")
    assert table.product == product_via_mu(inst, 2, table)


def test_parking_pairs_hopf_algebra_at_degree_4(parking4):
    # the paper's result (ii)
    assert parking4.dims() == [1, 1, 5, 51, 819]
    assert verify_hopf_axioms(parking4).passed


def test_perm_dims(table_f3):
    assert table_f3.dims() == [1, 1, 2, 6]


def test_coproduct_is_deconcatenation(perm_f, table_f3):
    c = cid_of_word(perm_f, table_f3, (2, 1, 3))
    names = {
        cl.cid: ("1" if cl.degree == 0 else "".join(map(str, word_of(cl.rep))))
        for cl in table_f3.classes
    }
    got = {(names[x], names[y]): v for (x, y), v in table_f3.coproduct[c].items()}
    assert got == {
        ("1", "213"): 1,
        ("1", "12"): 1,
        ("21", "1"): 1,
        ("213", "1"): 1,
    }


def test_product_is_shifted_shuffle(perm_f, table_f3):
    a = cid_of_word(perm_f, table_f3, (1,))
    out = table_f3.product[(a, a)]
    assert sorted(out.values()) == [1, 1]  # 12 and 21, coefficient 1 each


def test_hopf_axioms_pass(table_f3):
    assert verify_hopf_axioms(table_f3).passed


def test_corrupted_table_fails():
    inst = build_instance("colored", palette=1)
    table = fock_tables(inst, 1, 2, 3)
    assert verify_hopf_axioms(table).passed
    a = next(c.cid for c in table.classes if c.degree == 1)
    bad = dict(table.product)
    bumped = dict(bad[(a, a)])
    bumped[next(iter(bumped))] += 1
    bad[(a, a)] = bumped
    table.product = bad
    r = verify_hopf_axioms(table)
    assert not r.passed


def test_polynomial_hopf_structure():
    # one variable: binomial coproduct against unit product coefficients
    inst = build_instance("colored", palette=1)
    table = fock_tables(inst, 1, 2, 4)
    assert table.dims() == [1, 1, 1, 1, 1]
    by_degree = {c.degree: c.cid for c in table.classes}
    cop = table.coproduct[by_degree[4]]
    got = {
        (next(c.degree for c in table.classes if c.cid == x),
         next(c.degree for c in table.classes if c.cid == y)): v
        for (x, y), v in cop.items()
    }
    assert got == {(0, 4): 1, (1, 3): 4, (2, 2): 6, (3, 1): 4, (4, 0): 1}
    assert table.product[(by_degree[2], by_degree[2])] == {by_degree[4]: 1}


def test_orbit_standard_split_oracle_agrees(perm_f):
    table = fock_tables(perm_f, 1, 2, 4)
    for cls in table.classes:
        assert coproduct_via_orbit_standard_splits(perm_f, 1, cls) == table.coproduct[cls.cid]


@pytest.mark.parametrize(
    "name",
    [
        "graphs",
        "colored",
        "tensor",
        "posets",
        "preorders",
        "parking",
        "packed_words",
        "perm_m",
        "perm_m/213",
        "parking/nondecreasing-parking",
    ],
)
def test_orbit_standard_split_oracle_per_shipped_instance(name):
    inst = build_instance(name)
    table = fock_tables(inst, 1, 2, 3)
    for cls in table.classes:
        assert coproduct_via_orbit_standard_splits(inst, 1, cls) == table.coproduct[cls.cid]


def test_coproduct_representative_independent(perm_f, table_f3):
    # any labeled representative yields the same class coproduct
    from precut.species import delta

    registry_classes = {c.cid: c for c in table_f3.classes}
    for cls in table_f3.classes:
        if cls.degree != 3:
            continue
        for image in itertools.permutations((1, 2, 3)):
            s = perm_f.relabel(cls.rep, dict(zip((1, 2, 3), image)))
            acc = {}
            for r in range(4):
                for sub in itertools.combinations((1, 2, 3), r):
                    down = frozenset(sub)
                    d = delta(perm_f, 1, s, down, frozenset((1, 2, 3)) - down)
                    if d is None:
                        continue
                    left, _ = canonical_form(perm_f, d[0])
                    right, _ = canonical_form(perm_f, d[1])
                    key = (perm_f.serialize(left), perm_f.serialize(right))
                    acc[key] = acc.get(key, 0) + 1
            want = {
                (registry_classes[x].key, registry_classes[y].key): v
                for (x, y), v in table_f3.coproduct[cls.cid].items()
            }
            assert acc == want


def test_graded_dual_involution(table_f3):
    d = graded_dual(table_f3)
    dd = graded_dual(d)
    assert dd.product == table_f3.product
    assert dd.coproduct == {k: v for k, v in table_f3.coproduct.items()}
    assert verify_hopf_axioms(d).passed


def test_dual_of_deconcatenation_is_meet_side(perm_f, table_f3):
    # transposing the (delta1, mu2) table gives the (delta2, mu1) table
    other = fock_tables(perm_f, 2, 1, 3)
    d = graded_dual(table_f3)
    assert d.product == other.product
    assert {k: v for k, v in d.coproduct.items()} == other.coproduct


def test_isomorphism_by_constants_identity(table_f3):
    out = check_isomorphism_by_constants(table_f3, table_f3)
    assert out is not None
    assert all(k == v for k, v in out.items())


def test_isomorphism_finds_class_relabeling(table_f3):
    # a copy with renamed class ids is matched by the renaming itself
    from dataclasses import replace

    rename = {c.cid: "x" + c.cid for c in table_f3.classes}
    from precut.fock import StructureConstantTable

    copy = StructureConstantTable(
        table_f3.instance,
        table_f3.which_delta,
        table_f3.which_mu,
        table_f3.N,
        tuple(replace(c, cid=rename[c.cid]) for c in table_f3.classes),
        {
            (rename[a], rename[b]): {rename[c]: v for c, v in out.items()}
            for (a, b), out in table_f3.product.items()
        },
        {
            rename[a]: {(rename[x], rename[y]): v for (x, y), v in cop.items()}
            for a, cop in table_f3.coproduct.items()
        },
    )
    out = check_isomorphism_by_constants(table_f3, copy)
    assert out == rename


def test_isomorphism_refuses_one_changed_product_constant(perm_f, table_f3):
    # a product of two distinct classes is in no fingerprint and in no
    # coproduct, so only the check of each completed degree sees the change
    a, b = cid_of_word(perm_f, table_f3, (1,)), cid_of_word(perm_f, table_f3, (2, 1))
    product = {key: dict(out) for key, out in table_f3.product.items()}
    c = min(product[(a, b)])
    product[(a, b)][c] += 1
    copy = dataclasses.replace(table_f3, product=product)
    assert check_isomorphism_by_constants(table_f3, copy) is None


def test_isomorphism_dimension_mismatch(table_f3):
    colored = fock_tables(build_instance("colored", palette=1), 1, 2, 2)
    assert check_isomorphism_by_constants(table_f3, colored, 2) is None


def test_f_to_m_change_of_basis(perm_f, table_f3):
    m = build_instance("perm_m")
    tm = fock_tables(m, 1, 2, 3)
    assert check_isomorphism_by_constants(table_f3, tm) is None

    def inversions(c):
        if c.degree == 0:
            return 0
        w = word_of(c.rep)
        return sum(
            1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j]
        )

    trans = check_isomorphism_by_change_of_basis(
        table_f3, tm, order_key=lambda c: (inversions(c), c.key)
    )
    assert trans is not None
    for n, mat in trans.items():
        for i, row in enumerate(mat):
            assert row[i] == 1
            assert all(v in (0, 1) for v in row)
            assert all(v == 0 for v in row[:i])


def inversion_order(c):
    """Criterion 9's order on permutation classes: (inversions, key)."""
    w = word_of(c.rep) if c.degree else ()
    return sum(1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j]), c.key


@pytest.fixture(scope="module")
def tables_fm4(perm_f):
    return fock_tables(perm_f, 1, 2, 4), fock_tables(build_instance("perm_m"), 1, 2, 4)


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_f_to_m_transition_is_weak_order_zeta(tables_fm4, N):
    # inversion sets compared by position; compared by value, the two sets
    # of a pair of words disagree from degree 3 on
    tf, tm = tables_fm4
    trans = check_isomorphism_by_change_of_basis(tf, tm, N, order_key=inversion_order)
    assert trans == {n: weak_order_zeta(tf, tm, n, inversion_order) for n in range(N + 1)}


def zeta_transition(tf, tm, N):
    """The weak-order zeta matrices of degrees <= N as a map of class ids."""
    phi = {}
    for n in range(N + 1):
        sources = sorted((c for c in tf.classes if c.degree == n), key=inversion_order)
        targets = sorted((c for c in tm.classes if c.degree == n), key=inversion_order)
        for a, row in zip(sources, weak_order_zeta(tf, tm, n, inversion_order)):
            phi[a.cid] = {b.cid: v for b, v in zip(targets, row) if v}
    return phi


@pytest.fixture(scope="module")
def tables_fm5(perm_f):
    return fock_tables(perm_f, 1, 2, 5), fock_tables(build_instance("perm_m"), 1, 2, 5)


def test_weak_order_zeta_is_a_transition_at_n5(tables_fm5):
    # the solver's free unknowns at 0 pick another member of the same family
    tf, tm = tables_fm5
    phi = zeta_transition(tf, tm, 5)
    assert fock._verify_transition(tf, tm, phi, 5)
    # the substitution check is not vacuous: drop one term of one row
    a = next(c.cid for c in tf.classes if len(phi[c.cid]) > 1)
    broken = {**phi, a: dict(list(phi[a].items())[:-1])}
    assert not fock._verify_transition(tf, tm, broken, 5)


def test_f_to_m_free_unknowns(monkeypatch, tables_fm5):
    # the dimension of the family of transitions: the unknowns above the
    # diagonal that no pivot of the reduced echelon form fixes
    pivots = []

    def counting(equations):
        echelon = _reduced_echelon(equations)
        pivots.append(len(echelon))
        return echelon

    monkeypatch.setattr(fock, "_reduced_echelon", counting)
    assert check_isomorphism_by_change_of_basis(*tables_fm5, 5, order_key=inversion_order) is not None
    unknowns = [factorial(n) * (factorial(n) - 1) // 2 for n in range(6)]
    assert unknowns[4:] == [276, 7140]
    assert [u - p for u, p in zip(unknowns, pivots)][4:] == [6, 538]


def as_equations(rows):
    """Dense rows [coeffs | rhs] as affine forms {var: coeff, None: -rhs}."""
    return [{**dict(enumerate(row[:-1])), None: -row[-1]} for row in rows]


def as_dense_rows(echelon, nvars):
    return [
        [echelon[p].get(v, 0) for v in range(nvars)] + [-echelon[p].get(None, 0)]
        for p in sorted(echelon)
    ]


@settings(max_examples=400, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda nvars: st.tuples(
            st.just(nvars),
            st.lists(
                st.lists(st.integers(-2, 2), min_size=nvars + 1, max_size=nvars + 1),
                max_size=8,
            ),
        )
    )
)
def test_reduced_echelon_matches_dense_sweep(system):
    nvars, rows = system
    dense = dense_solve_affine(rows, nvars)
    echelon = _reduced_echelon(as_equations(rows))
    if dense is None:
        assert echelon is None
        return
    pivots, reduced = dense
    assert sorted(echelon) == pivots
    assert as_dense_rows(echelon, nvars) == reduced


def test_reduced_echelon_leaves_free_unknown():
    # x1 + x2 = 1, then x0 + x1 = 2: the second row takes x0 as pivot after
    # x1 is eliminated, and x2 stays free in both rows
    rows = [[0, 1, 1, 1], [1, 1, 0, 2]]
    echelon = _reduced_echelon(as_equations(rows))
    assert echelon == {0: {0: 1, 2: -1, None: -1}, 1: {1: 1, 2: 1, None: -1}}
    assert dense_solve_affine(rows, 3) == ([0, 1], as_dense_rows(echelon, 3))


@pytest.mark.parametrize("kind", ["cc", "nc", "nn"])
def test_axioms_match_unbounded_oracle_on_forced_tables(kind):
    table = fock_tables(build_instance(kind), 1, 2, 3, verify="force")
    got = verify_hopf_axioms(table)
    assert got.stage == "Compatibility"
    assert got.to_json() == brute_verify_hopf_axioms(table).to_json()


def test_axioms_match_unbounded_oracle_on_bumped_product(table_f3):
    a = next(c.cid for c in table_f3.classes if c.degree == 1)
    bumped = dict(table_f3.product[(a, a)])
    bumped[next(iter(bumped))] += 1
    bad = dataclasses.replace(table_f3, product={**table_f3.product, (a, a): bumped})
    got = verify_hopf_axioms(bad)
    assert got.stage == "Associativity"
    assert got.to_json() == brute_verify_hopf_axioms(bad).to_json()


def test_catalan_dimensions():
    inst = build_preset("213")
    assert graded_dimensions(inst, 4) == [1, 1, 2, 5, 14]


def test_divided_powers_dimensions():
    inst = build_preset("12")
    assert graded_dimensions(inst, 4) == [1, 1, 1, 1, 1]


def test_graph_class_dimensions():
    assert graded_dimensions(build_instance("graphs"), 4) == [1, 1, 2, 4, 11]


def test_fock_refuses_non_intertwined():
    with pytest.raises(NotIntertwined):
        fock_tables(build_instance("broken_dc"), 1, 2, 2)
    with pytest.raises(NotIntertwined):
        fock_tables(build_instance("cc"), 1, 2, 3)


def test_force_builds_anyway_and_axioms_fail():
    # negative-control escape hatch: the cc table exists under force and the
    # algebra-level verification pinpoints the compatibility failure
    table = fock_tables(build_instance("cc"), 1, 2, 3, verify="force")
    r = verify_hopf_axioms(table)
    assert not r.passed and r.stage == "Compatibility"


def test_table_json_roundtrip(table_f3, tmp_path):
    data = table_f3.to_json()
    loaded = table_from_json(json.loads(json.dumps(data)))
    assert loaded.to_json() == data


def test_table_cache_roundtrip(tmp_path, perm_f):
    fresh = fock_tables(perm_f, 1, 2, 2, cache_dir=str(tmp_path))
    cached = fock_tables(perm_f, 1, 2, 2, cache_dir=str(tmp_path))
    assert cached.to_json() == fresh.to_json()
    assert len(list(tmp_path.iterdir())) == 1


def test_intertwining_verdict_is_per_instance(tmp_path):
    # a failing instance that borrows a passing instance's name is still
    # refused, and the passing instance's cached table is not served to it
    good = build_instance("colored")
    bad = build_instance("broken_dc")
    bad.name = good.name
    fock_tables(good, 1, 2, 2, cache_dir=str(tmp_path))
    with pytest.raises(NotIntertwined):
        fock_tables(bad, 1, 2, 2)
    with pytest.raises(NotIntertwined):
        fock_tables(bad, 1, 2, 2, cache_dir=str(tmp_path))
    assert len(list(tmp_path.iterdir())) == 1


def test_cache_hit_skips_the_precondition(tmp_path, monkeypatch):
    cold = fock_tables(build_instance("perm_f"), 1, 2, 3, cache_dir=str(tmp_path))

    def refuse(inst, nmax):
        raise AssertionError("a cache hit re-ran the intertwining check")

    # a fresh instance has no in-memory verdict, so only the cache can answer
    monkeypatch.setattr(fock, "check_intertwined", refuse)
    warm = fock_tables(build_instance("perm_f"), 1, 2, 3, cache_dir=str(tmp_path))
    assert warm.to_json() == cold.to_json()


def test_cache_key_follows_package_sources(tmp_path, monkeypatch, perm_f):
    cache = tmp_path / "cache"
    fock_tables(perm_f, 1, 2, 2, cache_dir=str(cache))
    current = fock._source_digest()
    # an identical copy of the sources hashes the same; one edit changes it
    copy = tmp_path / "precut"
    shutil.copytree(
        os.path.dirname(fock.__file__), copy, ignore=shutil.ignore_patterns("__pycache__")
    )
    monkeypatch.setattr(fock, "__file__", str(copy / "fock.py"))
    digest = fock._source_digest.__wrapped__
    assert digest() == current
    with open(copy / "instances" / "perm.py", "a") as fh:
        fh.write("# edited\n")
    edited = digest()
    assert edited != current
    # tables cached by the old sources are not served to the edited ones
    monkeypatch.setattr(fock, "_source_digest", lambda: edited)
    fock_tables(perm_f, 1, 2, 2, cache_dir=str(cache))
    assert len(list(cache.iterdir())) == 2


@pytest.mark.parametrize(
    "content",
    [b"garbage", b"\xff\xfe", b"[]", b'{"instance": "perm_f"}', "other_request"],
    ids=["not_json", "not_utf8", "not_a_table", "missing_fields", "other_request"],
)
def test_broken_cache_file_is_a_miss_and_overwritten(tmp_path, perm_f, content):
    fresh = fock_tables(perm_f, 1, 2, 2, cache_dir=str(tmp_path))
    (path,) = tmp_path.iterdir()
    if content == "other_request":
        content = json.dumps(fock_tables(perm_f, 1, 2, 1).to_json()).encode()
    path.write_bytes(content)
    again = fock_tables(perm_f, 1, 2, 2, cache_dir=str(tmp_path))
    assert again.to_json() == fresh.to_json()
    assert json.loads(path.read_text()) == fresh.to_json()


# -- the class registry against the per-element cache it replaced ----------


def classes_upto(registry, N):
    return [c for n in range(N + 1) for c in registry.classes_of_degree(n)]


# SHA-256 of json.dumps(table.to_json(), sort_keys=True) for each table below,
# so that a refactor which keeps both registries in step still cannot move a
# byte of the published table
TABLE_DIGESTS = {
    ("perm_f", 1, 2, 4): "431da2ec082be5345c95dee3b2cbfaf00c7e22674792438ed7c33dad9cf1a241",
    ("perm_m", 1, 2, 4): "a850755fd8a2fa1edad34173e7f752e9f48ccc7909a283bc2db29b5d5ce6895b",
    ("colored", 1, 2, 3): "8429502993a9eeeb0a703c6dab247a94781bd5bc81f49db2063b6f8eaa7efcf2",
    ("tensor", 1, 2, 3): "539273a07e58b5978967f68d2dc1ef3210a85158b557ff9b5a6f85208600d6c5",
    ("graphs", 1, 2, 3): "e5d1079671785d146e87ec105309b3bcbca6dd943f38a217113443b6558dfb74",
    ("posets", 1, 2, 3): "7e8081ad741bc7d76c205aa8e0918e95489fa4138d558260e771265aecec6c64",
    ("preorders", 1, 2, 3): "81d962677b0af96da94867858429b16dbf22933236e0929791bfeeeb920ac452",
    ("parking", 1, 2, 3): "1e6be1402c780c70e9bc1218f6f43202eb1cac8f0c910c5b821d87329e7b9e35",
    ("packed_words", 1, 2, 3): "0474f32349ca57a3279032cb649927b6bc25aa4e0e9cc62b83b8435cd7f3acdc",
    ("perm_m/213", 1, 2, 3): "089b5fb11968872297eadfd075010e2520426a87b6c26ac23520841d39f0c1e3",
    ("perm_m/132+213", 1, 2, 3): "f655328d091bf881867481a225598b8c73dbb6c397661f29c2549fd0ec591351",
    ("perm_m/12", 1, 2, 3): "c563cf7d45d2afbfbb436b81beea802fa9be1d46e66d2e0cea121321c0182a88",
    ("perm_m/3142+2413", 1, 2, 3): "9c06317198d731a983b76011614c3409f01b1617c0339e4efdf6ea43adc11965",
    ("posets/cherry", 1, 2, 3): "a10f9d43ad6b9464ed7a866c14a8c73621c8f10d5784ca0ff8fd8aeb527b0736",
    ("posets/cherry+V", 1, 2, 3): "56f99cd180d5f6bfb24d1254afae50266e62fe1dfd6e3d611e316741929ad09c",
    ("parking/nondecreasing-parking", 1, 2, 3): "bc89c57ceb5f74e4e7fbe7f1972e0712543229d778aaff5e7d888f27ade0627a",
    ("perm_f", 1, 2, 5): "b7e4f8b0f63dfc77d12b8d2ee52fdea8be33e9a534797974bad9cec352a058f2",
    ("perm_m", 1, 2, 5): "bdc8707d132db4830c0769265db50d6bb64e7d443007d0d13f0890200d56df44",
    ("cc", 1, 2, 3): "5b14a6079a4dd19bd6270218a9b7b98b56582f12f79ba099d0905e3748a02e54",
    ("nc", 1, 2, 3): "dee71590a340bf346e5214cc80f974f78e477946fcadaf8190b5ec05c2470934",
    ("nn", 1, 2, 3): "8785e7c4d5f5a87ca1fd496599d4bd012ac4fb70510b5230f14fe5ed88a6e503",
    ("broken_dc", 1, 2, 3): "2432c7a21d5d76fe3ef65d1b688f93780c19d519d78fa0949e798590a21a069e",
    ("broken_monotone", 1, 2, 3): "335390eca7459ddf033f2c72954663cd06e3b413cf3fc4ca7263fe2b32c38f5e",
}


@pytest.mark.parametrize(
    "name, which_delta, which_mu, N",
    list(SHIPPED_TABLES)
    + [("perm_f", 1, 2, 5), ("perm_m", 1, 2, 5)]
    + [(kind, 1, 2, 3) for kind in ("cc", "nc", "nn", "broken_dc", "broken_monotone", "broken_cut")],
)
def test_registry_matches_cached_oracle(monkeypatch, name, which_delta, which_mu, N):
    # forced, so that the controls build too; a forced table is the same
    # table.  The product is pinned against the labeled pass as well.
    monkeypatch.delenv("PRECUT_CACHE_DIR", raising=False)
    registries = ClassRegistry, CachedClassRegistry
    new, old = (registry(build_instance(name)) for registry in registries)
    classes = classes_upto(new, N)
    assert classes == classes_upto(old, N)
    assert [new.orbit_size(c) for c in classes] == [old.orbit_size(c) for c in classes]

    def build(registry):
        monkeypatch.setattr(fock, "ClassRegistry", registry)
        return fock_tables(build_instance(name), which_delta, which_mu, N, verify="force")

    if name == "broken_cut":
        # pi2 is the label chain, which relabeling does not carry along: its
        # products depend on the representative, and both registries refuse
        for registry in registries:
            with pytest.raises(InvalidStructure, match="pi2 is not natural"):
                build(registry)
        return
    table = build(registries[0])
    labeled = dataclasses.replace(table, product=labeled_product(build_instance(name), which_mu, table))
    got = [json.dumps(t.to_json(), sort_keys=True) for t in (table, build(registries[1]), labeled)]
    assert got[0] == got[1] == got[2]
    assert hashlib.sha256(got[0].encode()).hexdigest() == TABLE_DIGESTS[name, which_delta, which_mu, N]


@pytest.mark.parametrize("name, n, classes", [("perm_f", 4, 24), ("parking", 3, 51)])
def test_degree_build_walks_each_orbit_once(monkeypatch, name, n, classes):
    inst = build_instance(name)
    inst.elements(tuple(range(1, n + 1)))
    calls = []
    relabel = inst.relabel
    monkeypatch.setattr(inst, "relabel", lambda s, mapping: calls.append(s) or relabel(s, mapping))
    registry = ClassRegistry(inst)
    assert len(registry.classes_of_degree(n)) == classes
    assert len(calls) == classes * factorial(n)
    registry.classes_of_degree(n)  # built once
    assert len(calls) == classes * factorial(n)


def test_registry_keeps_no_orbit_copies():
    # the per-element cache it replaced peaked at 16.7 MB here
    inst = build_instance("parking")
    inst.elements((1, 2, 3, 4))
    tracemalloc.start()
    try:
        classes = ClassRegistry(inst).classes_of_degree(4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(classes) == 819
    assert peak < 6_000_000


class SortedFirstPairs(PermPairs):
    """Pairs whose first order is increasing: closed under restriction, but
    a relabeling can leave the enumeration."""

    def _elements(self, ground):
        return [s for s in super()._elements(ground) if list(s.t1) == sorted(s.t1)]


class NoDegreeOnePairs(PermPairs):
    """Pairs on every ground but a single point: relabeling stays inside,
    restriction to a point leaves the enumeration."""

    def _elements(self, ground):
        return [] if len(ground) == 1 else super()._elements(ground)


def test_relabeling_off_the_enumeration_is_refused(monkeypatch):
    with pytest.raises(PrecutError, match="leaves degree 2"):
        graded_dimensions(SortedFirstPairs(), 2)
    with pytest.raises(PrecutError, match="leaves degree 2"):
        fock_tables(SortedFirstPairs(), 1, 2, 2, verify="force")
    monkeypatch.setattr(cli, "build_instance", lambda name, **params: SortedFirstPairs())
    assert cli.main(["enum", "--instance", "perm_f", "--n", "2", "--classes"]) == 2


def test_restriction_off_the_enumeration_is_refused():
    assert graded_dimensions(NoDegreeOnePairs(), 2) == [1, 0, 2]
    with pytest.raises(PrecutError, match="not an element of degree 1"):
        fock_tables(NoDegreeOnePairs(), 1, 2, 2, verify="force")


# -- naturality, which the product read off representatives rests on -------


@pytest.mark.parametrize(
    "name, nmax",
    [(name, 3) for name in SHIPPED_NAMES + ["cc", "nc", "nn", "broken_dc", "broken_monotone"]]
    + [("perm_f", 4), ("perm_m", 4)],
)
def test_instances_are_natural(name, nmax):
    assert brute_check_natural(build_instance(name), nmax).passed


class LabelChainColorings(ColoredSets):
    """Colorings whose second projection is the chain of the labels in
    order: monotone and exact on cut sides, but not natural."""

    def pi2(self, s):
        return chain(sorted(self.ground_of(s)))


def test_projection_that_is_not_natural():
    assert brute_check_natural(build_instance("broken_cut"), 3).stage == "Pi2"
    inst = LabelChainColorings()
    assert check_species_over_preorders(inst, 4).passed
    assert brute_check_natural(inst, 2).stage == "Pi2"
    with pytest.raises(InvalidStructure, match="through pi2"):
        fock_tables(inst, 1, 2, 3, verify="force")
