import functools
import itertools
import os
import subprocess
import sys

import pytest

import oracles
from oracles import (
    SHIPPED_TABLES,
    brute_check_bimonoid,
    brute_check_intertwined,
    brute_check_species,
    pair_from_word,
    unit_of,
    walked,
)
from precut import fock, species
from precut.errors import BadDecomposition, InvalidStructure, PrecutError
from precut.instances import build_instance
from precut.instances.colored import ColoredSets
from precut.instances.hadamard import Hadamard
from precut.instances.perm import PermPairs
from precut.preorder import chain, is_cut
from precut.species import (
    VerificationReport,
    check_bimonoid,
    check_intertwined,
    check_species_over_preorders,
    delta,
    mu,
)


def F(word):
    return pair_from_word(word)


def test_delta_trivial_cut_gives_unit_side():
    inst = build_instance("perm_f")
    s = F((3, 1, 2, 4))
    unit = unit_of(inst)
    assert delta(inst, 1, s, frozenset({1, 2, 3, 4}), frozenset()) == (s, unit)
    assert delta(inst, 1, s, frozenset(), frozenset({1, 2, 3, 4})) == (unit, s)


def test_delta_mr_deconcatenation_prefix():
    # word 3124 split after the first two positions of the first order
    inst = build_instance("perm_f")
    s = F((3, 1, 2, 4))
    out = delta(inst, 1, s, frozenset({1, 2}), frozenset({3, 4}))
    assert out is not None
    left, right = out
    from precut.instances.perm import word_of

    assert word_of(left) == (2, 1)
    assert word_of(right) == (1, 2)


def test_delta_zero_when_not_cut():
    inst = build_instance("perm_f")
    s = F((3, 1, 2, 4))
    # {2, 3} is not a prefix of the first order
    assert delta(inst, 1, s, frozenset({2, 3}), frozenset({1, 4})) is None


def test_delta_bad_decomposition():
    inst = build_instance("perm_f")
    s = F((2, 1))
    with pytest.raises(BadDecomposition):
        delta(inst, 1, s, frozenset({1}), frozenset({1, 2}))


def test_mu_unit_law():
    inst = build_instance("perm_f")
    s = F((2, 1, 3))
    assert mu(inst, 2, unit_of(inst), s) == (s,)
    assert mu(inst, 2, s, unit_of(inst)) == (s,)


def test_mu_mr_shifted_shuffles_count():
    inst = build_instance("perm_f")
    u = pair_from_word((1, 2), ground=(1, 2))
    v = pair_from_word((3, 1, 2), ground=(3, 4, 5))
    out = mu(inst, 2, u, v)
    assert len(out) == 10


def test_mu_delta_round_trip():
    inst = build_instance("graphs")
    A, B = frozenset({1, 2}), frozenset({3})
    for u in inst.elements(A):
        for v in inst.elements(B):
            for which in (1, 2):
                for s in mu(inst, which, u, v):
                    assert delta(inst, which, s, A, B) == (u, v)
    for s in inst.elements(A | B):
        for which in (1, 2):
            d = delta(inst, which, s, A, B)
            if d is not None:
                assert s in mu(inst, which, *d)


def test_perm_m_mu_on_singletons_matches_filter():
    inst = build_instance("perm_m")
    u = inst.elements((1,))[0]
    v = inst.elements((2,))[0]
    out = mu(inst, 2, u, v)
    want = [
        s
        for s in inst.elements((1, 2))
        if delta(inst, 2, s, frozenset({1}), frozenset({2})) == (u, v)
    ]
    assert sorted(out, key=inst.serialize) == sorted(want, key=inst.serialize)


@pytest.mark.parametrize(
    "name", ["colored", "tensor", "graphs", "posets", "preorders", "perm_f", "perm_m"]
)
def test_species_over_preorders_passes(name):
    assert check_species_over_preorders(build_instance(name), 3).passed


def test_graphs_strict_monotonicity_occurs():
    # removing a vertex can disconnect: the projection strictly refines
    inst = build_instance("graphs")
    from precut.preorder import restrict as rp

    found = False
    for s in inst.elements((1, 2, 3)):
        for sub in ({1, 2}, {1, 3}, {2, 3}):
            inner = inst.pi2(inst.restrict(s, frozenset(sub)))
            outer = rp(inst.pi2(s), frozenset(sub))
            assert inner <= outer
            if inner != outer:
                found = True
    assert found


def test_broken_controls_fail_where_expected():
    assert check_species_over_preorders(build_instance("broken_dc"), 3).passed
    mono = check_species_over_preorders(build_instance("broken_monotone"), 3)
    assert not mono.passed and mono.stage == "ProjectionMonotonicity"
    cut = check_species_over_preorders(build_instance("broken_cut"), 3)
    assert not cut.passed and cut.stage == "CutEquality"


def test_broken_dc_fails_intertwined_with_cut_witness():
    r = check_intertwined(build_instance("broken_dc"), 2)
    assert not r.passed and r.stage == "ExtensionUniqueness"
    assert r.witness["completions"] == 0
    # the glued element exists but the second projection misses the cut
    misses = r.witness["near_misses"]
    assert misses and not misses[0]["cut_for_pi2"]


@pytest.mark.parametrize("name", ["colored", "graphs", "perm_f", "perm_m", "packed_words"])
def test_intertwined_small(name):
    assert check_intertwined(build_instance(name), 3).passed


@pytest.mark.parametrize("kind", ["cc", "nc", "nn"])
def test_master_pair_species_fail_intertwining_at_three(kind):
    # All-pairs membership admits corner data whose relation closure
    # contradicts the comparison postulates; see the nn example in
    # test_pairs.test_nn_compatibility_counterexample.
    r = check_intertwined(build_instance(kind), 3)
    assert not r.passed
    assert r.stage == "ExtensionUniqueness"
    assert r.witness["completions"] == 0


@pytest.mark.parametrize("name,index", [("graphs", 1), ("graphs", 2), ("perm_f", 1), ("tensor", 1)])
def test_bimonoid_small(name, index):
    assert check_bimonoid(build_instance(name), index, 3).passed


def test_bimonoid_negative_control():
    r = check_bimonoid(build_instance("broken_dc"), 1, 2)
    assert not r.passed and r.stage == "Compatibility"


def test_mu_associativity_as_multisets():
    # direct dual-side check, complementing the coassociativity sweep
    inst = build_instance("graphs")
    A, B, C = frozenset({1}), frozenset({2}), frozenset({3})
    u = inst.elements(A)[0]
    v = inst.elements(B)[0]
    w = inst.elements(C)[0]
    for which in (1, 2):
        left = sorted(
            inst.serialize(s)
            for t in mu(inst, which, u, v)
            for s in mu(inst, which, t, w)
        )
        right = sorted(
            inst.serialize(s)
            for t in mu(inst, which, v, w)
            for s in mu(inst, which, u, t)
        )
        assert left == right


def test_broken_dc_realized_as_failing_multimap_square():
    # the failing species diagram at blocks ({1}, {}, {}, {2}), written out as
    # an honest square of partial multimaps
    from precut.setn import FiniteSet, Multimap, Square, check_partial_pullback

    inst = build_instance("broken_dc")
    X = (1, 2)
    A, D = frozenset({1}), frozenset({2})
    top = inst.elements(X)
    left = [(u, v) for u in inst.elements(A) for v in inst.elements(D)]

    def matrix(rows_elems, cols_elems, image):
        idx = {c: j for j, c in enumerate(cols_elems)}
        rows = []
        for r in rows_elems:
            out = image(r)
            rows.append(
                tuple(1 if out is not None and idx[out] == j else 0 for j in range(len(cols_elems)))
            )
        return rows

    src = FiniteSet(tuple(range(len(top))))
    mid = FiniteSet(tuple(range(len(left))))
    corner_pairs = left  # corners coincide with the singleton restriction pairs
    cor = FiniteSet(tuple(range(len(corner_pairs))))

    alpha = Multimap(src, mid, matrix(top, left, lambda s: delta(inst, 2, s, A, D)))
    beta = Multimap(src, mid, matrix(top, left, lambda s: delta(inst, 1, s, A, D)))
    gamma = Multimap(mid, cor, matrix(left, corner_pairs, lambda uv: uv))
    delta_map = Multimap(mid, cor, matrix(left, corner_pairs, lambda uv: uv))
    res = check_partial_pullback(Square(alpha, beta, gamma, delta_map))
    assert not res.ok
    assert res.witness["kind"] == "pullback fiber not a singleton"


def test_multi_extension_branch_is_exercised():
    # for graphs, several elements can match all four corner restrictions
    # while exactly one of them carries both big cuts
    inst = build_instance("graphs")
    ground = (1, 2, 3, 4)
    els = inst.elements(ground)
    A, B, C, D = (frozenset({x}) for x in ground)
    AB, CD, AC, BD = A | B, C | D, A | C, B | D
    corners = {
        AC: inst.restrict(els[0], AC),
        BD: inst.restrict(els[0], BD),
        AB: inst.restrict(els[0], AB),
        CD: inst.restrict(els[0], CD),
    }
    matching = [
        s
        for s in els
        if all(inst.restrict(s, g) == corners[g] for g in corners)
    ]
    with_cuts = [
        s
        for s in matching
        if is_cut(inst.pi(1, s), AB) and is_cut(inst.pi(2, s), AC)
    ]
    assert len(matching) > 1
    assert len(with_cuts) == 1


@pytest.mark.parametrize(
    "name,nmax",
    [
        ("colored", 4),
        ("tensor", 4),
        ("graphs", 4),
        ("posets", 4),
        ("perm_f", 4),
        ("perm_m", 4),
        ("parking", 3),
        ("packed_words", 3),
    ],
)
def test_intertwined_implies_both_bimonoids(name, nmax):
    inst = build_instance(name)
    assert check_intertwined(inst, nmax).passed
    assert check_bimonoid(inst, 1, nmax).passed
    assert check_bimonoid(inst, 2, nmax).passed
    # against the laws themselves, not the corollary that `check_bimonoid` decides
    for i in (1, 2):
        assert brute_check_bimonoid(build_instance(name), i, min(nmax, 3)).passed


@pytest.mark.parametrize(
    "name,nmax", [("broken_dc", 3), ("cc", 3), ("nc", 3), ("nn", 3), ("nn", 4)]
)
def test_square_law_fails_both_verifiers_on_the_same_diagram(name, nmax):
    # the compatibility square of (Δ1, μ2) and the intertwining square are one
    # law, so both checks stop at the same degree and the same blocks
    intertwined = check_intertwined(build_instance(name), nmax)
    bimonoid = check_bimonoid(build_instance(name), 1, nmax)
    assert (intertwined.stage, bimonoid.stage) == ("ExtensionUniqueness", "Compatibility")
    assert intertwined.stats[-1]["degree"] == bimonoid.stats[-1]["degree"]
    # one witness rule: the same least quadruple, counted alike, wanted once
    for key in ("blocks", "corners"):
        assert intertwined.witness[key] == bimonoid.witness[key]
    assert intertwined.witness["completions"] == bimonoid.witness["mu_then_delta"]
    assert bimonoid.witness["delta_then_mu"] == 1
    if nmax == 3:
        assert intertwined.to_json() == _scan(brute_check_intertwined, name, 3)


def test_relabel_commutes_with_restriction():
    inst = build_instance("perm_m")
    mapping = {1: "b", 2: "a", 3: "c"}
    for s in inst.elements((1, 2, 3)):
        r = inst.relabel(s, mapping)
        for sub in ({1}, {1, 2}, {2, 3}, {1, 2, 3}):
            img = frozenset(mapping[x] for x in sub)
            assert inst.relabel(inst.restrict(s, frozenset(sub)), mapping) == inst.restrict(r, img)


def test_restriction_functoriality():
    inst = build_instance("parking")
    ground = (1, 2, 3)
    for s in inst.elements(ground):
        assert inst.restrict(s, frozenset(ground)) == s
        for big in ({1, 2, 3}, {1, 2}, {2, 3}):
            for small in (set(), {2}):
                if small <= big:
                    assert inst.restrict(
                        inst.restrict(s, frozenset(big)), frozenset(small)
                    ) == inst.restrict(s, frozenset(small))


# -- the verifiers against the scans they replaced ---------------------------


class FlippedColors(ColoredSets):
    """Restriction that drops exactly two points also flips every color: not
    functorial, so the two restriction paths of a diagram disagree."""

    def restrict(self, s, sub):
        r = super().restrict(s, sub)
        if len(s) - len(r) == 2:
            r = tuple((x, 1 - c) for x, c in r)
        return r


class FlippedPastThree(ColoredSets):
    """Restriction that drops exactly three points, one of them of color 1,
    also flips every color: functorial up to degree 3, so every verifier
    passes there, and first not functorial on the second element of degree
    4."""

    def restrict(self, s, sub):
        r = super().restrict(s, sub)
        dropped = [c for x, c in s if x not in sub]
        if len(dropped) == 3 and 1 in dropped:
            r = tuple((x, 1 - c) for x, c in r)
        return r


class OffPalette(ColoredSets):
    """Restriction from three points onto one paints that point color 7,
    a value the one-point ground does not enumerate."""

    def restrict(self, s, sub):
        r = super().restrict(s, sub)
        if len(s) == 3 and len(r) == 1:
            ((x, _),) = r
            r = ((x, 7),)
        return r


class ExtraOnTwoPoints(ColoredSets):
    """Lists the all-color-2 coloring beside the colorings of every two-point
    ground: its restrictions to one point are not elements."""

    def _elements(self, ground):
        extra = [tuple((x, 2) for x in ground)] if len(ground) == 2 else []
        return list(super()._elements(ground)) + extra


class ListedTwice(ColoredSets):
    """Lists every coloring of a two-point ground twice."""

    def _elements(self, ground):
        return list(super()._elements(ground)) * (2 if len(ground) == 2 else 1)


class ReversedOnPairs(PermPairs):
    """perm_f whose first projection reverses the order on two-point grounds,
    so a restriction can lose the small cut that its parent's cut implies."""

    def pi1(self, s):
        return chain(s.t1[::-1] if len(s.t1) == 2 else s.t1)


WRAPPERS = (FlippedColors, FlippedPastThree, ReversedOnPairs)


def _build(name):
    wrapper = {w.__name__: w for w in WRAPPERS}.get(name)
    return wrapper() if wrapper else build_instance(name)


@functools.cache
def _scan(check, name, *args):
    """An oracle's report on a fresh instance, as JSON, kept for the session."""
    return check(_build(name), *args).to_json()


def _corollary(name, i):
    """What `check_bimonoid` must report: the brute precondition's report where
    it fails, else the brute bimonoid laws'."""
    pre = _scan(brute_check_species, name, 3)
    return pre if not pre["passed"] else _scan(brute_check_bimonoid, name, i, 3)


def _assert_matches_oracles(name):
    got = [check_intertwined(_build(name), 3)] + [check_bimonoid(_build(name), i, 3) for i in (1, 2)]
    want = [_scan(brute_check_intertwined, name, 3)] + [_corollary(name, i) for i in (1, 2)]
    assert [r.to_json() for r in got] == want
    return [r.stage for r in got]


SHIPPED = sorted({name for name, *_ in SHIPPED_TABLES})
CONTROLS = sorted(
    set(SHIPPED) | {"broken_dc", "broken_monotone", "broken_cut", "cc", "nc", "nn"}
)


@pytest.mark.parametrize("name", CONTROLS)
def test_verifiers_match_scan_oracles(name):
    _assert_matches_oracles(name)


@pytest.mark.parametrize("name", CONTROLS)
def test_four_block_counts_agree_across_verifiers(name):
    intertwined = check_intertwined(build_instance(name), 3).stats
    bimonoid = check_bimonoid(build_instance(name), 1, 3).stats
    reached = min(len(intertwined), len(bimonoid))
    assert intertwined[:reached] == bimonoid[:reached]


@pytest.mark.parametrize(
    "make,stages",
    [
        (FlippedColors, ["Functoriality"] * 3),
        (ReversedOnPairs, ["ProjectionMonotonicity"] * 3),
    ],
)
def test_verifiers_match_scan_oracles_on_broken_wrappers(make, stages):
    assert _assert_matches_oracles(make.__name__) == stages


@pytest.mark.parametrize("name", CONTROLS + [w.__name__ for w in WRAPPERS])
def test_bimonoid_laws_are_corollaries_of_the_precondition_and_the_square(name):
    # on a functorial species over preorders the unit, counit and three-block
    # laws hold, and compatibility is the intertwining square: both bimonoid
    # checks, intertwining and the laws scanned one by one give one verdict
    verdicts = {check_intertwined(_build(name), 3).passed}
    for i in (1, 2):
        got = check_bimonoid(_build(name), i, 3)
        assert got.to_json() == _corollary(name, i)
        verdicts |= {got.passed, _scan(brute_check_bimonoid, name, i, 3)["passed"]}
    assert len(verdicts) == 1


@pytest.mark.parametrize("make,nmax", [(FlippedColors, 3), (FlippedPastThree, 4)], ids=["FlippedColors", "FlippedPastThree"])
def test_precondition_refuses_a_restriction_that_is_not_functorial(make, nmax):
    got = check_species_over_preorders(make(), nmax)
    assert got.stage == "Functoriality"
    assert got.to_json() == brute_check_species(make(), nmax).to_json()
    assert check_species_over_preorders(make(), nmax - 1).passed


@pytest.mark.parametrize(
    "make,message",
    [
        (ExtraOnTwoPoints, "is not an element of"),
        (OffPalette, "is not an element of"),
        (ListedTwice, "lists an element twice"),
    ],
    ids=["ExtraOnTwoPoints", "OffPalette", "ListedTwice"],
)
def test_verifiers_refuse_a_species_that_is_not_a_set_species(make, message):
    # S[I] is a set and restriction a map between such sets: a restriction
    # off the enumeration, or a ground listing an element twice, is refused
    # rather than checked, although the scan oracles give it a verdict
    with pytest.raises(InvalidStructure, match=message):
        check_intertwined(make(), 3)
    for i in (1, 2):
        with pytest.raises(InvalidStructure, match=message):
            check_bimonoid(make(), i, 3)


def test_graded_dimensions_refuse_an_element_listed_twice():
    with pytest.raises(InvalidStructure, match="lists an element twice"):
        fock.graded_dimensions(ListedTwice(2), 3)


@pytest.mark.parametrize("i", [1, 2])
def test_functoriality_witness_past_the_first_element_matches_scan_oracle(i):
    # only the failing element is scanned pair by pair, for the oracle's witness
    got = check_bimonoid(FlippedPastThree(), i, 4)
    assert got.stage == "Functoriality"
    assert got.witness == {
        "element": ("colored", ((1, 0), (2, 0), (3, 0), (4, 1))),
        "subset": [1, 2],
        "part": [1],
    }
    assert got.to_json() == brute_check_species(FlippedPastThree(), 4).to_json()


def test_bimonoid_check_leaves_no_products_on_the_instance():
    # the unit law follows from the precondition: no product is formed
    inst = ColoredSets()
    assert check_bimonoid(inst, 1, 3).passed
    assert inst._mu_cache == {}


def test_square_law_stays_total_without_the_precondition(monkeypatch):
    # Monotone projections carry every small cut down to the restrictions, so
    # only with the precondition replaced by a pass does a doubly-cut element
    # lose one: the scan oracle stops there at CutValidity, and both verifiers
    # fail the same diagram on that element's corners, which are no
    # corner-compatible quadruple (counted once, wanted never).
    for module, name in ((species, "check_species_over_preorders"), (oracles, "brute_check_species")):
        monkeypatch.setattr(module, name, lambda inst, nmax: VerificationReport(True))
    inst = ReversedOnPairs()
    want = brute_check_intertwined(inst, 3)
    blocks = [[1], [2], [3], []]
    assert (want.stage, want.witness["blocks"]) == ("CutValidity", blocks)
    s = next(s for s in inst.elements((1, 2, 3)) if inst.serialize(s) == want.witness["element"])
    grounds = {"on_AC": {1, 3}, "on_BD": {2}, "on_AB": {1, 2}, "on_CD": {3}}
    corners = {key: inst.serialize(inst.restrict(s, frozenset(sub))) for key, sub in grounds.items()}
    got = check_intertwined(inst, 3)
    assert (got.stage, got.witness["blocks"], got.witness["corners"]) == ("ExtensionUniqueness", blocks, corners)
    assert got.witness["completions"] == 1
    for i in (1, 2):
        got = check_bimonoid(inst, i, 3)
        assert (got.stage, got.witness["blocks"], got.witness["corners"]) == ("Compatibility", blocks, corners)
        assert (got.witness["mu_then_delta"], got.witness["delta_then_mu"]) == (1, 0)


@pytest.mark.parametrize("which", [0, 3])
def test_projection_index_outside_one_and_two_is_refused(which):
    with pytest.raises(PrecutError, match=f"no projection pi{which}"):
        check_bimonoid(build_instance("perm_m"), which, 3)


def test_fock_tables_refuse_a_projection_index_outside_one_and_two():
    with pytest.raises(PrecutError, match="no projection pi7"):
        fock.fock_tables(build_instance("perm_f"), 1, 7, N=3)


@pytest.mark.parametrize(
    "make",
    [pytest.param(lambda name=name: build_instance(name), id=name) for name in CONTROLS]
    + [pytest.param(FlippedColors, id="FlippedColors")],
)
def test_precondition_matches_brute_oracle(make):
    got = check_species_over_preorders(make(), 3)
    assert got.to_json() == brute_check_species(make(), 3).to_json()


def _recorded_sides(monkeypatch):
    made = []

    class Recorded(species._Sides):
        def __init__(self, inst):
            super().__init__(inst)
            made.append(self)

    monkeypatch.setattr(species, "_Sides", Recorded)
    return made


def _four_block_checks(nmax):
    return (
        lambda inst: check_intertwined(inst, nmax),
        lambda inst: check_bimonoid(inst, 1, nmax),
        lambda inst: check_bimonoid(inst, 2, nmax),
    )


def _walked(name):
    """The instance, re-bound where it is a product so that the square law
    walks it rather than certifying it on its factors."""
    inst = build_instance(name)
    return walked(type(inst))() if isinstance(inst, Hadamard) else inst


@pytest.mark.parametrize("name", SHIPPED)
def test_shared_sides_are_exact_and_interned(monkeypatch, name):
    made = _recorded_sides(monkeypatch)
    inst = _walked(name)
    for check in _four_block_checks(3):
        made.clear()
        assert check(inst).passed
        # one table per degree, holding every (which, ground, down) split
        assert [len(split.table) for split in made] == [2 * 3**n for n in range(4)]
        for split in made:
            for (which, ground, down), side in split.table.items():
                want = {
                    x: (inst.restrict(x, down), inst.restrict(x, ground - down))
                    for x in inst.elements(ground)
                    if is_cut(inst.pi(which, x), down)
                }
                assert list(side.items()) == list(want.items())
                # each restriction is the one object its ground enumerates
                for r in itertools.chain.from_iterable(side.values()):
                    assert any(e is r for e in inst.elements(inst.ground_of(r)))


def _cache_keys(inst):
    """Keys of every cache on the instance and on the instance it filters."""
    out = {}
    for attr, value in vars(inst).items():
        if isinstance(value, dict):
            out[attr] = set(value)
        elif isinstance(value, species.SpeciesInstance):
            out.update({f"{attr}.{k}": keys for k, keys in _cache_keys(value).items()})
    return out


@pytest.mark.parametrize(
    # one per instance class, and two that filter another instance
    "name",
    [
        "colored",
        "graphs",
        "packed_words",
        "parking/nondecreasing-parking",
        "perm_f",
        "perm_m/213",
        "posets/cherry",
        "preorders",
        "tensor",
    ],
)
def test_verifiers_leave_no_state_on_the_instance(name):
    scans = (
        lambda inst: brute_check_intertwined(inst, 3),
        lambda inst: brute_check_bimonoid(inst, 1, 3),
        lambda inst: brute_check_bimonoid(inst, 2, 3),
    )
    for check, scan in zip(_four_block_checks(3), scans):
        inst, ref = build_instance(name), build_instance(name)
        attrs = set(vars(inst))
        assert check(inst).passed and scan(ref).passed
        assert set(vars(inst)) == attrs
        # every cache holds only what the scan of every assignment fills
        got, want = _cache_keys(inst), _cache_keys(ref)
        assert got.keys() == want.keys()
        assert all(got[attr] <= want[attr] for attr in got)


def test_orbit_classes_live_in_the_species_layer():
    # species, their avoiding subspecies and the shipped instances reach the
    # orbit classes without loading the Fock tables, which share the registry
    src = os.path.dirname(os.path.dirname(os.path.abspath(species.__file__)))
    code = "import sys, precut.species, precut.avoidance, precut.instances; print('precut.fock' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
    assert fock.ClassRegistry is species.ClassRegistry
