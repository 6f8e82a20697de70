"""Species of one factor and Hadamard products of two: the shipped single and
pair instances, the census of the 49 products of seven factors at n <= 3
against the gluing rule, the factor certificate against the walk, and the
orbit classes built from the factors against the walk and Burnside's count."""

import itertools
import re
from math import factorial

import pytest

import oracles
from oracles import DISCRETE_SETS, POSETS_BY_COMPONENTS, glues_uniquely, walked
from precut import species
from precut.errors import CapExceeded, InvalidStructure
from precut.fock import graded_dimensions
from precut.instances import _BUILDERS, build_instance
from precut.instances.colored import colorings
from precut.instances.hadamard import LINEAR, Hadamard, Single
from precut.instances.pairs import POSETS, PREORDERS, TOTAL_PREORDERS
from precut.instances.parking import PARKING
from precut.species import check_bimonoid, check_intertwined

# the four factors that shipped instances use, then the three test-only ones
FACTORS = {
    "L": LINEAR,
    "TotPre": TOTAL_PREORDERS,
    "Pre": PREORDERS,
    "Park": PARKING,
    "Pos": POSETS,
    "PosComp": POSETS_BY_COMPONENTS,
    "Set": DISCRETE_SETS,
}

# check_intertwined(f × g, 3), rows f and columns g in FACTORS order: "+"
# passes, "x" fails at ExtensionUniqueness
VERDICTS = """
L        +  +  x  +  x  +  +
TotPre   +  +  x  +  x  +  +
Pre      x  x  x  x  x  x  x
Park     +  +  x  +  x  +  +
Pos      x  x  x  x  x  x  x
PosComp  +  +  x  +  x  +  +
Set      +  +  x  +  x  +  +
"""


def _verdicts():
    rows = [line.split() for line in VERDICTS.strip().splitlines()]
    assert [row[0] for row in rows] == list(FACTORS)
    return {(row[0], g): mark == "+" for row in rows for g, mark in zip(FACTORS, row[1:])}


@pytest.mark.parametrize(
    "name", ["colored", "broken_dc", "broken_monotone", "broken_cut", "posets", "preorders", "graphs"]
)
def test_single_factor_instances_read_their_factor(name):
    inst = build_instance(name)
    assert isinstance(inst, Single)
    f = inst.f
    for n in range(4):
        ground = tuple(range(1, n + 1))
        mapping = {x: 10 - x for x in ground}  # reverses the order, onto new labels
        assert set(inst.elements(ground)) == set(f.elements(ground))
        for s in inst.elements(ground):
            assert inst.pi1(s) == f.project(s)
            assert inst.ground_of(s) == f.ground(s) == frozenset(ground)
            assert inst.relabel(s, mapping) == f.relabel(s, mapping)
            for r in range(n + 1):
                for sub in itertools.combinations(ground, r):
                    assert inst.restrict(s, sub) == f.restrict(s, frozenset(sub))


def test_every_registered_species_is_built_from_factors():
    for name in _BUILDERS:
        assert isinstance(build_instance(name), (Single, Hadamard)), name


@pytest.mark.parametrize(
    "name", ["perm_f", "perm_m", "tensor", "parking", "cc", "nc", "nn", "packed_words"]
)
def test_pair_instances_are_hadamard_products(name):
    inst = build_instance(name)
    assert isinstance(inst, Hadamard)
    for s in inst.elements((1, 2, 3)):
        assert s == inst.pair(s[0], s[1]) and inst.ground_of(s) == inst.g.ground(s[1])


def test_default_serialization_orders_preorder_components():
    # a preorder's own order is refinement, a partial order, so the pairs
    # sort by each preorder's (ground, rows), as posets and cc pairs do
    inst = Hadamard(PREORDERS, PREORDERS)
    els = inst.elements((1, 2))
    assert len(els) == len(set(map(inst.serialize, els))) == 16
    assert [inst.serialize(s)[1:] for s in els] == sorted(
        ((x.ground, x.rows), (y.ground, y.rows)) for x, y in els
    )


@pytest.mark.parametrize("f", FACTORS)
def test_census_verdicts_are_pinned(f):
    # by the walk: the certificate would otherwise decide the 25 passing pairs
    verdicts = _verdicts()
    for g in FACTORS:
        report = check_intertwined(walked(Hadamard)(FACTORS[f], FACTORS[g]), 3)
        assert report.passed == verdicts[f, g], (f, g)
        assert report.passed or report.stage == "ExtensionUniqueness"


def test_census_passes_exactly_where_both_factors_glue_uniquely():
    gluing = {name for name, factor in FACTORS.items() if glues_uniquely(factor, 4)}
    assert gluing == {"L", "TotPre", "Park", "Set", "PosComp"}
    for factor in (PREORDERS, POSETS):  # under their own order: first fails at n = 2
        assert glues_uniquely(factor, 1) and not glues_uniquely(factor, 2)
    passing = {pair for pair, passed in _verdicts().items() if passed}
    assert len(passing) == 25
    assert passing == {(f, g) for f in gluing for g in gluing}


def test_gluing_check_matches_the_brute_oracle():
    for name, factor in FACTORS.items():
        counts = species.glues_uniquely(Single(factor), 4)
        assert (counts is not None) == glues_uniquely(factor, 4), name
        assert counts is None or [d["elements"] for d in counts] == [len(factor.elements(tuple(range(1, n + 1)))) for n in range(5)]


def test_certificate_passes_exactly_the_gluing_pairs():
    certified = {
        (f, g) for f, g in itertools.product(FACTORS, repeat=2)
        if species._glued_factors(Hadamard(FACTORS[f], FACTORS[g]), 3) is not None
    }
    assert len(certified) == 25
    assert certified == {pair for pair, passed in _verdicts().items() if passed}


@pytest.mark.parametrize("name,nmax", [("perm_f", 4), ("tensor", 4), ("parking", 3), ("packed_words", 3)])
def test_certified_verdicts_match_the_walk(name, nmax):
    inst = build_instance(name)
    walk = walked(type(inst))()
    checks = [lambda s: check_intertwined(s, nmax)] + [lambda s, i=i: check_bimonoid(s, i, nmax) for i in (1, 2)]
    for check in checks:
        certified, walked_report = check(inst), check(walk)
        assert certified.to_json() == walked_report.to_json() == {"passed": True, "stage": None, "witness": None}
        assert {d["factor"] for d in certified.stats} == {1, 2} and "incidences" in walked_report.stats[-1]


@pytest.mark.parametrize("name,cap", [("perm_f", 6), ("tensor", 6), ("parking", 4), ("packed_words", 5)])
def test_certified_products_pass_at_their_cap(name, cap):
    inst = build_instance(name)
    report = check_intertwined(inst, cap)
    assert report.passed and [(d["factor"], d["degree"]) for d in report.stats] == [
        (k, n) for k in (1, 2) for n in range(cap + 1)
    ]
    with pytest.raises(CapExceeded, match=re.escape(f"{inst.name}: ground of size {cap + 1} above cap {cap}")):
        check_intertwined(inst, cap + 1)


# colorings that also list the all-color-2 coloring of every two-point ground:
# its restrictions to one point are not elements
COLORINGS = colorings(2)
OFF_THE_ENUMERATION = COLORINGS._replace(
    elements=lambda ground: COLORINGS.elements(ground) + ([tuple((x, 2) for x in ground)] if len(ground) == 2 else [])
)


def test_factor_off_its_enumeration_falls_back_to_the_walk():
    product = Hadamard(OFF_THE_ENUMERATION, LINEAR)
    assert species._glued_factors(product, 3) is None
    with pytest.raises(InvalidStructure) as got:
        check_intertwined(product, 3)
    with pytest.raises(InvalidStructure) as want:
        check_intertwined(walked(Hadamard)(OFF_THE_ENUMERATION, LINEAR), 3)
    assert str(got.value) == str(want.value) and "is not an element of [1]" in str(got.value)


# -- orbit classes from the factors ----------------------------------------------


def test_product_classes_match_the_walk_on_the_census():
    for (f, g), n in itertools.product(itertools.product(FACTORS.values(), repeat=2), range(4)):
        new, old = species.ClassRegistry(Hadamard(f, g)), species.ClassRegistry(walked(Hadamard)(f, g))
        classes = new.classes_of_degree(n)
        assert classes == old.classes_of_degree(n)
        assert [new.orbit_size(c) for c in classes] == [old.orbit_size(c) for c in classes]
        doubled = {i: 2 * i for i in range(1, n + 1)}  # each element also on the ground 2, 4, ..., 2n
        for s in new.inst.elements(tuple(range(1, n + 1))):
            assert new.class_of(s) == new.class_of(new.inst.relabel(s, doubled)) == old.class_of(s)


@pytest.mark.parametrize(
    "make, dims",
    [
        (lambda: build_instance("perm_f"), [factorial(n) for n in range(7)]),
        (lambda: build_instance("perm_m"), [factorial(n) for n in range(7)]),
        (lambda: build_instance("parking"), [1, 1, 5, 51, 819]),
        (lambda: build_instance("tensor"), [2**n for n in range(6)]),
        # no instance ships parking chains × orders: the parking functions, (n+1)^(n-1)
        (lambda: Hadamard(PARKING, LINEAR), [1, 1, 3, 16, 125]),
    ],
)
def test_product_dimensions_match_burnside(make, dims):
    inst = make()
    assert oracles.burnside_dimensions(inst.f, inst.g, len(dims) - 1) == graded_dimensions(inst, len(dims) - 1) == dims
