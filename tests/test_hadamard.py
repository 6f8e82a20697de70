"""Species of one factor and Hadamard products of two: the shipped single and
pair instances, and the census of the 49 products of seven factors at n <= 3
against the gluing rule."""

import itertools

import pytest

from oracles import DISCRETE_SETS, POSETS_BY_COMPONENTS, glues_uniquely
from precut.instances import _BUILDERS, build_instance
from precut.instances.hadamard import LINEAR, Hadamard, Single
from precut.instances.pairs import POSETS, PREORDERS, TOTAL_PREORDERS
from precut.instances.parking import PARKING
from precut.species import check_intertwined

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
    verdicts = _verdicts()
    for g in FACTORS:
        report = check_intertwined(Hadamard(FACTORS[f], FACTORS[g]), 3)
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
