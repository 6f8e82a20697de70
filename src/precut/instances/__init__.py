"""Registry of shipped species instances and avoidance presets."""

from __future__ import annotations

from functools import partial

from ..avoidance import AvoidanceSet, AvoidingInstance
from ..errors import PrecutError, UnknownInstance
from .colored import BrokenCoarseSecond, BrokenCutEquality, BrokenMonotonicity, ColoredSets
from .graphs import Graphs
from .orders import OrderSpecies
from .pairs import PackedWords, PreorderPairs, cc_matrix, generate_pair
from .parking import ParkingPairs
from .perm import PermPairs, word_of
from .tensor import TensorWords

_BUILDERS = {
    "colored": ColoredSets,
    "tensor": TensorWords,
    "graphs": Graphs,
    "posets": partial(OrderSpecies, posets_only=True),
    "preorders": partial(OrderSpecies, posets_only=False),
    "perm_f": partial(PermPairs, "f"),
    "perm_m": partial(PermPairs, "m"),
    "parking": ParkingPairs,
    "cc": partial(PreorderPairs, "cc"),
    "nc": partial(PreorderPairs, "nc"),
    "nn": partial(PreorderPairs, "nn"),
    "packed_words": PackedWords,
    "broken_dc": BrokenCoarseSecond,
    "broken_monotone": BrokenMonotonicity,
    "broken_cut": BrokenCutEquality,
}
# the species whose constructor takes a palette
_PALETTE_SPECIES = ("colored", "tensor", "broken_dc", "broken_monotone", "broken_cut")


def pattern_set(*words):
    """Avoidance set of fixed permutation patterns over a perm instance."""
    patterns = {tuple(w) for w in words}
    name = "+".join("".join(str(v) for v in w) for w in sorted(patterns))
    return AvoidanceSet(
        name=name,
        membership=lambda s: word_of(s) in patterns,
        sizes=frozenset(len(w) for w in patterns),
    )


def _two_relations(s, shared):
    """Three points and two strict relations sharing their top (shared=1, a
    cherry) or their bottom (shared=0, a V)."""
    strict = [(x, y) for x in s.ground for y in s.ground if s.lt(x, y)]
    return len(s.ground) == 3 and len(strict) == 2 and strict[0][shared] == strict[1][shared]


CHERRY = AvoidanceSet("cherry", lambda s: _two_relations(s, 1), sizes=frozenset({3}))
CHERRY_V = AvoidanceSet(
    "cherry+V", lambda s: _two_relations(s, 1) or _two_relations(s, 0), sizes=frozenset({3})
)


def _not_total(chain):
    # some level of the filtration strictly exceeds its index
    return any(len(part) > i + 1 for i, part in enumerate(chain))


PARKING_SECOND = AvoidanceSet("nondecreasing-parking", lambda s: _not_total(s.second), monotone=True)

# preset -> (parent instance name, avoidance set, index whose coproduct is irreducible)
AVOIDANCE_PRESETS = {
    "213": ("perm_m", pattern_set((2, 1, 3)), 1),
    "132+213": ("perm_m", pattern_set((1, 3, 2), (2, 1, 3)), 1),
    "12": ("perm_m", pattern_set((1, 2)), 1),
    "3142+2413": ("perm_m", pattern_set((3, 1, 4, 2), (2, 4, 1, 3)), 1),
    "cherry": ("posets", CHERRY, 2),
    "cherry+V": ("posets", CHERRY_V, 2),
    "nondecreasing-parking": ("parking", PARKING_SECOND, 2),
    # both filtrations total, so pairs of permutations; a union of monotone
    # predicates is monotone.  No one coproduct is claimed irreducible.
    "mr-in-parking": (
        "parking",
        AvoidanceSet(
            "nondecreasing-parking/first-total",
            lambda s: _not_total(s.second) or _not_total(s.first),
            monotone=True,
        ),
        None,
    ),
}


def build_preset(preset):
    if preset not in AVOIDANCE_PRESETS:
        raise UnknownInstance(f"unknown avoidance preset {preset!r}")
    parent_name, aset, _ = AVOIDANCE_PRESETS[preset]
    return AvoidingInstance(build_instance(parent_name), aset)


def build_instance(name, avoid=None, palette=None):
    """The one resolver of instance names: a registry name, with an avoidance
    preset of that parent (avoid=..., or the composite name parent/preset) or
    with a palette for the species that take one."""
    if avoid is None and "/" in name:
        name, avoid = name.split("/", 1)
    if name not in _BUILDERS:
        raise UnknownInstance(f"unknown instance {name!r}")
    if avoid is not None and AVOIDANCE_PRESETS.get(avoid, (None,))[0] != name:
        raise UnknownInstance(f"unknown preset {avoid!r} for instance {name!r}")
    if palette is None:
        return build_preset(avoid) if avoid is not None else _BUILDERS[name]()
    if avoid is not None or name not in _PALETTE_SPECIES:
        raise PrecutError(f"instance {name!r} takes no palette")
    return _BUILDERS[name](palette=palette)


__all__ = [
    "AVOIDANCE_PRESETS",
    "CHERRY",
    "CHERRY_V",
    "PARKING_SECOND",
    "build_instance",
    "build_preset",
    "cc_matrix",
    "generate_pair",
    "pattern_set",
    "word_of",
]
