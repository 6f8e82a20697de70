"""Registry of shipped species instances and avoidance presets."""

from __future__ import annotations

from ..avoidance import AvoidanceSet, AvoidingInstance
from ..errors import UnknownInstance
from .colored import BrokenCoarseSecond, BrokenCutEquality, BrokenMonotonicity, ColoredSets
from .graphs import Graphs
from .orders import OrderSpecies
from .pairs import PackedWords, PreorderPairs, cc_matrix, generate_pair, packed_word_of
from .parking import ParkingPairs
from .perm import PermPairs, pair_from_word, word_of

_BUILDERS = {
    "colored": lambda params: ColoredSets(palette=int(params.get("palette", 2))),
    "tensor": lambda params: _tensor(params),
    "graphs": lambda params: Graphs(),
    "posets": lambda params: OrderSpecies(posets_only=True),
    "preorders": lambda params: OrderSpecies(posets_only=False),
    "perm_f": lambda params: PermPairs("f"),
    "perm_m": lambda params: PermPairs("m"),
    "parking": lambda params: ParkingPairs(),
    "cc": lambda params: PreorderPairs("cc"),
    "nc": lambda params: PreorderPairs("nc"),
    "nn": lambda params: PreorderPairs("nn"),
    "packed_words": lambda params: PackedWords(),
    "broken_dc": lambda params: BrokenCoarseSecond(palette=int(params.get("palette", 2))),
    "broken_monotone": lambda params: BrokenMonotonicity(palette=int(params.get("palette", 2))),
    "broken_cut": lambda params: BrokenCutEquality(palette=int(params.get("palette", 2))),
}


def _tensor(params):
    from .tensor import TensorWords

    return TensorWords(palette=int(params.get("palette", 2)))


def pattern_set(*words):
    """Avoidance set of fixed permutation patterns over a perm instance."""
    patterns = {tuple(w) for w in words}
    name = "+".join("".join(str(v) for v in w) for w in sorted(patterns))
    return AvoidanceSet(
        name=name,
        membership=lambda s: word_of(s) in patterns,
        sizes=frozenset(len(w) for w in patterns),
    )


def _strict_pairs(s):
    return [(x, y) for x in s.ground for y in s.ground if s.lt(x, y)]


def _is_cherry(s):
    strict = _strict_pairs(s)
    if len(s.ground) != 3 or len(strict) != 2:
        return False
    (a, b), (c, d) = strict
    return b == d and a != c


def _is_vee(s):
    strict = _strict_pairs(s)
    if len(s.ground) != 3 or len(strict) != 2:
        return False
    (a, b), (c, d) = strict
    return a == c and b != d


CHERRY = AvoidanceSet("cherry", _is_cherry, sizes=frozenset({3}))
CHERRY_V = AvoidanceSet(
    "cherry+V", lambda s: _is_cherry(s) or _is_vee(s), sizes=frozenset({3})
)


def _second_not_total(s):
    # some level of the second filtration strictly exceeds its index
    return any(len(part) > i + 1 for i, part in enumerate(s.second))


PARKING_SECOND = AvoidanceSet("nondecreasing-parking", _second_not_total, monotone=True)

# preset -> (parent instance name, avoidance set, index whose coproduct is irreducible)
AVOIDANCE_PRESETS = {
    "213": ("perm_m", pattern_set((2, 1, 3)), 1),
    "132+213": ("perm_m", pattern_set((1, 3, 2), (2, 1, 3)), 1),
    "12": ("perm_m", pattern_set((1, 2)), 1),
    "3142+2413": ("perm_m", pattern_set((3, 1, 4, 2), (2, 4, 1, 3)), 1),
    "cherry": ("posets", CHERRY, 2),
    "cherry+V": ("posets", CHERRY_V, 2),
    "nondecreasing-parking": ("parking", PARKING_SECOND, 2),
    "mr-in-parking": ("parking", None, None),  # built by stacked avoidance
}


def build_preset(preset):
    if preset not in AVOIDANCE_PRESETS:
        raise UnknownInstance(f"unknown avoidance preset {preset!r}")
    if preset == "mr-in-parking":
        inner = AvoidingInstance(build_instance("parking"), PARKING_SECOND)
        first_not_total = AvoidanceSet(
            "first-total",
            lambda s: any(len(part) > i + 1 for i, part in enumerate(s.first)),
            monotone=True,
        )
        return AvoidingInstance(inner, first_not_total)
    parent_name, aset, _ = AVOIDANCE_PRESETS[preset]
    return AvoidingInstance(build_instance(parent_name), aset)


# (instance name, which_delta, which_mu, N) for every table the package ships;
# instances that fail the intertwining precondition are not shippable
SHIPPED_TABLES = (
    ("perm_f", 1, 2, 4),
    ("perm_m", 1, 2, 4),
    ("colored", 1, 2, 3),
    ("tensor", 1, 2, 3),
    ("graphs", 1, 2, 3),
    ("posets", 1, 2, 3),
    ("preorders", 1, 2, 3),
    ("parking", 1, 2, 3),
    ("packed_words", 1, 2, 3),
    ("perm_m/213", 1, 2, 3),
    ("perm_m/132+213", 1, 2, 3),
    ("perm_m/12", 1, 2, 3),
    ("perm_m/3142+2413", 1, 2, 3),
    ("posets/cherry", 1, 2, 3),
    ("posets/cherry+V", 1, 2, 3),
    ("parking/nondecreasing-parking", 1, 2, 3),
)


def build_instance(name, **params):
    """Instance registry; composite names like perm_m/213 apply a preset."""
    if "/" in name:
        parent, preset = name.split("/", 1)
        if preset in AVOIDANCE_PRESETS and AVOIDANCE_PRESETS[preset][0] == parent:
            inst = build_preset(preset)
        else:
            raise UnknownInstance(f"unknown preset {preset!r} for instance {parent!r}")
    elif name in _BUILDERS:
        inst = _BUILDERS[name](params)
    else:
        raise UnknownInstance(f"unknown instance {name!r}")
    return inst


__all__ = [
    "AVOIDANCE_PRESETS",
    "CHERRY",
    "CHERRY_V",
    "PARKING_SECOND",
    "SHIPPED_TABLES",
    "build_instance",
    "build_preset",
    "cc_matrix",
    "generate_pair",
    "packed_word_of",
    "pair_from_word",
    "pattern_set",
    "word_of",
]
