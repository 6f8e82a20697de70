"""Sets with multimaps: natural-number matrices between finite labeled sets.

A multimap from X to Y assigns to each (x, y) a natural number.  Composition
is integer matrix multiplication, dualization is transposition.  Promaps
(0/1 entries) and partial maps (row sums 0 or 1) are the classes needed for
the square checks: commutation of the dualized square and the partial
pullback property, which are equivalent for squares of partial maps.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionMismatch, InvalidStructure, NotPartialMap, NotPromap


@dataclass(frozen=True)
class FiniteSet:
    """Finite set with a fixed label order, used only for matrix indexing."""

    labels: tuple

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        try:
            distinct = len(set(self.labels))
        except TypeError:
            raise InvalidStructure(f"unhashable labels: {self.labels!r}") from None
        if distinct != len(self.labels):
            raise InvalidStructure(f"duplicate labels: {self.labels!r}")

    def __len__(self):
        return len(self.labels)


@dataclass(frozen=True)
class Multimap:
    """Morphism X -> Y given by a |X| x |Y| matrix of naturals."""

    source: FiniteSet
    target: FiniteSet
    coeff: tuple

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.coeff)
        object.__setattr__(self, "coeff", rows)
        if len(rows) != len(self.source):
            raise DimensionMismatch(
                f"{len(rows)} rows for source of size {len(self.source)}"
            )
        for row in rows:
            if len(row) != len(self.target):
                raise DimensionMismatch(
                    f"row of length {len(row)} for target of size {len(self.target)}"
                )
            if any(type(v) is not int or v < 0 for v in row):
                raise InvalidStructure("multimap entries must be naturals")

    def row_support(self, i):
        """Indices j with a nonzero entry in row i."""
        return frozenset(j for j, v in enumerate(self.coeff[i]) if v)

    def col_support(self, j):
        return frozenset(i for i, row in enumerate(self.coeff) if row[j])

    def to_json(self):
        return {
            "source": list(self.source.labels),
            "target": list(self.target.labels),
            "coeff": [list(row) for row in self.coeff],
        }


def multimap_from_json(data) -> Multimap:
    """Parse {"source": [labels], "target": [labels], "coeff": rows of integers}."""
    if not (
        isinstance(data, dict)
        and all(isinstance(data.get(k), list) for k in ("source", "target", "coeff"))
        and all(
            isinstance(row, list)
            and all(isinstance(v, int) and not isinstance(v, bool) for v in row)
            for row in data["coeff"]
        )
    ):
        raise InvalidStructure(
            'a multimap is an object with lists "source" and "target" and integer rows "coeff"'
        )
    return Multimap(
        FiniteSet(tuple(data["source"])),
        FiniteSet(tuple(data["target"])),
        tuple(tuple(row) for row in data["coeff"]),
    )


def compose(f: Multimap, g: Multimap) -> Multimap:
    """f followed by g; exact natural-number matrix product."""
    if f.target != g.source:
        raise DimensionMismatch(f"cannot compose: {f.target} != {g.source}")
    gcols = list(zip(*g.coeff)) if g.coeff else [()] * len(g.target)
    rows = []
    for frow in f.coeff:
        rows.append(tuple(sum(a * b for a, b in zip(frow, col)) for col in gcols))
    return Multimap(f.source, g.target, tuple(rows))


def dual(f: Multimap) -> Multimap:
    """Transpose: the dual multimap from target back to source."""
    n, m = len(f.source), len(f.target)
    coeff = tuple(tuple(f.coeff[i][j] for i in range(n)) for j in range(m))
    return Multimap(f.target, f.source, coeff)


@dataclass(frozen=True)
class MapClass:
    """Predicate flags of a multimap; Ordinary implies both others."""

    ordinary: bool
    promap: bool
    partial_map: bool

    @property
    def general(self):
        return not (self.ordinary or self.promap or self.partial_map)

    @property
    def flags(self):
        out = []
        if self.ordinary:
            out.append("Ordinary")
        if self.promap:
            out.append("Promap")
        if self.partial_map:
            out.append("PartialMap")
        if self.general:
            out.append("General")
        return frozenset(out)


def classify(f: Multimap) -> MapClass:
    promap = all(v <= 1 for row in f.coeff for v in row)
    sums = [sum(row) for row in f.coeff]
    ordinary = all(s == 1 for s in sums)
    partial = all(s <= 1 for s in sums)
    return MapClass(ordinary=ordinary, promap=promap, partial_map=partial)


@dataclass(frozen=True)
class Square:
    """Square of multimaps: alpha: X->Y, beta: X->Z, gamma: Y->W, delta: Z->W."""

    alpha: Multimap
    beta: Multimap
    gamma: Multimap
    delta: Multimap

    def __post_init__(self):
        if self.alpha.source != self.beta.source:
            raise DimensionMismatch("alpha and beta must share a source")
        if self.alpha.target != self.gamma.source:
            raise DimensionMismatch("alpha target must be gamma source")
        if self.beta.target != self.delta.source:
            raise DimensionMismatch("beta target must be delta source")
        if self.gamma.target != self.delta.target:
            raise DimensionMismatch("gamma and delta must share a target")

    def to_json(self):
        return {
            "alpha": self.alpha.to_json(),
            "beta": self.beta.to_json(),
            "gamma": self.gamma.to_json(),
            "delta": self.delta.to_json(),
        }


def square_from_json(data) -> Square:
    if not isinstance(data, dict):
        raise InvalidStructure('a square is an object with multimaps "alpha" to "delta"')
    return Square(*(multimap_from_json(data[k]) for k in ("alpha", "beta", "gamma", "delta")))


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    witness: object = None

    def __bool__(self):
        return self.ok

    def to_json(self):
        return {"ok": self.ok, "witness": self.witness}


def check_dual_commutation(sq: Square) -> CheckResult:
    """Cardinality test |delta(z) ∩ gamma(y)| = |D(beta)(z) ∩ D(alpha)(y)| for all z, y.

    Equivalent to commutation of the square with the horizontal maps dualized.
    All four maps must be promaps.
    """
    for name in ("alpha", "beta", "gamma", "delta"):
        if not classify(getattr(sq, name)).promap:
            raise NotPromap(f"{name} is not a promap")
    Y, Z = sq.gamma.source, sq.delta.source
    for zi, zlab in enumerate(Z.labels):
        dz = sq.delta.row_support(zi)
        bz = sq.beta.col_support(zi)
        for yi, ylab in enumerate(Y.labels):
            gy = sq.gamma.row_support(yi)
            ay = sq.alpha.col_support(yi)
            left = len(dz & gy)
            right = len(bz & ay)
            if left != right:
                return CheckResult(
                    False,
                    {"z": zlab, "y": ylab, "target_overlap": left, "source_overlap": right},
                )
    return CheckResult(True)


def _partial_image(f: Multimap, i):
    """Index of the unique image of row i, or None when the row is zero."""
    sup = f.row_support(i)
    return next(iter(sup)) if sup else None


def check_partial_pullback(sq: Square) -> CheckResult:
    """Partial pullback test for a square of partial maps.

    On the locus where both alpha and beta are defined, they must land where
    gamma resp. delta are defined, the restricted square must commute, and
    every compatible (y, z) pair must have exactly one preimage there.
    """
    for name in ("alpha", "beta", "gamma", "delta"):
        if not classify(getattr(sq, name)).partial_map:
            raise NotPartialMap(f"{name} is not a partial map")
    X, Y, Z = sq.alpha.source, sq.gamma.source, sq.delta.source
    gamma_at = [_partial_image(sq.gamma, i) for i in range(len(Y))]
    delta_at = [_partial_image(sq.delta, i) for i in range(len(Z))]

    both = {}
    for xi in range(len(X)):
        yi = _partial_image(sq.alpha, xi)
        zi = _partial_image(sq.beta, xi)
        if yi is None or zi is None:
            continue
        both[xi] = (yi, zi)
        if gamma_at[yi] is None:
            return CheckResult(
                False,
                {"kind": "alpha escapes defined locus", "x": X.labels[xi], "y": Y.labels[yi]},
            )
        if delta_at[zi] is None:
            return CheckResult(
                False,
                {"kind": "beta escapes defined locus", "x": X.labels[xi], "z": Z.labels[zi]},
            )
        if gamma_at[yi] != delta_at[zi]:
            return CheckResult(
                False,
                {"kind": "restricted square does not commute", "x": X.labels[xi]},
            )

    for yi in range(len(Y)):
        if gamma_at[yi] is None:
            continue
        for zi in range(len(Z)):
            if delta_at[zi] is None or gamma_at[yi] != delta_at[zi]:
                continue
            preimages = [xi for xi, im in both.items() if im == (yi, zi)]
            if len(preimages) != 1:
                return CheckResult(
                    False,
                    {
                        "kind": "pullback fiber not a singleton",
                        "y": Y.labels[yi],
                        "z": Z.labels[zi],
                        "preimages": [X.labels[xi] for xi in preimages],
                    },
                )
    return CheckResult(True)
