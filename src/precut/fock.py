"""Graded Hopf algebra tables from a species bimonoid.

Basis elements are orbit classes of labeled elements under relabeling,
named with their orbit sizes by the species' `ClassRegistry`.  Both tables
are read off the cuts of one representative per class, which is sound for a
natural species (`SpeciesInstance`); a fractional product constant is
refused.  Both are exact integer tables, verified against the bialgebra
axioms by degree.  A change of basis phi between two tables is solved from
the residuals of its laws, phi(a)phi(b) − phi(a·b) and Δ(phi(w)) −
(phi ⊗ phi)Δ(w): the residuals that `_verify_transition` checks.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import os
import tempfile
from dataclasses import dataclass
from math import factorial

from . import __version__
from .errors import CapExceeded, InvalidStructure, NotIntertwined, PrecutError
from .preorder import cuts as preorder_cuts
from .species import (
    STAGE_ASSOC,
    STAGE_COASSOC,
    STAGE_COMPAT,
    STAGE_COUNIT,
    STAGE_UNIT,
    ClassRegistry,
    OrbitClass,
    SpeciesInstance,
    VerificationReport,
    _jsonify,
    check_intertwined,
)

VERIFY_DEPTH_CAP = 4


def canonical_form(inst: SpeciesInstance, s):
    """Least-serialization relabeling onto 1..n, with the witness bijection,
    from one uncached orbit walk (the class registry never calls this)."""
    ground = sorted(inst.ground_of(s))
    if len(ground) > inst.cap:
        raise CapExceeded(f"{inst.name}: canonical form at size {len(ground)} above cap {inst.cap}")
    bijections = (dict(zip(ground, image)) for image in itertools.permutations(range(1, len(ground) + 1)))
    witness = min(bijections, key=lambda m: inst.serialize(inst.relabel(s, m)))  # the first bijection giving the least
    return inst.relabel(s, witness), witness


@dataclass
class StructureConstantTable:
    instance: str
    which_delta: int
    which_mu: int
    N: int
    classes: tuple
    product: dict  # (cid, cid) -> {cid: coeff}
    coproduct: dict  # cid -> {(cid, cid): coeff}

    def dims(self, N=None):
        N = self.N if N is None else N
        return [sum(c.degree == n for c in self.classes) for n in range(N + 1)]

    def unit_class(self):
        (e,) = [c for c in self.classes if c.degree == 0]
        return e

    def to_json(self):
        return {
            "instance": self.instance,
            "which_delta": self.which_delta,
            "which_mu": self.which_mu,
            "N": self.N,
            "code_version": __version__,
            "classes": [
                {"id": c.cid, "degree": c.degree, "repr": _jsonify(c.key)}
                for c in self.classes
            ],
            "product": [
                {
                    "a": a,
                    "b": b,
                    "result": [
                        {"c": cid, "coeff": coeff}
                        for cid, coeff in sorted(out.items())
                    ],
                }
                for (a, b), out in sorted(self.product.items())
            ],
            "coproduct": [
                {"a": cid, "result": _pair_rows(out)}
                for cid, out in sorted(self.coproduct.items())
            ],
        }


def table_from_json(data) -> StructureConstantTable:
    classes = tuple(
        OrbitClass(data["instance"], c["degree"], None, _tupleize(c["repr"]), c["id"])
        for c in data["classes"]
    )
    product = {
        (row["a"], row["b"]): {cell["c"]: cell["coeff"] for cell in row["result"]}
        for row in data["product"]
    }
    coproduct = {
        row["a"]: {
            (cell["left"], cell["right"]): cell["coeff"] for cell in row["result"]
        }
        for row in data["coproduct"]
    }
    return StructureConstantTable(
        data["instance"],
        data["which_delta"],
        data["which_mu"],
        data["N"],
        classes,
        product,
        coproduct,
    )


def _pair_rows(vec):
    """JSON rows of a vector of A ⊗ A: a coproduct, or a compatibility witness."""
    return [
        {"left": x, "right": y, "coeff": c}
        for (x, y), c in sorted(vec.items())
    ]


def _tupleize(x):
    if isinstance(x, list):
        return tuple(_tupleize(v) for v in x)
    return x


def _ensure_intertwined(inst, N, verify):
    if verify == "force":
        return
    depth = min(N, inst.cap, VERIFY_DEPTH_CAP)
    report = inst._verified.get(depth)
    if report is None:
        report = check_intertwined(inst, depth)
        inst._verified[depth] = report
    if not report.passed:
        raise NotIntertwined(
            f"{inst.name} fails intertwining at nmax={depth}: stage={report.stage}"
        )


def fock_tables(
    inst: SpeciesInstance, which_delta=1, which_mu=2, N=3, verify="auto", cache_dir=None
) -> StructureConstantTable:
    """Integer structure constants of the Fock Hopf algebra up to degree N.

    The intertwining precondition is verified once per instance (depth
    capped at 4); pass verify="force" to skip it for negative-control
    experiments.  When cache_dir (or PRECUT_CACHE_DIR) is set, tables are
    persisted content-addressed by (instance class and name, coproducts, N,
    forced or verified, package sources); a cache file that is unreadable
    or not the requested table is recomputed and overwritten.  A hit skips
    the precondition: a verified key is written only after it passed, at a
    depth the key fixes (N, the instance's cap, VERIFY_DEPTH_CAP).

    Both tables are read off the cuts of one representative per class: those
    of π_δ(rep c) give the coproduct of c by the classes of their sides, and
    product[(a, b)][c] = |Aut a|·|Aut b|/|Aut c| · #{cuts of π_μ(rep c) with
    sides in a and b}, with |Aut x| = deg x!/|orbit of x|.  This counts the s
    in c's orbit whose standard split is a cut of π_μ(s) with sides rep a and
    rep b shifted: by naturality each such cut D gives |Aut a|·|Aut b|
    relabelings of rep c that map D onto 1..p and reach one, and each s is
    reached by |Aut c| relabelings.  A fractional quotient shows that π_μ is
    not natural: InvalidStructure names the class pair and the projection.
    """
    if which_delta == which_mu:
        raise PrecutError("which_delta and which_mu must differ")
    cache_path = _cache_path(inst, which_delta, which_mu, N, verify, cache_dir)
    if cache_path:
        cached = _read_cached(cache_path, (inst.name, which_delta, which_mu, N))
        if cached is not None:
            return cached
    _ensure_intertwined(inst, N, verify)

    registry = ClassRegistry(inst)
    classes = tuple(c for n in range(N + 1) for c in registry.classes_of_degree(n))
    aut = {c.cid: factorial(c.degree) // registry.orbit_size(c) for c in classes}

    def cut_classes(rep, which):  # (class of the down side, of the up side) -> cuts of π_which(rep)
        pairs = (tuple(registry.class_of(inst.restrict(rep, side)).cid for side in (cut.down, cut.up))
                 for cut in preorder_cuts(inst.pi(which, rep)))
        return _sum((pair, 1) for pair in pairs)

    coproduct = {c.cid: cut_classes(c.rep, which_delta) for c in classes}
    product = {(a.cid, b.cid): {} for a in classes for m in range(N - a.degree + 1) for b in registry.classes_of_degree(m)}
    for c in classes:
        for (a, b), count in cut_classes(c.rep, which_mu).items():
            coeff, rest = divmod(count * aut[a] * aut[b], aut[c.cid])
            if rest:
                raise InvalidStructure(f"{inst.name}: the product of classes {a} and {b} into {c.cid} through"
                                       f" pi{which_mu} is {count}*{aut[a]}*{aut[b]}/{aut[c.cid]}: pi{which_mu} is not natural")
            product[(a, b)][c.cid] = coeff

    table = StructureConstantTable(inst.name, which_delta, which_mu, N, classes, product, coproduct)
    if cache_path:
        _atomic_write(cache_path, json.dumps(table.to_json(), sort_keys=True, indent=1))
    return table


def _cache_path(inst, which_delta, which_mu, N, verify, cache_dir):
    cache_dir = cache_dir or os.environ.get("PRECUT_CACHE_DIR")
    if not cache_dir:
        return None
    cls = type(inst)
    key = [f"{cls.__module__}.{cls.__qualname__}", inst.name, which_delta, which_mu, N]
    blob = json.dumps(key + [verify == "force", _source_digest()])
    name = hashlib.sha256(blob.encode()).hexdigest()[:24] + ".json"
    return os.path.join(cache_dir, name)


@functools.cache
def _source_digest():
    """Hash of the package's .py sources, so tables from other code are never served."""
    root = os.path.dirname(os.path.abspath(__file__))
    paths = []
    for folder, _, names in os.walk(root):
        paths += [os.path.join(folder, n) for n in names if n.endswith(".py")]
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(os.path.relpath(path, root).encode() + b"\0")
        with open(path, "rb") as fh:
            digest.update(fh.read() + b"\0")
    return digest.hexdigest()


def _read_cached(path, header):
    """The cached table, or None when the file is missing, unreadable, not a
    table or a table for another request; the caller then overwrites it."""
    try:
        with open(path) as fh:
            table = table_from_json(json.load(fh))
        table.unit_class()
    except (OSError, ValueError, KeyError, TypeError):
        return None
    if (table.instance, table.which_delta, table.which_mu, table.N) != header:
        return None
    return table


def _atomic_write(path, text):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path))
    with os.fdopen(fd, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


# -- axioms ----------------------------------------------------------------


def _sum(terms):
    """The sparse vector of (key, coeff) terms: equal keys summed, zeros dropped."""
    out = {}
    for k, c in terms:
        out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


def _product(table, u, v):
    """u·v for sparse vectors of class ids, through `table.product`."""
    return _sum((w, ca * cb * cw) for a, ca in u.items() for b, cb in v.items()
                for w, cw in table.product[(a, b)].items())


def _coproduct(table, u):
    """Δ(u) for a sparse vector of class ids, through `table.coproduct`."""
    return _sum((pair, ca * c) for a, ca in u.items() for pair, c in table.coproduct[a].items())


def verify_hopf_axioms(table: StructureConstantTable, N=None) -> VerificationReport:
    """Exact integer checks of unit, counit, associativity, coassociativity
    and the bialgebra compatibility up to degree N.

    Associativity reads (a·b)·c and a·(b·c) from `_product`; compatibility
    reads Δ(a·b) from `_coproduct` and Δ(a)·Δ(b), the product of A ⊗ A, from
    pairs of product cells, summed by `_sum` like the counit and
    coassociativity passes.  Each later factor of the associativity and
    compatibility passes runs only over the classes whose degree still fits
    under N, in table order, so the first witness is the one the full loops
    would meet."""
    N = table.N if N is None else N
    e = table.unit_class().cid
    deg = {c.cid: c.degree for c in table.classes}
    cls = [c.cid for c in table.classes if c.degree <= N]
    upto = [[a for a in cls if deg[a] <= k] for k in range(N + 1)]

    for a in cls:
        if table.product.get((e, a)) != {a: 1} or table.product.get((a, e)) != {a: 1}:
            return VerificationReport(False, STAGE_UNIT, {"class": a})
    for a in cls:
        cop = table.coproduct[a]
        left_counit = _sum((y, c) for (x, y), c in cop.items() if x == e)
        right_counit = _sum((x, c) for (x, y), c in cop.items() if y == e)
        if left_counit != {a: 1} or right_counit != {a: 1}:
            return VerificationReport(False, STAGE_COUNIT, {"class": a})

    for a in cls:
        for b in upto[N - deg[a]]:
            ab = table.product[(a, b)]
            for c in upto[N - deg[a] - deg[b]]:
                if _product(table, ab, {c: 1}) != _product(table, {a: 1}, table.product[(b, c)]):
                    return VerificationReport(
                        False, STAGE_ASSOC, {"classes": [a, b, c]}
                    )

    for a in cls:
        cop = table.coproduct[a]
        left = _sum(((x1, x2, y), c * c2) for (x, y), c in cop.items()
                    for (x1, x2), c2 in table.coproduct[x].items())
        right = _sum(((x, y1, y2), c * c2) for (x, y), c in cop.items()
                     for (y1, y2), c2 in table.coproduct[y].items())
        if left != right:
            return VerificationReport(False, STAGE_COASSOC, {"class": a})

    for a in cls:
        for b in upto[N - deg[a]]:
            left = _coproduct(table, table.product[(a, b)])
            right = _sum(((x, y), ca * cb * cx * cy) for (a1, a2), ca in table.coproduct[a].items()
                         for (b1, b2), cb in table.coproduct[b].items()
                         for x, cx in table.product[(a1, b1)].items()
                         for y, cy in table.product[(a2, b2)].items())
            if left != right:
                return VerificationReport(
                    False,
                    STAGE_COMPAT,
                    {
                        "classes": [a, b],
                        "delta_of_product": _pair_rows(left),
                        "product_of_deltas": _pair_rows(right),
                    },
                )
    return VerificationReport(True)


def _reduced_echelon(equations):
    """Sparse exact reduced row echelon form of affine equations, or None.

    An equation is a dict {var: coeff} that reads sum(coeff * var) +
    constant = 0, with the constant under the key None; variables must be
    mutually comparable.  Each new row is reduced by the pivots so far in one
    `_sum`, takes its least variable as pivot, is scaled to a pivot
    coefficient of 1, and that pivot is substituted out of every earlier row.
    One `_sum` suffices because a pivot's row holds no other pivot: a row's
    variables are all at or above its pivot when it is made, and
    substituting a later pivot q brings in only the free variables of q's
    row, all above q.  Rows in pivot order are then the reduced row echelon
    form of the system, which is unique, so the pivot set and the rows are
    exactly those of a dense column-by-column sweep.  Returns {pivot: row},
    or None when some row reduces to a nonzero constant.
    """
    from fractions import Fraction  # kept off the import path of every CLI command

    rows = {}
    for equation in equations:
        substituted = ((v, -equation[p] * c) for p in equation if p in rows for v, c in rows[p].items())
        row = _sum(itertools.chain(equation.items(), substituted))
        if row.keys() <= {None}:
            if row:
                return None
            continue
        pivot = min(v for v in row if v is not None)
        row = {v: Fraction(c, row[pivot]) for v, c in row.items()}
        for p, other in rows.items():
            if pivot in other:
                substituted = ((v, -other[pivot] * c) for v, c in row.items())
                rows[p] = _sum(itertools.chain(other.items(), substituted))
        rows[pivot] = row
    return rows


class _Affine(dict):
    """An affine form {unknown: coeff}, with the constant under the key None
    and no zero coefficient: an entry of a transition in the degree being
    solved.  Forms add, and multiply by an integer or by a constant form;
    the product of two non-constant forms is not affine and raises
    ValueError.  No form is changed in place, so a sum with 0 may return
    the form itself."""

    def __add__(self, other):
        if not other:
            return self
        terms = other.items() if isinstance(other, _Affine) else [(None, other)]
        return _Affine(_sum(itertools.chain(self.items(), terms)))

    def __mul__(self, other):
        if isinstance(other, _Affine):
            if self.keys() - {None} and other.keys() - {None}:
                raise ValueError("the product of two non-constant affine forms is not affine")
            if self.keys() <= {None}:
                self, other = other, self
            other = other.get(None, 0)
        return _Affine({v: c * other for v, c in self.items()} if other else {})

    __radd__ = __add__
    __rmul__ = __mul__


def _residuals(ta, tb, phi, pairs, classes):
    """The laws of a transition phi from table ta to table tb, as sparse
    vectors of tb that vanish where they hold: phi(a)phi(b) − phi(a·b) for
    each (a, b) of `pairs`, then Δ(phi(w)) − (phi ⊗ phi)Δ(w) for each class
    w of `classes`.  phi maps a class id of ta to a sparse vector of tb
    whose coefficients are integers or `_Affine` forms; the minus signs
    ride on the integer structure constants of ta."""
    for a, b in pairs:
        minus_image = ((t, -cw * ct) for w, cw in ta.product[(a, b)].items() for t, ct in phi[w].items())
        yield _sum(itertools.chain(_product(tb, phi[a], phi[b]).items(), minus_image))
    for w in classes:
        minus_image = (((x_img, y_img), -c * cx * cy) for (x, y), c in ta.coproduct[w].items()
                       for x_img, cx in phi[x].items() for y_img, cy in phi[y].items())
        yield _sum(itertools.chain(_coproduct(tb, phi[w]).items(), minus_image))


def check_isomorphism_by_change_of_basis(ta, tb, N=None, order_key=None):
    """Unitriangular integer transition intertwining both structures.

    Classes in each degree are ordered by order_key (default: serialization
    key); the returned dict maps degree -> matrix rows (tuples of ints), row
    i giving the expansion of the i-th source class in target classes.

    Degree by degree, each entry is an `_Affine` form: 1 on the diagonal,
    the unknown (i, j) above it, and the entries of lower degrees are
    integers.  The equations are the coefficients of the `_residuals` that
    `_verify_transition` checks, over the products of two lower degrees and
    the coproducts of this one: affine, since no term multiplies two
    unknowns.  They are solved exactly, and the whole transition is checked
    by substitution at the end.  The free unknowns span a family of
    solutions; setting them to 0 picks one member, not a canonical one (for
    F -> M at N=5 the weak-order zeta matrix is another).  A None result
    means: no integer transition with the free unknowns at 0.
    """
    N = min(ta.N, tb.N) if N is None else N
    if ta.dims(N) != tb.dims(N):
        return None
    key = order_key or (lambda c: c.key)
    per_a = {n: sorted((c for c in ta.classes if c.degree == n), key=key) for n in range(N + 1)}
    per_b = {n: sorted((c for c in tb.classes if c.degree == n), key=key) for n in range(N + 1)}

    phi = {}  # cid of A-class -> {cid of B-class: integer, or affine form in degree n}
    matrices = {}
    for n in range(N + 1):
        a_classes, b_classes = per_a[n], per_b[n]
        for i, a in enumerate(a_classes):
            phi[a.cid] = {b.cid: _Affine({(i, j) if j > i else None: 1})
                          for j, b in enumerate(b_classes) if j >= i}
        pairs = [(a.cid, b.cid) for p in range(1, n) for a, b in itertools.product(per_a[p], per_a[n - p])]
        residuals = _residuals(ta, tb, phi, pairs, [w.cid for w in a_classes])
        echelon = _reduced_echelon(f if isinstance(f, _Affine) else {None: f}
                                   for residual in residuals for f in residual.values())
        if echelon is None:
            return None
        value = {v: -row.get(None, 0) for v, row in echelon.items()}  # the free unknowns at 0
        if any(x.denominator != 1 for x in value.values()):
            return None
        value[None] = 1
        for a in a_classes:  # each entry is one unknown or the constant, with coefficient 1
            phi[a.cid] = _sum((b, int(value.get(v, 0))) for b, form in phi[a.cid].items() for v in form)
        matrices[n] = tuple(tuple(phi[a.cid].get(b.cid, 0) for b in b_classes) for a in a_classes)

    return matrices if _verify_transition(ta, tb, phi, N) else None


def _verify_transition(ta, tb, phi, N):
    """Whether phi carries every product and coproduct of degree <= N: no
    residual is nonzero."""
    deg = {c.cid: c.degree for c in ta.classes}
    pairs = [(a, b) for a, b in ta.product if deg[a] + deg[b] <= N]
    return not any(_residuals(ta, tb, phi, pairs, [a for a in ta.coproduct if deg[a] <= N]))


def graded_dimensions(inst: SpeciesInstance, N):
    """Orbit-class counts per degree, without building structure constants."""
    registry = ClassRegistry(inst)
    return [len(registry.classes_of_degree(n)) for n in range(N + 1)]

