"""Per-layer counters for one precut job, gathered from outside the program.

`install` wraps the public functions of each precut module and the
species methods of every shipped instance class, and rebinds every name
under which a precut module holds them, so `from .preorder import is_cut`
and aliases such as `restrict as preorder_restrict` are counted too.
Counts and times accumulate in memory; spans are kept for the entry points
only (verifiers, table builders, cache reads), and everything is written
once when the job ends.

Times are inclusive: a verifier's seconds contain the seconds of the
preorder and instance calls it makes.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import statistics
import sys
import time

# (module, function, layer metric prefix, outcome counted in the ratio, span)
FUNCTIONS = (
    ("preorder", "is_cut", "preorder.is_cut", bool, False),
    ("preorder", "restrict", "preorder.restrict", None, False),
    ("preorder", "cuts", "preorder.cuts", None, False),
    ("species", "delta", "species.delta", lambda out: out is not None, False),
    ("species", "mu", "species.mu", None, False),
    ("species", "mu_bucket", "species.mu_bucket", None, False),
    ("species", "check_species_over_preorders", "species.check_species_over_preorders", None, True),
    ("species", "check_intertwined", "species.check_intertwined", None, True),
    ("species", "check_bimonoid", "species.check_bimonoid", None, True),
    ("avoidance", "has_part", "avoidance.has_part", bool, False),
    ("avoidance", "is_irreducible", "avoidance.is_irreducible", None, True),
    ("fock", "fock_tables", "fock.fock_tables", None, True),
    ("fock", "verify_hopf_axioms", "fock.verify_hopf_axioms", None, True),
    ("fock", "check_isomorphism_by_change_of_basis", "fock.change_of_basis", None, True),
    ("fock", "graded_dimensions", "fock.graded_dimensions", None, True),
    ("fock", "table_from_json", "fock.table_from_json", None, True),
)

# species methods of the instance classes, by the layer name they count under
METHODS = {
    "restrict": "instances.restrict",
    "relabel": "instances.relabel",
    "serialize": "instances.serialize",
    "pi1": "instances.pi",
    "pi2": "instances.pi",
}


class Tracer:
    def __init__(self):
        self.start = time.perf_counter()
        self.stats = {}  # name -> [calls, true outcomes, seconds]
        self.spans = []  # [name, start, end, parent span index or None]
        self._open = []
        self.elements = 0  # elements enumerated, once per (instance, ground size)
        self.classes = {}  # id(instance) -> canonical representatives seen

    def _stat(self, name):
        return self.stats.setdefault(name, [0, 0, 0.0])

    def wrap(self, name, fn, outcome=None, span=False):
        stat = self._stat(name)
        clock = time.perf_counter

        if span:
            spans, open_ = self.spans, self._open

            def traced(*args, **kwargs):
                index = len(spans)
                spans.append([name, clock() - self.start, None, open_[-1] if open_ else None])
                open_.append(index)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    stat[2] += clock() - t0
                    stat[0] += 1
                    open_.pop()
                    spans[index][2] = clock() - self.start

        else:

            def traced(*args, **kwargs):
                t0 = clock()
                out = fn(*args, **kwargs)
                stat[2] += clock() - t0
                stat[0] += 1
                if outcome is not None and outcome(out):
                    stat[1] += 1
                return out

        return traced

    def wrap_pi(self, fn):
        """The cached projection: a hit is a call that computed no raw pi1/pi2."""
        stat, raw = self._stat("species.pi"), self._stat("instances.pi")

        def pi(inst, which, s):
            before = raw[0]
            out = fn(inst, which, s)
            stat[0] += 1
            if raw[0] == before:
                stat[1] += 1
            return out

        return pi

    def wrap_elements(self, fn):
        """The cached enumeration: time only the outermost cache miss, and count
        each instance's elements once per ground size (other grounds of that
        size hold relabeled copies)."""
        stat = self._stat("instances.enumerate")
        seen, sizes, keep, depth = set(), set(), [], [0]
        clock = time.perf_counter

        def elements(inst, ground):
            key = (id(inst), frozenset(ground))
            if key in seen:
                return fn(inst, ground)
            seen.add(key)
            keep.append(inst)  # pins id(inst) for the life of the job
            depth[0] += 1
            t0 = clock()
            try:
                out = fn(inst, ground)
            finally:
                depth[0] -= 1
            if not depth[0]:
                stat[2] += clock() - t0
                stat[0] += 1
            if (id(inst), len(key[1])) not in sizes:
                sizes.add((id(inst), len(key[1])))
                self.elements += len(out)
            return out

        return elements

    def wrap_canonical_form(self, fn):
        inner = self.wrap("fock.canonical_form", fn)
        classes = self.classes

        def canonical_form(inst, s):
            out = inner(inst, s)
            classes.setdefault(id(inst), set()).add(out[0])
            return out

        return canonical_form

    def dump(self, path, import_s):
        data = {
            "import_s": import_s,
            "stats": self.stats,
            "elements": self.elements,
            "classes": sum(len(reps) for reps in self.classes.values()),
            "spans": self.spans,
        }
        with open(path, "w") as fh:
            json.dump(data, fh)


def _rebind(modules, old, new):
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)


def install(tracer):
    """Wrap every precut layer in this process; precut must be imported."""
    instances = sys.modules["precut.instances"]
    for info in pkgutil.iter_modules(instances.__path__):  # some load lazily
        importlib.import_module(f"precut.instances.{info.name}")
    modules = [m for name, m in sys.modules.items() if name == "precut" or name.startswith("precut.")]
    species = sys.modules["precut.species"]
    fock = sys.modules["precut.fock"]
    for module, name, metric, outcome, span in FUNCTIONS:
        fn = getattr(sys.modules[f"precut.{module}"], name)
        _rebind(modules, fn, tracer.wrap(metric, fn, outcome, span))
    _rebind(modules, fock.canonical_form, tracer.wrap_canonical_form(fock.canonical_form))
    # the intertwining check fock_tables runs before it builds or reads a table
    fock.check_intertwined = tracer.wrap("fock.precondition", fock.check_intertwined, span=True)

    base = species.SpeciesInstance
    base.pi = tracer.wrap_pi(base.pi)
    base.elements = tracer.wrap_elements(base.elements)
    for module in modules:
        if not module.__name__.startswith("precut.instances"):
            continue
        for cls in list(vars(module).values()):
            if not (isinstance(cls, type) and issubclass(cls, base) and cls.__module__ == module.__name__):
                continue
            for method, metric in METHODS.items():
                if method in vars(cls):
                    setattr(cls, method, tracer.wrap(metric, vars(cls)[method]))


def _ratio(part, whole):
    return part / whole if whole else 0.0


def layer_metrics(traces):
    """Per-layer metrics summed over the traces of one workload's jobs."""
    stats = {}
    for trace in traces:
        for name, (calls, true, seconds) in trace["stats"].items():
            total = stats.setdefault(name, [0, 0, 0.0])
            total[0] += calls
            total[1] += true
            total[2] += seconds

    def calls(name):
        return stats.get(name, [0, 0, 0.0])[0]

    def true_ratio(name):
        c, t, _ = stats.get(name, [0, 0, 0.0])
        return _ratio(t, c)

    def seconds(name):
        return stats.get(name, [0, 0, 0.0])[2]

    return {
        "preorder.is_cut.calls": (calls("preorder.is_cut"), "count"),
        "preorder.is_cut.true_ratio": (true_ratio("preorder.is_cut"), "ratio"),
        "preorder.is_cut.s": (seconds("preorder.is_cut"), "s"),
        "preorder.restrict.calls": (calls("preorder.restrict"), "count"),
        "preorder.restrict.s": (seconds("preorder.restrict"), "s"),
        "preorder.cuts.calls": (calls("preorder.cuts"), "count"),
        "instances.restrict.calls": (calls("instances.restrict"), "count"),
        "instances.restrict.s": (seconds("instances.restrict"), "s"),
        "instances.relabel.calls": (calls("instances.relabel"), "count"),
        "instances.relabel.s": (seconds("instances.relabel"), "s"),
        "instances.serialize.calls": (calls("instances.serialize"), "count"),
        "instances.pi.calls": (calls("instances.pi"), "count"),
        "instances.pi.s": (seconds("instances.pi"), "s"),
        "instances.elements.count": (sum(t["elements"] for t in traces), "count"),
        "instances.enumerate.s": (seconds("instances.enumerate"), "s"),
        "species.check_species_over_preorders.s": (seconds("species.check_species_over_preorders"), "s"),
        "species.check_intertwined.s": (seconds("species.check_intertwined"), "s"),
        "species.check_bimonoid.s": (seconds("species.check_bimonoid"), "s"),
        "species.pi.calls": (calls("species.pi"), "count"),
        "species.pi.hit_ratio": (true_ratio("species.pi"), "ratio"),
        "species.delta.calls": (calls("species.delta"), "count"),
        "species.delta.nonzero_ratio": (true_ratio("species.delta"), "ratio"),
        "species.mu.calls": (calls("species.mu"), "count"),
        "species.mu.s": (seconds("species.mu"), "s"),
        "species.mu_bucket.calls": (calls("species.mu_bucket"), "count"),
        "avoidance.has_part.calls": (calls("avoidance.has_part"), "count"),
        "avoidance.has_part.s": (seconds("avoidance.has_part"), "s"),
        "avoidance.has_part.true_ratio": (true_ratio("avoidance.has_part"), "ratio"),
        "avoidance.is_irreducible.s": (seconds("avoidance.is_irreducible"), "s"),
        "fock.canonical_form.calls": (calls("fock.canonical_form"), "count"),
        "fock.canonical_form.s": (seconds("fock.canonical_form"), "s"),
        "fock.precondition.s": (seconds("fock.precondition"), "s"),
        "fock.fock_tables.s": (seconds("fock.fock_tables"), "s"),
        "fock.verify_hopf_axioms.s": (seconds("fock.verify_hopf_axioms"), "s"),
        "fock.change_of_basis.s": (seconds("fock.change_of_basis"), "s"),
        "fock.classes": (sum(t["classes"] for t in traces), "count"),
        "fock.graded_dimensions.s": (seconds("fock.graded_dimensions"), "s"),
        "fock.table_from_json.s": (seconds("fock.table_from_json"), "s"),
        "cli.import_s": (statistics.median(t["import_s"] for t in traces), "s"),
    }
