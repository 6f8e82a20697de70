"""Fixed job lists of the three workloads, each job pinned to an expected
answer taken from a source independent of precut.

A job is one command in a fresh interpreter.  Jobs are grouped into units;
the seed shuffles the units of a workload and never the jobs inside one, so
a warm-cache job always follows the cold job that filled its cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial

# -- independent sources ---------------------------------------------------


def factorials(nmax):
    """Permutations of n letters: n!."""
    return [factorial(n) for n in range(nmax + 1)]


def catalan(nmax):
    """213-avoiding permutations: the Catalan numbers C(2n, n)/(n+1)."""
    return [comb(2 * n, n) // (n + 1) for n in range(nmax + 1)]


def separable(nmax):
    """3142- and 2413-avoiding (separable) permutations: 1 for n = 0, then the
    large Schröder numbers r(n-1), from (k+1) r(k) = 3(2k-1) r(k-1) - (k-2) r(k-2)."""
    r = [1, 2]
    while len(r) < nmax:
        k = len(r)
        r.append((3 * (2 * k - 1) * r[k - 1] - (k - 2) * r[k - 2]) // (k + 1))
    return [1] + r[:nmax]


def partitions(nmax):
    """Posets avoiding the cherry and the V are disjoint unions of chains, one
    per integer partition: p(n) by the coin-change recurrence."""
    p = [1] + [0] * nmax
    for part in range(1, nmax + 1):
        for n in range(part, nmax + 1):
            p[n] += p[n - part]
    return p


def parking_functions(nmax):
    """Parking functions of length n: (n+1)^(n-1)."""
    return [(n + 1) ** (n - 1) if n else 1 for n in range(nmax + 1)]


# OEIS A000088, unlabeled simple graphs on n vertices
UNLABELED_GRAPHS = (1, 1, 2, 4, 11, 34, 156)

# Orbit classes of parking pairs on 4 points.  No closed form is known; the
# benchmark's tests recount it by Burnside's lemma over relabelings only.
PARKING_CLASSES_4 = 819


# -- jobs --------------------------------------------------------------------


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple  # arguments after the program: "cli ..." or "fm <N>"
    expect_exit: int
    expect: dict  # keys that must appear in the JSON answer, with their values
    source: str  # where the expected answer comes from
    cache: str = ""  # "cold" fills a fresh cache dir, "warm" reads it


def _verify(instance, check, nmax, extra=()):
    return Job(
        f"verify-{check}-{instance}-n{nmax}",
        ("cli", "verify", "--instance", instance, "--check", check, "--nmax", str(nmax), *extra),
        0,
        {"passed": True, "stage": None},
        "the paper's theorem for this instance",
    )


def _fock(instance, N, dims, source, avoid=None):
    extra = ("--avoid", avoid) if avoid else ()
    label = f"{instance}-{avoid}" if avoid else instance
    return tuple(
        Job(
            f"fock-{label}-N{N}-{phase}",
            ("cli", "fock", "--instance", instance, *extra, "--N", str(N)),
            0,
            {"dimensions": dims, "axioms_pass": True},
            source,
            cache=phase,
        )
        for phase in ("cold", "warm")
    )


def _dims(preset, nmax, dims, source):
    return Job(
        f"avoid-{preset}-n{nmax}",
        ("cli", "avoid", "--preset", preset, "--nmax", str(nmax)),
        0,
        {"dimensions": dims},
        source,
    )


def _irreducible(preset, which, nmax):
    return Job(
        f"irreducible-{preset}-n{nmax}",
        ("cli", "avoid", "--preset", preset, "--check-irreducible", str(which), "--nmax", str(nmax)),
        0,
        {"irreducible": {"passed": True, "stage": None, "witness": None}},
        "the paper's irreducibility theorem for this preset",
    )


WORKLOADS = {
    "verify": (
        (_verify("perm_m", "intertwined", 4),),
        (_verify("perm_f", "intertwined", 4),),
        (_verify("tensor", "intertwined", 4),),
        (_verify("preorders", "intertwined", 4),),
        (_verify("graphs", "intertwined", 4),),
        (_verify("perm_m", "bimonoid", 4, ("--coproduct", "1")),),
        (_verify("tensor", "bimonoid", 4, ("--coproduct", "1")),),
        (
            Job(
                "verify-intertwined-nn-n3",
                ("cli", "verify", "--instance", "nn", "--check", "intertwined", "--nmax", "3"),
                1,
                {"passed": False, "stage": "ExtensionUniqueness"},
                "negative control: the nn master species is not a bimonoid (criterion 4)",
            ),
        ),
        _fock("graphs", 4, list(UNLABELED_GRAPHS[:5]), "OEIS A000088"),
    ),
    "fock": (
        _fock("perm_f", 5, factorials(5), "n! permutations"),
        (
            Job(
                "enum-classes-parking-n4",
                ("cli", "enum", "--instance", "parking", "--n", "4", "--classes"),
                0,
                {"classes": PARKING_CLASSES_4},
                "Burnside count over relabelings (perfbench/test_perfbench.py)",
            ),
        ),
        (
            Job(
                "change-of-basis-F-M-N4",
                ("fm", "4"),
                0,
                {"dims_f": factorials(4), "dims_m": factorials(4), "unitriangular": True},
                "Aguiar-Sottile: F and M bases are related by a unitriangular change",
            ),
        ),
    ),
    "quotients": (
        (_dims("213", 5, catalan(5), "Catalan numbers"),),
        (_dims("3142+2413", 5, separable(5), "large Schröder numbers (separable permutations)"),),
        (_irreducible("213", 1, 5),),
        (_irreducible("cherry+V", 2, 5),),
        (_dims("cherry+V", 4, partitions(4), "integer partitions"),),
        (_dims("mr-in-parking", 4, factorials(4), "n! permutations"),),
        (_dims("nondecreasing-parking", 4, parking_functions(4), "(n+1)^(n-1) parking functions"),),
        (_irreducible("nondecreasing-parking", 2, 4),),
        _fock("perm_m", 4, catalan(4), "Catalan numbers (Loday-Ronco)", avoid="213"),
    ),
}


def check_answer(job, code, answer):
    """Why the job's exit code or JSON answer is wrong, or None if right."""
    if code != job.expect_exit:
        return f"exit {code}, expected {job.expect_exit}"
    if not isinstance(answer, dict):
        return "no JSON object on stdout"
    for key, want in job.expect.items():
        got = answer.get(key)
        if key == "classes" and isinstance(got, list):
            got = len(got)
        if got != want:
            return f"{key} = {got!r}, expected {want!r} ({job.source})"
    return None
