import hashlib
import io
import json
import os
import shlex
import subprocess
import sys

import pytest

import precut
from precut.cli import main
from precut.instances import _BUILDERS, AVOIDANCE_PRESETS, build_instance
from precut.preorder import cuts

from oracles import pair_from_word


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--json")
    return code, json.loads(out) if out.strip() else None


def test_enum_perm_classes(capsys):
    code, data = run_json(capsys, "enum", "--instance", "perm_f", "--n", "3", "--classes")
    assert code == 0
    assert len(data["classes"]) == 6


def test_enum_preorders_count(capsys):
    code, data = run_json(capsys, "enum", "--instance", "preorders", "--n", "3")
    assert code == 0
    assert len(data["elements"]) == 29


def test_enum_unknown_instance(capsys):
    assert main(["enum", "--instance", "who", "--n", "1"]) == 2


def test_verify_pass_and_fail_exit_codes(capsys):
    code, data = run_json(
        capsys, "verify", "--instance", "colored", "--check", "intertwined", "--nmax", "3"
    )
    assert code == 0 and data["passed"]
    code, data = run_json(
        capsys, "verify", "--instance", "broken_dc", "--check", "intertwined", "--nmax", "2"
    )
    assert code == 1 and not data["passed"]
    assert data["witness"]["completions"] == 0


def test_verify_bimonoid_parking(capsys):
    code, data = run_json(
        capsys, "verify", "--instance", "parking", "--check", "bimonoid", "--nmax", "3"
    )
    assert code == 0 and data["passed"]


def test_avoid_preset_dims(capsys):
    code, data = run_json(capsys, "avoid", "--preset", "213", "--nmax", "4")
    assert code == 0
    assert data["dimensions"] == [1, 1, 2, 5, 14]


def test_avoid_check_irreducible(capsys):
    code, data = run_json(
        capsys, "avoid", "--preset", "213", "--check-irreducible", "1", "--nmax", "3"
    )
    assert code == 0 and data["irreducible"] == {"passed": True, "stage": None, "witness": None}
    # perm_m has n! orbit classes of (n!)^2 elements; only the class of 213 has a part
    assert [(d["degree"], d["elements"], d["classes"], d["with_part"]) for d in data["stats"]] == [
        (0, 1, 1, 0),
        (1, 1, 1, 0),
        (2, 4, 2, 0),
        (3, 36, 6, 1),
    ]
    assert data["stats"][3]["cuts"] == len(cuts(build_instance("perm_m").pi1(pair_from_word((2, 1, 3)))))


def test_avoid_check_irreducible_without_a_single_claim_is_usage_error(capsys):
    # mr-in-parking removes pairs by both filtrations and claims no coproduct irreducible
    assert main(["avoid", "--preset", "mr-in-parking", "--check-irreducible", "2", "--nmax", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "no single irreducibility claim" in captured.err


def test_fock_summary_and_export(tmp_path, capsys):
    out = tmp_path / "table.json"
    code, data = run_json(
        capsys,
        "fock",
        "--instance",
        "perm_f",
        "--N",
        "3",
        "--out",
        str(out),
    )
    assert code == 0
    assert data["dimensions"] == [1, 1, 2, 6]
    assert data["axioms_pass"]
    exported = json.loads(out.read_text())
    assert exported["N"] == 3 and len(exported["classes"]) == 10


def test_fock_csv_export(tmp_path, capsys):
    out = tmp_path / "table.csv"
    code, _ = run_json(
        capsys,
        "fock",
        "--instance",
        "colored",
        "--palette",
        "1",
        "--N",
        "2",
        "--out",
        str(out),
        "--format",
        "csv",
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "kind,a,b,left,right,c,coeff"
    assert len(lines) > 5


def test_fock_format_without_out_is_usage_error(capsys):
    # only a table written with --out has a format, so a --format alone would be ignored
    assert main(["fock", "--instance", "colored", "--palette", "1", "--N", "2", "--format", "csv"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and "--out" in captured.err


def test_fock_cache_determinism(tmp_path, capsys):
    cache = tmp_path / "cache"
    args = (
        "fock",
        "--instance",
        "graphs",
        "--N",
        "3",
        "--cache-dir",
        str(cache),
        "--out",
    )
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run_json(capsys, *args, str(out1))[0] == 0
    (table,) = cache.iterdir()
    cold = os.stat(table)
    assert run_json(capsys, *args, str(out2))[0] == 0
    assert out1.read_text() == out2.read_text()
    # the warm run reads the one cached table and leaves it as it was
    assert list(cache.iterdir()) == [table]
    warm = os.stat(table)
    assert (warm.st_ino, warm.st_mtime_ns, warm.st_size) == (
        cold.st_ino,
        cold.st_mtime_ns,
        cold.st_size,
    )


def test_fock_cache_dir_from_the_environment(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PRECUT_CACHE_DIR", str(tmp_path))
    code, data = run_json(capsys, "fock", "--instance", "colored", "--palette", "1", "--N", "2")
    assert code == 0 and data["axioms_pass"]
    (table,) = tmp_path.iterdir()
    assert table.suffix == ".json"


def test_fock_refuses_unverified_instance(tmp_path, capsys):
    code = main(["fock", "--instance", "cc", "--N", "3"])
    assert code == 2
    cached = ("--cache-dir", str(tmp_path))
    code, data = run_json(capsys, "fock", "--instance", "cc", "--N", "3", "--force", *cached)
    assert code == 1 and not data["axioms_pass"]
    # the forced table is cached under its own key and never served unforced
    assert main(["fock", "--instance", "cc", "--N", "3", *cached]) == 2
    assert "fails intertwining" in capsys.readouterr().err


def test_check_square_from_file(tmp_path, capsys):
    ident = {"source": [1, 2], "target": [1, 2], "coeff": [[1, 0], [0, 1]]}
    square = {"alpha": ident, "beta": ident, "gamma": ident, "delta": ident}
    f = tmp_path / "sq.json"
    f.write_text(json.dumps(square))
    code, data = run_json(capsys, "check-square", "--file", str(f))
    assert code == 0 and data["ok"]
    bad = dict(square, delta={"source": [1, 2], "target": [1, 2], "coeff": [[1, 0], [1, 0]]})
    f.write_text(json.dumps(bad))
    code, data = run_json(capsys, "check-square", "--file", str(f), "--mode", "dual-commute")
    assert code == 1 and not data["ok"]


def test_preorder_calculator(capsys):
    chain = {"ground": ["a", "b"], "rel": [[True, True], [False, True]]}
    rev = {"ground": ["a", "b"], "rel": [[True, False], [True, True]]}
    code, data = run_json(
        capsys, "preorder", "--op", "join", "--p", json.dumps(chain), "--q", json.dumps(rev)
    )
    assert code == 0
    assert all(all(row) for row in data["rel"])
    code, data = run_json(
        capsys,
        "preorder",
        "--op",
        "closure",
        "--p",
        json.dumps({"ground": ["a", "b", "c"], "pairs": [["a", "b"], ["b", "c"]]}),
    )
    assert code == 0 and data["rel"][0][2] is True
    code, data = run_json(capsys, "preorder", "--op", "cuts", "--p", json.dumps(chain))
    assert code == 0 and data == [[], ["a"], ["a", "b"]]
    code, data = run_json(capsys, "preorder", "--op", "predicates", "--p", json.dumps(chain))
    assert code == 0 and data["total_order"]


def test_parking_calculator(capsys):
    payload = {"ground": ["a", "b", "c"], "chain": [["a"], ["a"], ["a", "b", "c"], ["a", "b", "c"]]}
    code, data = run_json(capsys, "parking", "--chain", json.dumps(payload))
    assert code == 0
    assert data["dilation"] == [0, 1, 3, 4]
    assert data["break_points"] == [0, 1, 3]
    assert data["parkization"] == [["a"], ["a", "b", "c"], ["a", "b", "c"]]


@pytest.mark.parametrize(
    "payload", [{"ground": [1, 1], "chain": [[1]]}, {"ground": [1, 2], "chain": [[1, 2, 2]]}]
)
def test_parking_repeated_labels_are_usage_error(payload):
    # both used to exit 0 with the answer for the ground [1] or the step [1, 2]
    src = os.path.dirname(os.path.dirname(os.path.abspath(precut.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "precut.cli", "parking", "--chain", json.dumps(payload)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: duplicate labels") and "Traceback" not in proc.stderr


def test_parking_enumeration(capsys):
    code, data = run_json(capsys, "parking", "--enumerate", "3")
    assert code == 0 and data["count"] == 16


@pytest.mark.parametrize("n", ["-1", "8", "30"])
def test_parking_enumeration_outside_bounds_is_usage_error(capsys, n):
    # -1 used to print one empty chain; 30 would loop over 30^30 tuples
    assert main(["parking", "--enumerate", n]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["enum", "--instance", "colored", "--palette", "-1", "--n", "2"],
        ["enum", "--instance", "colored", "--palette", "0", "--n", "2"],
        ["verify", "--instance", "tensor", "--palette", "0", "--check", "intertwined"],
        ["verify", "--instance", "broken_dc", "--palette", "0", "--check", "intertwined"],
    ],
)
def test_palette_below_one_is_usage_error(capsys, argv):
    # an empty palette makes an empty species, which passes every check vacuously
    assert main(argv) == 2
    assert "palette" in capsys.readouterr().err


PALETTE_SPECIES = ("colored", "tensor", "broken_dc", "broken_monotone", "broken_cut")


@pytest.mark.parametrize(
    "instance",
    [("--instance", name) for name in _BUILDERS]
    + [("--instance", parent, "--avoid", preset) for preset, (parent, _, _) in AVOIDANCE_PRESETS.items()],
    ids=lambda instance: "/".join(instance[1::2]),
)
def test_palette_is_refused_where_it_would_be_ignored(capsys, instance):
    code = main(["enum", *instance, "--palette", "2", "--n", "1"])
    err = capsys.readouterr().err
    if len(instance) == 2 and instance[1] in PALETTE_SPECIES:
        assert code == 0 and err == ""
    else:
        assert code == 2
        assert err.startswith("error: ") and repr(instance[1]) in err and "palette" in err


@pytest.mark.parametrize("name,incidences", [("perm_f", 14400), ("perm_m", 14472)])
def test_verify_json_reports_per_degree_counts(capsys, name, incidences):
    code, data = run_json(
        capsys, "verify", "--instance", name, "--check", "intertwined", "--nmax", "4"
    )
    assert code == 0
    assert set(data) == {"check", "instance", "nmax", "passed", "stage", "stats", "witness"}
    assert data["stats"][-1] == {
        "degree": 4,
        "elements": 576,
        "incidences": incidences,
        "completions": incidences,
        "sides": 162,
    }
    # each degree builds every split side (which, ground, down) once
    assert [d["sides"] for d in data["stats"]] == [2 * 3**n for n in range(5)]
    inst = build_instance(name)
    assert [d["incidences"] for d in data["stats"]] == [
        sum(len(cuts(inst.pi1(s))) * len(cuts(inst.pi2(s))) for s in inst.elements(range(1, n + 1)))
        for n in range(5)
    ]


def test_verify_stats_for_every_check(capsys):
    code, data = run_json(
        capsys, "verify", "--instance", "graphs", "--check", "bimonoid", "--nmax", "3"
    )
    assert code == 0
    # a passing check has one completion per doubly-cut incidence
    assert [(d["incidences"], d["completions"], d["sides"]) for d in data["stats"]] == [
        (1, 1, 2), (4, 4, 6), (24, 24, 18), (224, 224, 54)
    ]
    code, data = run_json(
        capsys, "verify", "--instance", "graphs", "--check", "preorders", "--nmax", "3"
    )
    assert code == 0
    # each element is restricted to every subset, and both sides of every cut
    # of both projections are compared; counts only, no seconds
    inst = build_instance("graphs")
    els = [inst.elements(range(1, n + 1)) for n in range(4)]
    assert data["stats"] == [
        {
            "degree": n,
            "elements": len(els[n]),
            "restrictions": len(els[n]) * 2**n,
            "cut_sides": sum(2 * (len(cuts(inst.pi1(s))) + len(cuts(inst.pi2(s)))) for s in els[n]),
        }
        for n in range(4)
    ]


def test_failing_precondition_stats(capsys):
    # broken_monotone fails on its first element of degree 3, at its fifth subset
    code, data = run_json(
        capsys, "verify", "--instance", "broken_monotone", "--check", "preorders", "--nmax", "3"
    )
    assert code == 1 and data["stage"] == "ProjectionMonotonicity"
    assert [(d["elements"], d["restrictions"]) for d in data["stats"]] == [
        (1, 1), (2, 4), (4, 16), (8, 5)
    ]
    assert data["stats"][-1]["cut_sides"] == 0
    # intertwining reports only its own four-block counts
    code, data = run_json(
        capsys, "verify", "--instance", "broken_monotone", "--check", "intertwined", "--nmax", "3"
    )
    assert code == 1 and data["stage"] == "ProjectionMonotonicity" and data["stats"] == []


@pytest.mark.parametrize(
    "name,counts,sides",
    [
        ("nn", [(1, 1, 1), (1, 4, 4), (8, 60, 60), (85, 1204, 206)], 54),
        ("broken_dc", [(1, 1, 1), (2, 8, 8), (4, 32, 12)], 17),
    ],
)
def test_failing_bimonoid_stats(capsys, name, counts, sides):
    code, data = run_json(
        capsys, "verify", "--instance", name, "--check", "bimonoid", "--nmax", "3"
    )
    assert code == 1 and data["stage"] == "Compatibility"
    stats = data["stats"]
    assert [(d["elements"], d["incidences"], d["completions"]) for d in stats] == counts
    # the failing degree counts every side it built, the earlier stages' too
    assert [d["sides"] for d in stats] == [2 * 3**n for n in range(len(stats) - 1)] + [sides]


def test_pairs_calculator(capsys):
    d = {"ground": [1, 2], "rel": [[True, False], [False, True]]}
    c = {"ground": [1, 2], "rel": [[True, True], [True, True]]}
    code, data = run_json(
        capsys, "pairs", "--op", "membership", "--data", json.dumps({"p": d, "q": d})
    )
    assert code == 0
    assert data == {"cc": False, "nc": False, "nn": True}
    code, data = run_json(
        capsys, "pairs", "--op", "matrix", "--data", json.dumps({"p": c, "q": c})
    )
    assert code == 0 and data == [[2]]
    payload = {
        "kind": "nn",
        "frame1": d,
        "frame2": d,
        "refine1": [],
        "refine2": [],
    }
    code, data = run_json(capsys, "pairs", "--op", "generate", "--data", json.dumps(payload))
    assert code == 0
    assert data["p"] == d


@pytest.mark.parametrize(
    "op,grounds", [("membership", ([1], [2])), ("matrix", ([1, 2], [3, 4]))], ids=["membership", "matrix"]
)
def test_pairs_on_different_grounds_is_usage_error(capsys, op, grounds):
    # p and q must share a ground, as for meet and join: no pair type or matrix is defined otherwise
    p, q = ({"ground": g, "rel": [[True] * len(g)] * len(g)} for g in grounds)
    assert main(["pairs", "--op", op, "--data", json.dumps({"p": p, "q": q})]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def _readme_examples():
    """The `precut ...` commands of README.md, backslash continuations joined."""
    text = open(os.path.join(os.path.dirname(__file__), "..", "README.md")).read()
    return [
        line.strip()
        for line in text.replace("\\\n", " ").splitlines()
        if line.startswith("precut ")
    ]


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    # each example runs as written from a directory that holds the square.json it names
    ident = {"source": [1], "target": [1], "coeff": [[1]]}
    (tmp_path / "square.json").write_text(json.dumps(dict.fromkeys(("alpha", "beta", "gamma", "delta"), ident)))
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("PRECUT_CACHE_DIR", raising=False)
    examples = _readme_examples()
    assert len(examples) == 15
    codes = {}
    for example in examples:
        codes[example] = main(shlex.split(example, comments=True)[1:])
        capsys.readouterr()
    assert codes == {example: 1 if "broken_dc" in example else 0 for example in examples}


def test_bad_json_is_usage_error(capsys):
    assert main(["parking", "--chain", "{broken"]) == 2


def test_fock_equal_coproduct_indices_is_usage_error(capsys):
    assert main(["fock", "--instance", "colored", "--delta", "1", "--mu", "1", "--N", "2"]) == 2
    assert "must differ" in capsys.readouterr().err


def test_fock_product_through_a_projection_that_is_not_natural_is_refused(capsys):
    assert main(["fock", "--instance", "broken_cut", "--N", "3", "--force", "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: broken_cut[2]: the product of classes")
    assert captured.err.endswith("pi2 is not natural\n")
    # its first projection is discrete, so the product through pi1 builds
    code, data = run_json(
        capsys, "fock", "--instance", "broken_cut", "--N", "3", "--force", "--delta", "2", "--mu", "1"
    )
    assert code == 1 and data["dimensions"] == [1, 2, 3, 4]


@pytest.mark.parametrize(
    "argv",
    [
        ["enum", "--instance", "perm_f", "--n", "-1"],
        ["enum", "--instance", "perm_f", "--n", "8", "--classes"],
        ["enum", "--instance", "perm_f", "--n", "7"],
        ["avoid", "--preset", "213", "--nmax", "7"],
        ["verify", "--instance", "perm_f", "--check", "intertwined", "--nmax", "-2"],
        ["verify", "--instance", "parking", "--check", "bimonoid", "--nmax", "5"],
        ["avoid", "--preset", "213", "--nmax", "-1"],
        ["avoid", "--preset", "cherry", "--check-irreducible", "2", "--nmax", "6"],
        ["fock", "--instance", "perm_f", "--N", "9"],
        ["fock", "--instance", "graphs", "--N", "-1"],
    ],
)
def test_degree_outside_cap_is_usage_error(capsys, argv):
    # refused before any enumeration: an unchecked run of these would hang or pass vacuously
    assert main(argv) == 2
    assert "outside 0.." in capsys.readouterr().err


def test_preorder_restrict_without_subset_is_usage_error(capsys):
    chain = {"ground": [1, 2], "rel": [[True, True], [False, True]]}
    assert main(["preorder", "--op", "restrict", "--p", json.dumps(chain)]) == 2
    assert "--subset" in capsys.readouterr().err


DISCRETE_2 = '{"ground": [1, 2], "rel": [[true, false], [false, true]]}'
ONE_BY_ONE = '{"ground": [1, 2], "rel": [[true]]}'
IRREFLEXIVE = '{"ground": [1, 2], "rel": [[false, false], [false, true]]}'
# a string read by truthiness would make 1 <= 2 and answer "total_order": true
REL_STRING = '{"ground": [1, 2], "rel": [[true, "false"], [false, true]]}'


@pytest.mark.parametrize(
    "argv, message",
    [
        (["preorder", "--op", "meet", "--p", ONE_BY_ONE, "--q", DISCRETE_2], "2 x 2"),
        (["preorder", "--op", "cuts", "--p", IRREFLEXIVE], "not reflexive"),
        (["preorder", "--op", "cuts", "--p", "[1, 2]"], "object"),
        (["pairs", "--op", "membership", "--data", '{"p": 1, "q": 2}'], "object"),
        (["preorder", "--op", "predicates", "--p", REL_STRING], "booleans"),
    ],
    ids=[
        "rel_not_square",
        "rel_not_reflexive",
        "preorder_not_object",
        "pair_side_not_object",
        "rel_not_booleans",
    ],
)
def test_malformed_preorder_payload_is_usage_error(capsys, argv, message):
    assert main(argv) == 2
    assert message in capsys.readouterr().err


ONE_TO_ONE = {"source": [1], "target": [1], "coeff": [[1]]}
# a square that commutes if the boolean is read as the coefficient 1
BOOL_SQUARE = dict.fromkeys(("beta", "gamma", "delta"), ONE_TO_ONE)
BOOL_SQUARE["alpha"] = dict(ONE_TO_ONE, coeff=[[True]])


@pytest.mark.parametrize(
    "payload",
    [
        "[1]",
        '{"alpha": {"source": [1], "target": [1], "coeff": [["x"]]}}',
        json.dumps(BOOL_SQUARE),
    ],
    ids=["not_object", "coeff_not_integers", "coeff_boolean"],
)
def test_malformed_square_payload_is_usage_error(capsys, monkeypatch, payload):
    monkeypatch.setattr(sys, "stdin", io.StringIO(payload))
    assert main(["check-square"]) == 2
    assert capsys.readouterr().err.startswith("error: a ")


ONE_POINT = {"ground": [1], "rel": [[True]]}
DISCRETE_2_OBJ = json.loads(DISCRETE_2)


@pytest.mark.parametrize(
    "argv",
    [
        ["parking", "--chain", '{"ground": [1, 2], "chain": 5}'],
        ["parking", "--chain", '{"ground": 5, "chain": [[1]]}'],
        ["parking", "--chain", '{"ground": [1], "chain": [5]}'],
        ["parking", "--chain", '{"ground": [[1]], "chain": [[[1]]]}'],
        ["parking", "--chain", '{"ground": [1, "a"], "chain": [[1, "a"]]}'],
        ["parking", "--chain", '{"ground": [1], "chain": [[1, "a"]]}'],
        ["parking", "--chain", "[1]"],
        ["pairs", "--op", "membership", "--data", "[1]"],
        ["pairs", "--op", "matrix", "--data", "[1]"],
        ["pairs", "--op", "generate", "--data", "[1]"],
        [
            "pairs", "--op", "generate", "--data",
            json.dumps({"kind": "nn", "frame1": ONE_POINT, "frame2": ONE_POINT, "refine1": [1]}),
        ],
        ["preorder", "--op", "closure", "--p", "[1]"],
        ["preorder", "--op", "closure", "--p", '{"ground": [1, 2], "pairs": [1]}'],
        ["preorder", "--op", "closure", "--p", '{"ground": [[1]], "pairs": []}'],
        ["preorder", "--op", "cuts", "--p", json.dumps(dict(DISCRETE_2_OBJ, ground=[1, "a"]))],
        ["preorder", "--op", "restrict", "--p", json.dumps(ONE_POINT), "--subset", "5"],
        ["preorder", "--op", "restrict", "--p", json.dumps(ONE_POINT), "--subset", "[[1]]"],
    ],
)
def test_malformed_payload_is_usage_error(capsys, argv):
    # each of these used to end in a TypeError traceback with exit 1
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["enum", "--instance", "colored", "--n", "2", "--palette", "1000000"],
        ["verify", "--instance", "broken_cut", "--palette", "1000", "--check", "intertwined"],
        ["enum", "--instance", "tensor", "--n", "6", "--palette", "3"],
    ],
)
def test_oversized_palette_is_refused_before_enumerating(capsys, argv):
    # palette^n (times n! for tensor) above (6!)^2 elements
    assert main(argv) == 2
    assert "above 518400" in capsys.readouterr().err


def test_unhashable_square_labels_are_usage_error(capsys, monkeypatch):
    one = {"source": [1], "target": [1], "coeff": [[1]]}
    square = {"alpha": dict(one, source=[[1]]), "beta": one, "gamma": one, "delta": one}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(square)))
    assert main(["check-square"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("case", ["directory", "non-utf8", "cache-dir-file", "out-directory"])
def test_unreadable_input_is_input_error(capsys, tmp_path, case):
    # each of these used to end in an OSError or UnicodeDecodeError traceback with exit 1
    blob = tmp_path / "blob"
    blob.write_bytes(b"\xff\xfe{")
    argv = {
        "directory": ["check-square", "--file", str(tmp_path)],
        "non-utf8": ["check-square", "--file", str(blob)],
        "cache-dir-file": ["fock", "--instance", "graphs", "--N", "2", "--cache-dir", str(blob)],
        "out-directory": ["fock", "--instance", "graphs", "--N", "2", "--out", str(tmp_path)],
    }[case]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and "Traceback" not in err


def test_closed_stdout_ends_quietly():
    # the listing is far larger than a pipe buffer, so the writer meets the closed pipe
    src = os.path.dirname(os.path.dirname(os.path.abspath(precut.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "precut.cli", "enum", "--instance", "perm_f", "--n", "5", "--json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline().strip() == b"{"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""


def test_benchmark_tracer_finds_what_it_wraps(tmp_path):
    # the benchmark's tracer looks up every layer it wraps by module and
    # name, so a traced job fails or prints otherwise once one is moved
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    child = os.path.join(root, "perfbench", "child.py")
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    job = ["cli", "enum", "--instance", "perm_f", "--n", "2", "--json"]
    trace = tmp_path / "trace.json"
    traced = subprocess.run(
        [sys.executable, child, "--trace", str(trace), *job], capture_output=True, env=env, timeout=60
    )
    plain = subprocess.run([sys.executable, child, *job], capture_output=True, env=env, timeout=60)
    assert traced.returncode == 0, traced.stderr.decode()
    assert plain.returncode == 0, plain.stderr.decode()
    assert traced.stdout == plain.stdout
    assert json.loads(trace.read_text())["stats"]


# SHA-256 of the `enum --json` listings of degrees 0..3 (packed_words 0..4),
# then of the `enum --classes --json` ones, for every CLI instance
ENUM_DIGESTS = {
    "colored": (
        "7cc7574fb3abd6e1d8d88fc7a77b81e40e521b6e7a27e7290bd2eeb9982aedee",
        "ec262437a7a2cecb82aca0041c321f8462518a7040119f01d264c3be4644c2fc",
    ),
    "tensor": (
        "3602a6ac67faab5a497a91b1b614e9f55b911efe1a201db9a0fa7df1e2a3b5f8",
        "d523fb0781e9583f45dc02c840f81036e4d0472ca97c9c5a08ffb96f4d8ce34b",
    ),
    "graphs": (
        "bf4571e3e882b5ee5a329ddf13ac91a45d23df541aed997f98e62cad4b262115",
        "c98488c95aa330c16242a1ffa66562ed71815d0fb8d6f52f5d0d3fe776d32ed7",
    ),
    "posets": (
        "b731bc99cbca09be50e53275678983fd2f21077099d595c7e7f73f938649e8d2",
        "a1e9f328b248f67fe110a6bb99a799fb2810bb69236f47e5fe83a128cec1c71a",
    ),
    "preorders": (
        "e5049081fd8a1432fe15d0c0999d6da4082b3cf9f57a3efe9216dcdaec9e129d",
        "dd963428936a1bb0de87c16700736da45c9c42546a677312e659915d427da151",
    ),
    "perm_f": (
        "8b8cc9d6bfb89bed2a4f21eae81ec99c678d63c453bb6378f767c25b7f3d2401",
        "88d9b800516250f3553e9e22a45c277ae4b83be80e7d88c23b21d46b1f886afd",
    ),
    "perm_m": (
        "95a9f49b86f0ccf1766a0819e405666f4a2f4e09c61d5db8885b1da90385fcf8",
        "01a2f1d14084f0ca461ad33003aab52574196e8d0415c9a032d4737a6658f263",
    ),
    "parking": (
        "af898a4736ae854b9b6a7c03fd8870c328c6d08f501bd185de4559902a803913",
        "42303bb95061afc107fa65fd6f47e9bed1cc837279dcdc3af44e96aa22388906",
    ),
    "cc": (
        "150056c62bf9672fdcd644086cc32698510b98e6dd7fbe9fd32766b917edc586",
        "3825e6df5a454607de11a28ecc4fc2b27d8aae6bce31a2b46416556bfb0d79d7",
    ),
    "nc": (
        "cd1b2be011cd6c4e10bc98a9c5005904328ae3091939774b71eb95c035f1a439",
        "38d8f807337a83fa7f45ffbf631a53e4cab86d5f399eccc514cb44976536bb12",
    ),
    "nn": (
        "29f4d3e84fed592e951ff0ff9f68f422959101b05529fceeafe7091d223d80ad",
        "725293b65bdd94fee886582c17664ead0fa73d03bb2aa392fd9716607c8e48b2",
    ),
    "packed_words": (
        "ee6b5b2312c0992d6a58bc74263d159fae9a05d0707909adf7be6dff367464da",
        "fd8c62e1c18ff3f7772bcba5d8edf12fef001901dcb04926dcccf098d2c3ccf1",
    ),
    "broken_dc": (
        "fe7c240706a9ca9c6256164b950a00dc6eb20c306048042faeed0bef4a460479",
        "df4e5aeeccd9c1b29560e21e416885845503cc740466386a4a82a3ffabe5f762",
    ),
    "broken_monotone": (
        "1f21689173e7d29b9c71300de77dba7237445f0fa609199a7bf150f8a748377e",
        "4b72a1f06e83273efcc54b64ab8a8bd26be1e14cf026f67bdd71a6dc1e9f1518",
    ),
    "broken_cut": (
        "48f9a2f86be44c6117f5bd7d51cc70222bebefc421dcd007019553697cc46fb3",
        "3d82964c4e51733317a2c1f243fd047272f9665d564113f84383d7efb1b6f7c5",
    ),
}


@pytest.mark.parametrize("name", sorted(_BUILDERS))
def test_enum_elements_and_class_ids_are_pinned(capsys, name):
    # the serialized elements, in order, and the class ids are the keys of
    # every Fock table, its JSON and the witnesses, so a change to an
    # instance must leave them byte for byte as they were
    got = []
    for flags in ((), ("--classes",)):
        digest = hashlib.sha256()
        for n in range(5 if name == "packed_words" else 4):
            code, out = run(capsys, "enum", "--instance", name, "--n", str(n), "--json", *flags)
            assert code == 0
            digest.update(out.encode())
        got.append(digest.hexdigest())
    assert tuple(got) == ENUM_DIGESTS[name]
