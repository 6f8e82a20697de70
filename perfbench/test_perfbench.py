"""Self-tests of the benchmark: pinned answers, cache isolation and tracing.

    PYTHONPATH=src python -m pytest perfbench -q

They stay out of the timed path; run.py never imports this file.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from math import factorial

import jobs
import run

sys.path.insert(0, str(run.ROOT / "src"))


def _avoids(word, pattern):
    k = len(pattern)
    for idx in itertools.combinations(range(len(word)), k):
        sub = [word[i] for i in idx]
        if all((sub[a] < sub[b]) == (pattern[a] < pattern[b]) for a in range(k) for b in range(k)):
            return False
    return True


def test_closed_forms_match_brute_force_counts():
    for n in range(6):
        perms = list(itertools.permutations(range(n)))
        assert jobs.factorials(5)[n] == len(perms)
        assert jobs.catalan(5)[n] == sum(_avoids(w, (1, 0, 2)) for w in perms)
        assert jobs.separable(5)[n] == sum(
            _avoids(w, (2, 0, 3, 1)) and _avoids(w, (1, 3, 0, 2)) for w in perms
        )
        # partitions of n as weakly decreasing tuples
        parts = {tuple(sorted(c, reverse=True)) for k in range(n + 1)
                 for c in itertools.product(range(1, n + 1), repeat=k) if sum(c) == n}
        assert jobs.partitions(5)[n] == len(parts)
    for n in range(5):
        # parking functions: sequences whose sorted i-th entry is at most i
        count = sum(
            all(v <= i for i, v in enumerate(sorted(seq)))
            for seq in itertools.product(range(n), repeat=n)
        )
        assert jobs.parking_functions(4)[n] == count


def test_parking_classes_by_burnside():
    """Orbits = average number of elements each relabeling fixes; this uses
    only enumeration and relabel, not precut's canonical forms."""
    from precut.instances import build_instance

    inst = build_instance("parking")
    ground = (1, 2, 3, 4)
    els = inst.elements(ground)
    fixed = sum(
        inst.relabel(s, dict(zip(ground, image))) == s
        for image in itertools.permutations(ground)
        for s in els
    )
    assert Fraction(fixed, factorial(len(ground))) == jobs.PARKING_CLASSES_4


def test_negative_control_counts_only_its_expected_failure():
    (nn,) = [job for unit in jobs.WORKLOADS["verify"] for job in unit if job.expect_exit == 1]
    answer = {"passed": False, "stage": "ExtensionUniqueness"}
    assert jobs.check_answer(nn, 1, answer) is None
    assert jobs.check_answer(nn, 0, answer) is not None
    assert jobs.check_answer(nn, 1, dict(answer, stage="CutValidity")) is not None


def test_cold_job_writes_one_table_and_warm_job_only_reads_it(tmp_path):
    runner = run.Runner(tmp_path, time.monotonic() + 120)
    cold, warm = jobs._fock("graphs", 3, [1, 1, 2, 4], "OEIS A000088")
    results, _ = runner.run_pass([(cold, warm)], "pass", traced=True)
    assert [r.error for r in results] == [None, None]
    reads = [r.trace["stats"]["fock.table_from_json"][0] for r in results]
    assert reads == [0, 1]

    # a table rewritten after the cold job is caught at the next warm job
    (table,) = (tmp_path / "pass" / "cache-0").iterdir()
    stamp = run._cache_stamp(table.parent)
    time.sleep(0.01)
    table.write_text(table.read_text())
    rerun = runner.run_checked(warm, "pass", table.parent, stamp)
    assert rerun.error == "warm job rewrote the cached table"


def _counts(trace):
    return (
        {name: stat[:2] for name, stat in trace["stats"].items()},
        trace["elements"],
        trace["classes"],
    )


def test_traced_job_repeats_counters_and_prints_the_same_bytes(tmp_path):
    runner = run.Runner(tmp_path, time.monotonic() + 120)
    job = jobs._verify("perm_m", "intertwined", 4)
    plain = runner.run_job(job, None)
    first = runner.run_job(job, None, tmp_path / "first.json")
    second = runner.run_job(job, None, tmp_path / "second.json")
    assert plain.error is first.error is second.error is None
    assert plain.stdout == first.stdout == second.stdout
    assert _counts(first.trace) == _counts(second.trace)
    assert first.trace["elements"] == sum(factorial(n) ** 2 for n in range(5)) == 618
    metrics = run.tracing.layer_metrics([first.trace])
    assert metrics["preorder.is_cut.calls"][0] > 0
    assert metrics["species.check_intertwined.s"][0] > 0


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(jobs.WORKLOADS)
    layer_names = set(run.tracing.layer_metrics([_empty_trace()])) | {"trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == layer_names


def _empty_trace():
    return {"import_s": 0.0, "stats": {}, "elements": 0, "classes": 0}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == b""
