"""One benchmark job, run in its own interpreter.

    child.py [--trace FILE] cli ARGS...   the precut CLI with ARGS
    child.py [--trace FILE] fm N          perm_f and perm_m Fock tables to
                                          degree N and the F -> M change of basis

The F -> M job has no CLI command, so it calls the public API here.  With
--trace, every precut layer is wrapped (see tracing.py) after the import,
and the counters are written to FILE when the job ends.  The job's standard
output is the same with and without --trace.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time


def change_of_basis(N):
    from precut.fock import check_isomorphism_by_change_of_basis, fock_tables
    from precut.instances import build_instance
    from precut.instances.perm import word_of

    tf = fock_tables(build_instance("perm_f"), 1, 2, N)
    tm = fock_tables(build_instance("perm_m"), 1, 2, N)

    def inversions(c):
        w = word_of(c.rep) if c.degree else ()
        return sum(1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j])

    trans = check_isomorphism_by_change_of_basis(tf, tm, order_key=lambda c: (inversions(c), c.key))
    unitriangular = trans is not None and all(
        mat[i][i] == 1 and not any(mat[i][:i]) for mat in trans.values() for i in range(len(mat))
    )
    blob = json.dumps(sorted(trans.items()) if trans else None).encode()
    out = {
        "N": N,
        "dims_f": tf.dims(),
        "dims_m": tm.dims(),
        "unitriangular": unitriangular,
        "transition_sha256": hashlib.sha256(blob).hexdigest(),
    }
    print(json.dumps(out, sort_keys=True, indent=1))
    return 0 if unitriangular else 1


def main(argv):
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
    t0 = time.perf_counter()
    import precut.cli

    import_s = time.perf_counter() - t0
    tracer = None
    if trace_path:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    kind, *args = argv
    try:
        if kind == "cli":
            return precut.cli.main(args)
        if kind == "fm":
            return change_of_basis(int(args[0]))
        raise SystemExit(f"unknown job kind {kind!r}")
    finally:
        if tracer:
            tracer.dump(trace_path, import_s)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
