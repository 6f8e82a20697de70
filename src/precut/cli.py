"""Command-line surface: enumeration, verification, avoidance, Fock tables,
square checks and small calculators for preorders, parking chains and pairs.

Exit codes: 0 success/pass, 1 verification failure, 2 usage or input error
(a degree outside 0..cap included).  A reader that closes stdout early ends
the run quietly with 1, as Python does on a broken pipe.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import fock
from .errors import CapExceeded, InvalidStructure, PrecutError
from .instances import (
    AVOIDANCE_PRESETS,
    build_instance,
    build_preset,
    cc_matrix,
    generate_pair,
)
from .instances.pairs import MEMBERSHIP
from .instances.parking import break_points, dilation_sequence, filtration_preorder, parking_chains, parkize
from .preorder import (
    bubble_partition,
    bubbles,
    closure,
    component_partition,
    cuts,
    is_coarse,
    is_discrete,
    is_partition_order,
    is_poset,
    is_total_order,
    is_total_preorder,
    join,
    meet,
    minimal_total_refinement,
    opposite,
    preorder_from_json,
    restrict,
    sorted_labels,
)
from .avoidance import is_irreducible
from .setn import check_dual_commutation, check_partial_pullback, square_from_json
from .species import ClassRegistry, _jsonify, check_bimonoid, check_intertwined, check_species_over_preorders


def _emit(data, as_json):
    if as_json:
        print(json.dumps(data, sort_keys=True, indent=1, default=str))
    else:
        _emit_text(data)


def _emit_text(data, indent=""):
    if isinstance(data, dict):
        for k in sorted(data):
            v = data[k]
            if isinstance(v, dict) or _nested_list(v):
                print(f"{indent}{k}:")
                _emit_text(v, indent + "  ")
            else:
                print(f"{indent}{k}: {_inline(v)}")
    elif isinstance(data, list):
        for v in data:
            if isinstance(v, dict) or _nested_list(v):
                _emit_text(v, indent)
                print()
            else:
                print(f"{indent}{_inline(v)}")
    else:
        print(f"{indent}{_inline(data)}")


def _nested_list(v):
    return isinstance(v, list) and any(isinstance(x, (dict, list)) for x in v)


def _inline(v):
    if isinstance(v, list):
        return json.dumps(v)
    return v


def _check_degree(inst, degree):
    """Refuse a degree outside 0..cap before any enumeration."""
    if not 0 <= degree <= inst.cap:
        raise PrecutError(f"{inst.name}: degree {degree} outside 0..{inst.cap}")


def cmd_enum(args):
    inst = build_instance(args.instance, avoid=args.avoid, palette=args.palette)
    _check_degree(inst, args.n)
    if args.classes:
        listing = [
            {"id": c.cid, "repr": _jsonify(c.key)}
            for c in ClassRegistry(inst).classes_of_degree(args.n)
        ]
        _emit({"instance": inst.name, "degree": args.n, "classes": listing}, args.json)
    else:
        ground = tuple(range(1, args.n + 1))
        listing = [_jsonify(inst.serialize(s)) for s in inst.elements(ground)]
        _emit({"instance": inst.name, "degree": args.n, "elements": listing}, args.json)
    return 0


def cmd_verify(args):
    inst = build_instance(args.instance, avoid=args.avoid, palette=args.palette)
    _check_degree(inst, args.nmax)
    if args.check == "preorders":
        report = check_species_over_preorders(inst, args.nmax)
    elif args.check == "intertwined":
        report = check_intertwined(inst, args.nmax)
    else:
        report = check_bimonoid(inst, args.coproduct, args.nmax)
    out = {"instance": inst.name, "check": args.check, "nmax": args.nmax, **report.to_json()}
    out["stats"] = list(report.stats)
    _emit(out, args.json)
    return 0 if report.passed else 1


def cmd_avoid(args):
    inst = build_preset(args.preset)
    _check_degree(inst, args.nmax)
    out = {"preset": args.preset, "instance": inst.name}
    if args.check_irreducible:
        _, _, claimed = AVOIDANCE_PRESETS[args.preset]
        if claimed is None:
            raise PrecutError(f"preset {args.preset!r} has no single irreducibility claim")
        report = is_irreducible(inst.parent, args.check_irreducible, inst.aset, args.nmax)
        out["irreducible"] = report.to_json()
        out["stats"] = list(report.stats)
        _emit(out, args.json)
        return 0 if report.passed else 1
    out["dimensions"] = fock.graded_dimensions(inst, args.nmax)
    _emit(out, args.json)
    return 0


def cmd_fock(args):
    if args.format is not None and not args.out:
        raise PrecutError("--format needs --out")
    inst = build_instance(args.instance, avoid=args.avoid, palette=args.palette)
    _check_degree(inst, args.N)
    table = fock.fock_tables(
        inst,
        which_delta=args.delta,
        which_mu=args.mu,
        N=args.N,
        verify="force" if args.force else "auto",
        cache_dir=args.cache_dir,
    )
    axioms = fock.verify_hopf_axioms(table)
    summary = {
        "instance": inst.name,
        "N": args.N,
        "dimensions": table.dims(),
        "axioms_pass": axioms.passed,
    }
    if not axioms.passed:
        summary["axioms_failure"] = axioms.to_json()
    if args.out:
        data = table.to_json()
        if args.format == "csv":
            _write_csv(args.out, table)
        else:
            with open(args.out, "w") as fh:
                json.dump(data, fh, sort_keys=True, indent=1)
        summary["written"] = args.out
    _emit(summary, args.json)
    return 0 if axioms.passed else 1


def _write_csv(path, table):
    with open(path, "w") as fh:
        fh.write("kind,a,b,left,right,c,coeff\n")
        for (a, b), out in sorted(table.product.items()):
            for c, coeff in sorted(out.items()):
                fh.write(f"product,{a},{b},,,{c},{coeff}\n")
        for a, out in sorted(table.coproduct.items()):
            for (x, y), coeff in sorted(out.items()):
                fh.write(f"coproduct,{a},,{x},{y},,{coeff}\n")


def cmd_check_square(args):
    if args.file == "-":
        data = json.load(sys.stdin)
    else:
        with open(args.file) as fh:
            data = json.load(fh)
    sq = square_from_json(data)
    if args.mode == "pullback":
        res = check_partial_pullback(sq)
    else:
        res = check_dual_commutation(sq)
    _emit({"mode": args.mode, **res.to_json()}, args.json)
    return 0 if res.ok else 1


def _read_preorder(text):
    return preorder_from_json(json.loads(text))


def _payload(text, *lists):
    """Parse a JSON object whose given keys hold lists."""
    data = json.loads(text)
    if not isinstance(data, dict) or not all(isinstance(data.get(k), list) for k in lists):
        fields = "".join(f', "{k}" a list' for k in lists)
        raise InvalidStructure(f"the payload is an object{fields}")
    return data


def _closure(args):
    data = _payload(args.p, "ground", "pairs")
    if not all(isinstance(pair, list) and len(pair) == 2 for pair in data["pairs"]):
        raise InvalidStructure('each of "pairs" is a list of two labels')
    return closure(data["ground"], [tuple(pair) for pair in data["pairs"]]).to_json()


def _preorders(args):
    """--p, and --q when given, read as preorders."""
    return _read_preorder(args.p), _read_preorder(args.q) if args.q else None


def _binary(op):
    def run(args):
        p, q = _preorders(args)
        if q is None:
            raise PrecutError(f"{args.op} needs --q")
        return op(p, q).to_json()
    return run


def _restrict(args):
    p, _ = _preorders(args)
    if args.subset is None:
        raise PrecutError("restrict needs --subset")
    subset = json.loads(args.subset)
    if not isinstance(subset, list):
        raise InvalidStructure("--subset is a JSON list of labels")
    return restrict(p, sorted_labels(subset)).to_json()


def _unary(op):
    return lambda args: op(_preorders(args)[0])


PREDICATES = {"total_preorder": is_total_preorder, "total_order": is_total_order, "poset": is_poset,
              "partition_order": is_partition_order, "discrete": is_discrete, "coarse": is_coarse}
PREORDER_OPS = {  # op name -> its answer from the args; the keys are the choices of --op
    "closure": _closure,
    "meet": _binary(meet),
    "join": _binary(join),
    "opposite": _unary(lambda p: opposite(p).to_json()),
    "cuts": _unary(lambda p: [sorted(c.down) for c in cuts(p)]),
    "bubbles": _unary(lambda p: [sorted(b) for b in bubbles(p)]),
    "bubble-partition": _unary(lambda p: bubble_partition(p).to_json()),
    "components": _unary(lambda p: component_partition(p).to_json()),
    "minimal-total": _unary(lambda p: minimal_total_refinement(p).to_json()),
    "restrict": _restrict,
    "predicates": _unary(lambda p: {name: test(p) for name, test in PREDICATES.items()}),
}


def cmd_preorder(args):
    _emit(PREORDER_OPS[args.op](args), args.json)
    return 0


def cmd_parking(args):
    if args.enumerate is not None:
        if args.enumerate < 0:
            raise CapExceeded(f"--enumerate {args.enumerate} below 0")
        chains = parking_chains(tuple(range(1, args.enumerate + 1)))
        _emit(
            {
                "n": args.enumerate,
                "count": len(chains),
                "chains": [[list(part) for part in chain] for chain in chains],
            },
            args.json,
        )
        return 0
    if not args.chain:
        raise PrecutError("parking needs --chain or --enumerate")
    data = _payload(args.chain, "ground", "chain")
    ground, raw = data["ground"], data["chain"]
    if not all(isinstance(part, list) for part in raw):
        raise InvalidStructure('each step of "chain" is a list of labels')
    out = {
        "dilation": list(dilation_sequence(raw, ground)),
        "parkization": [list(part) for part in parkize(raw, ground)],
        "break_points": list(break_points(raw, ground)),
        "preorder": filtration_preorder(raw, ground).to_json(),
    }
    _emit(out, args.json)
    return 0


def cmd_pairs(args):
    data = _payload(args.data)
    if args.op in ("membership", "matrix"):
        p = preorder_from_json(data["p"])
        q = preorder_from_json(data["q"])
        if args.op == "membership":
            out = {kind: member(p, q) for kind, member in MEMBERSHIP.items()}
        else:
            out = [list(row) for row in cc_matrix(p, q)]
        _emit(out, args.json)
        return 0
    f1 = preorder_from_json(data["frame1"])
    f2 = preorder_from_json(data["frame2"])
    def refs(key):
        items = data.get(key, [])
        if not isinstance(items, list) or not all(
            isinstance(item, dict) and isinstance(item.get("bubble"), list) for item in items
        ):
            raise InvalidStructure(f'"{key}" is a list of objects with a list "bubble"')
        return {
            frozenset(sorted_labels(item["bubble"])): preorder_from_json(item["preorder"])
            for item in items
        }
    pair = generate_pair(data["kind"], f1, f2, refs("refine1"), refs("refine2"))
    _emit({"p": pair.p.to_json(), "q": pair.q.to_json()}, args.json)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="precut")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON output")
    instance = argparse.ArgumentParser(add_help=False)
    instance.add_argument("--instance", required=True)
    instance.add_argument("--avoid")
    instance.add_argument("--palette", type=int)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enum", parents=[common, instance], help="list elements or orbit classes per degree")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--classes", action="store_true")
    p.set_defaults(func=cmd_enum)

    p = sub.add_parser("verify", parents=[common, instance], help="run a species verification sweep")
    p.add_argument("--check", choices=("preorders", "intertwined", "bimonoid"), required=True)
    p.add_argument("--nmax", type=int, default=3)
    p.add_argument("--coproduct", type=int, choices=(1, 2), default=1)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("avoid", parents=[common], help="avoidance presets and irreducibility checks")
    p.add_argument("--preset", required=True)
    p.add_argument("--check-irreducible", type=int, choices=(1, 2), dest="check_irreducible")
    p.add_argument("--nmax", type=int, default=3)
    p.set_defaults(func=cmd_avoid)

    p = sub.add_parser("fock", parents=[common, instance], help="compute graded structure constants")
    p.add_argument("--delta", type=int, choices=(1, 2), default=1)
    p.add_argument("--mu", type=int, choices=(1, 2), default=2)
    p.add_argument("--N", type=int, default=3)
    p.add_argument("--out")
    p.add_argument("--format", choices=("json", "csv"))
    p.add_argument("--force", action="store_true")
    p.add_argument("--cache-dir")
    p.set_defaults(func=cmd_fock)

    p = sub.add_parser("check-square", parents=[common], help="partial pullback / dual commutation")
    p.add_argument("--file", default="-")
    p.add_argument("--mode", choices=("pullback", "dual-commute"), default="pullback")
    p.set_defaults(func=cmd_check_square)

    p = sub.add_parser("preorder", parents=[common], help="lattice calculator")
    p.add_argument("--op", choices=tuple(PREORDER_OPS), required=True)
    p.add_argument("--p", required=True, help="preorder JSON")
    p.add_argument("--q", help="second preorder JSON")
    p.add_argument("--subset", help="JSON list of labels for restrict")
    p.set_defaults(func=cmd_preorder)

    p = sub.add_parser("parking", parents=[common], help="parkization calculator")
    p.add_argument("--chain", help='JSON {"ground": [...], "chain": [[...], ...]}')
    p.add_argument("--enumerate", type=int, help="list all parking filtrations on 1..N")
    p.set_defaults(func=cmd_parking)

    p = sub.add_parser("pairs", parents=[common], help="pair membership, generators, matrices")
    p.add_argument("--op", choices=("membership", "matrix", "generate"), required=True)
    p.add_argument("--data", required=True, help="JSON payload")
    p.set_defaults(func=cmd_pairs)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # point stdout at devnull so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except PrecutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (json.JSONDecodeError, UnicodeDecodeError, OSError, KeyError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
