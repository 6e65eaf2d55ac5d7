"""Command-line frontend.

Three subcommands: ``make`` builds a quandle table and writes it in the
".qnd" format, ``analyze`` reports the invariants of a stored table, and
``verify`` runs the theorem suites.  Exit codes: 0 success, 1 verification
failure, 2 usage or input error.
"""

import argparse
import functools
import json
import sys

from . import groups as G
from . import quandle as Q
from . import symmetry as sym
from .quandle import QuandleAxiomError
from .theorems import THEOREM_SUITES, TheoremReport, run_suite

SCHEMA = 1


def _ints(text):
    try:
        return [int(tok) for tok in text.split(",") if tok != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _add_out(parser):
    parser.add_argument("--out", metavar="PATH", help="write the table here instead of stdout")


def _add_phi(parser):
    choice = parser.add_mutually_exclusive_group(required=True)
    choice.add_argument("--scalar", type=int, metavar="U",
                        help="multiply every coordinate by U")
    choice.add_argument("--matrix", type=_ints, metavar="ROWS",
                        help="row-major square matrix acting on coordinate tuples")
    choice.add_argument("--images", type=_ints, metavar="LIST",
                        help="explicit image of every element, comma-separated")


@functools.cache
def build_parser():
    """One parser per process: it has no dynamic choices."""
    parser = argparse.ArgumentParser(
        prog="quandles",
        description="construct finite quandles, compute their symmetry groups, "
        "and verify the structure theorems on exhaustive families",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    mk = subs.add_parser("make", help="construct a quandle and write a .qnd table")
    kinds = mk.add_subparsers(dest="kind", required=True)

    k = kinds.add_parser("dihedral", help="reflection quandle on Z/n")
    k.add_argument("n", type=int)
    _add_out(k)

    k = kinds.add_parser("trivial", help="the quandle with x * y = x")
    k.add_argument("n", type=int)
    _add_out(k)

    k = kinds.add_parser("takasaki", help="a * b = 2b - a on an abelian group")
    k.add_argument("--factors", type=_ints, required=True, metavar="N1,N2,...")
    _add_out(k)

    k = kinds.add_parser("alexander", help="a * b = phi(a) + b - phi(b) on an abelian group")
    k.add_argument("--factors", type=_ints, required=True, metavar="N1,N2,...")
    _add_phi(k)
    _add_out(k)

    k = kinds.add_parser("galexander", help="a * b = phi(a b^-1) b on any group")
    src = k.add_mutually_exclusive_group(required=True)
    src.add_argument("--group", metavar="NAME", help="named group, zN, or a product like z3xz3")
    src.add_argument("--factors", type=_ints, metavar="N1,N2,...")
    _add_phi(k)
    _add_out(k)

    k = kinds.add_parser("conj", help="a * b = b^-m a b^m on any group")
    k.add_argument("--group", required=True, metavar="NAME")
    k.add_argument("--power", type=int, default=1, metavar="M")
    _add_out(k)

    an = subs.add_parser("analyze", help="report the invariants of a .qnd table")
    an.add_argument("path")
    an.add_argument("--json", action="store_true", help="emit a JSON report")
    an.add_argument("--generators", action="store_true",
                    help="also list generators of Inn and Aut in cycle form")

    vf = subs.add_parser("verify", help="run one theorem suite, or all of them")
    vf.add_argument("theorem", metavar="THEOREM",
                    help="a theorem id (see the list subcommand) or 'all'")
    vf.add_argument("--max-order", type=int, default=None, metavar="N",
                    help="bound the group order of every selected suite that takes it; "
                    "a bound above a selected suite's ceiling is refused")
    vf.add_argument("--n", type=_ints, default=None, metavar="N1,N2,...",
                    help="dihedral orders to test (dihedral-corollary only)")
    vf.add_argument("--json", action="store_true", help="emit a JSON report")
    vf.add_argument("--out", metavar="PATH", help="also write the JSON report here")

    subs.add_parser("list", help="list the available theorem ids")
    return parser


def _resolve_group(args):
    if getattr(args, "group", None):
        return G.group_by_name(args.group)
    return G.make_abelian(args.factors)


def _resolve_phi(group, args):
    if args.scalar is not None:
        return G.scalar_map(group, args.scalar)
    if args.matrix is not None:
        flat = args.matrix
        if group.abelian_coordinates is None:
            raise ValueError("--matrix needs a group built from abelian factors")
        k = len(group.abelian_coordinates[0])
        if len(flat) != k * k:
            raise ValueError(f"--matrix needs {k * k} entries for {k} factors, got {len(flat)}")
        rows = [flat[i * k:(i + 1) * k] for i in range(k)]
        return G.matrix_map(group, rows)
    return G.map_from_images(group, args.images)


def cmd_make(args):
    if args.kind == "dihedral":
        x = Q.dihedral(args.n)
    elif args.kind == "trivial":
        x = Q.trivial_quandle(args.n)
    elif args.kind == "takasaki":
        x = Q.takasaki(G.make_abelian(args.factors))
    elif args.kind == "alexander":
        group = G.make_abelian(args.factors)
        x = Q.alexander(group, _resolve_phi(group, args))
    elif args.kind == "galexander":
        group = _resolve_group(args)
        x = Q.gen_alexander(group, _resolve_phi(group, args))
    else:
        group = G.group_by_name(args.group)
        x = Q.conj_quandle(group, args.power)
    if args.out:
        Q.save_quandle(x, args.out)
    else:
        G._write_table(sys.stdout, x.table)
    return 0


def _yesno(value):
    if value is None:
        return "n/a"
    return "yes" if value else "no"


def cmd_analyze(args):
    x = Q.load_quandle(args.path)
    info = sym.analyze_quandle(x)
    translations = [Q.inner_translation(x, b) for b in range(x.order)] if args.generators else []
    if args.json:
        doc = {"schema": SCHEMA}
        doc.update(info.to_dict())
        if args.generators:
            doc["inner_generators"] = [list(p.images) for p in translations]
            doc["automorphism_generators"] = [
                list(p.images) for p in sym.automorphism_group_backtrack(x).generators
            ]
        json.dump(doc, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return 0
    print(f"order: {info.order}")
    print(f"inner order: {info.inn_order}")
    print(f"automorphism order: {info.aut_order}")
    print(f"connected: {_yesno(info.connected)}")
    print(f"two-point homogeneous: {_yesno(info.two_point_homogeneous)}")
    print(f"automorphisms doubly transitive: {_yesno(info.aut_doubly_transitive)}")
    print(f"commutative: {_yesno(info.commutative)}")
    print(f"involutory: {_yesno(info.involutory)}")
    if args.generators:
        print("inner generators:")
        for p in translations:
            print(f"  {p}")
        print("automorphism generators:")
        for p in sym.automorphism_group_backtrack(x).generators:
            print(f"  {p}")
    return 0


def cmd_verify(args):
    ids = None if args.theorem == "all" else [args.theorem]
    reports = run_suite(ids, max_order=args.max_order, ns=args.n)
    merged_pass = all(r.passed for r in reports)
    doc = {
        "schema": SCHEMA,
        "passed": merged_pass,
        "reports": [r.to_dict() for r in reports],
    }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    if args.json:
        json.dump(doc, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        width = max(len(r.theorem_id) for r in reports)
        print(f"{'theorem':<{width}}  result  instances  seconds")
        for r in reports:
            status = "pass" if r.passed else "FAIL"
            print(f"{r.theorem_id:<{width}}  {status:<6}  {r.instances_tested:>9}  {r.elapsed:>7.2f}")
        for r in reports:
            for f in r.failures:
                print(f"FAIL {r.theorem_id}: {f}")
        total = sum(r.instances_tested for r in reports)
        if merged_pass:
            print(f"all passed ({total} instances)")
        else:
            bad = sum(len(r.failures) for r in reports)
            print(f"{bad} failure(s)")
    return 0 if merged_pass else 1


def cmd_list():
    width = max(len(tid) for tid in THEOREM_SUITES)
    for tid, (_, desc) in THEOREM_SUITES.items():
        print(f"{tid:<{width}}  {desc}")
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "make":
            return cmd_make(args)
        if args.command == "analyze":
            return cmd_analyze(args)
        if args.command == "list":
            return cmd_list()
        return cmd_verify(args)
    except QuandleAxiomError as exc:
        print(f"error: not a quandle: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
