"""Command line entry points: solve, gen, sweep."""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction

from .errors import BadParams, MistError, ParseError
from .exact import TreeResult, opt_spanning_tree
from .fileio import emit_graph, parse_graph
from .generate import FAMILIES, make
from .graph import Graph
from .pipeline import VerificationReport, run, verify_run


P_HELP = "edge probability (gnp) or chords per vertex (sparse)"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mist",
        description="Spanning trees with many internal vertices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one edge-list file")
    p_solve.add_argument("--algo", choices=("simple", "refined", "exact"), required=True)
    p_solve.add_argument("--in", dest="infile", required=True, help="input file, - for stdin")
    p_solve.add_argument("--verify", action="store_true", help="re-check all guarantees")
    p_solve.add_argument("--json", action="store_true", help="emit a JSON report")
    p_solve.set_defaults(func=cmd_solve)

    p_gen = sub.add_parser("gen", help="generate an instance file on stdout")
    p_gen.add_argument("--family", choices=FAMILIES, required=True)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--p", type=float, default=0.3, help=P_HELP)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.set_defaults(func=cmd_gen)

    p_sweep = sub.add_parser("sweep", help="batch solve+verify, CSV on stdout")
    p_sweep.add_argument("--algo", choices=("simple", "refined"), required=True)
    p_sweep.add_argument("--n-range", dest="n_range", required=True, help="a..b inclusive")
    p_sweep.add_argument("--count", type=int, required=True)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--family", choices=FAMILIES, default="gnp")
    p_sweep.add_argument("--p", type=float, default=0.3, help=P_HELP)
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def _read_graph(path: str) -> Graph:
    if path == "-":
        return parse_graph(sys.stdin.read())
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise BadParams(f"cannot read {path}: {exc.strerror}") from None
    return parse_graph(data)


def _ratio(weight: int, opt: int) -> Fraction:
    return Fraction(1, 1) if opt == 0 else Fraction(weight, opt)


def _edge_text(tree: TreeResult) -> str:
    return " ".join(f"{u + 1}-{v + 1}" for u, v in tree.edges)


def cmd_solve(args) -> int:
    g = _read_graph(args.infile)
    opt = None
    vrep: VerificationReport | None = None
    if args.algo == "exact":
        tree = opt_spanning_tree(g)
        upper = tree.weight
        if args.verify:
            opt = tree.weight
    else:
        report = run(g, args.algo, keep_state=args.verify)
        tree, upper = report.tree, report.upper_bound
        if args.verify:
            vrep = verify_run(g, report)
            opt = vrep.opt
    out: dict = {
        "n": g.n_alive(),
        "m": g.edge_count(),
        "algo": args.algo,
        "tree": [[u + 1, v + 1] for u, v in tree.edges],
        "internal": tree.weight,
        "upper_bound": upper,
    }
    if opt is not None:
        r = _ratio(tree.weight, opt)
        out["opt"] = opt
        out["ratio"] = [r.numerator, r.denominator]
    if vrep is not None:
        out["verify"] = {
            "ok": vrep.ok,
            "opt": vrep.opt,
            "checks": [
                {"name": c.name, "ok": c.ok, "detail": c.detail} for c in vrep.checks
            ],
        }
    if args.json:
        print(json.dumps(out))
    else:
        print(f"n={out['n']}")
        print(f"m={out['m']}")
        print(f"algo={out['algo']}")
        print(f"tree={_edge_text(tree)}")
        print(f"internal={out['internal']}")
        print(f"upper_bound={out['upper_bound']}")
        if opt is not None:
            print(f"opt={opt}")
            print(f"ratio={out['ratio'][0]}/{out['ratio'][1]}")
        if vrep is not None:
            print(f"verify={'ok' if vrep.ok else 'fail'}")
            for c in vrep.failing():
                print(f"failed={c.name} {c.detail}".rstrip())
    if vrep is not None and not vrep.ok:
        return 2
    return 0


def cmd_gen(args) -> int:
    g = make(args.family, args.n, args.p, args.seed)
    sys.stdout.write(emit_graph(g))
    return 0


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise BadParams(f"range must look like a..b, got {text!r}")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise BadParams(f"non-integer range bound in {text!r}") from None


def cmd_sweep(args) -> int:
    lo, hi = _parse_range(args.n_range)
    if args.count < 0:
        raise BadParams(f"count must be >= 0, got {args.count}")
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(
        [
            "instance", "n", "m", "weight", "upper_bound",
            "opt", "ratio_num", "ratio_den", "passes",
        ]
    )
    sizes = list(range(lo, hi + 1))
    all_pass = True
    for i in range(args.count if sizes else 0):
        n = sizes[i % len(sizes)]
        seed = args.seed + i
        g = make(args.family, n, args.p, seed)
        report = run(g, args.algo, keep_state=True)
        vrep = verify_run(g, report)
        if vrep.opt is None:
            opt_s = num_s = den_s = ""
        else:
            r = _ratio(report.tree.weight, vrep.opt)
            opt_s, num_s, den_s = vrep.opt, r.numerator, r.denominator
        all_pass = all_pass and vrep.ok
        writer.writerow(
            [
                f"{args.family}-{n}-{seed}", n, g.edge_count(),
                report.tree.weight, report.upper_bound,
                opt_s, num_s, den_s, str(vrep.ok).lower(),
            ]
        )
    return 0 if all_pass else 2


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MistError as exc:
        print(f"error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
