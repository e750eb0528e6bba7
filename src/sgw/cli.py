"""Command-line front end.

Graph files use a plain text format: a header line ``sg <n>`` followed by
one line per edge ``u v s`` with ``s`` either ``+`` or ``-``; lines
starting with ``#`` are comments.  ``-`` as a file name means stdin or
stdout.  Exit codes: 0 success, 1 usage error, 2 parse or invariant
failure or any other unexpected error, 3 mathematically negative answer
(not equivalent, unbalanced, no homomorphism), 4 resource guard exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from . import verify as verify_mod
from .constructions import MAKE_NAMES, make
from .core import SignedGraph
from .errors import (
    BoundExceededError,
    GuardExceededError,
    OrderTooLargeError,
    ParseError,
    SgwError,
    TooLargeError,
)
from .homomorphism import chromatic_number, validate
from .product import product_many
from .s_factor import s_decompose
from .switching import equivalent, is_balanced

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_NEGATIVE = 3
EXIT_GUARD = 4


# -- graph file format -------------------------------------------------


def parse_graph(text: str) -> SignedGraph:
    """Parse the ``sg`` text format into a SignedGraph."""
    lines = [
        line.strip()
        for line in text.splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if not lines:
        raise ParseError("empty graph file")
    header = lines[0].split()
    if len(header) != 2 or header[0] != "sg":
        raise ParseError(f"bad header {lines[0]!r}; expected 'sg <n>'")
    try:
        n = int(header[1])
    except ValueError:
        raise ParseError(f"bad vertex count {header[1]!r}") from None
    if n < 0:
        raise ParseError("vertex count must be non-negative")
    edges = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 3 or parts[2] not in ("+", "-"):
            raise ParseError(f"bad edge line {line!r}; expected 'u v +|-'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"bad vertex id in {line!r}") from None
        edges.append((u, v, 1 if parts[2] == "+" else -1))
    return SignedGraph(n, edges)


def serialize_graph(g: SignedGraph) -> str:
    lines = [f"sg {g.n}"]
    lines += [f"{u} {v} {'+' if s == 1 else '-'}" for u, v, s in g.edges]
    return "\n".join(lines) + "\n"


def _read_graph(path: str) -> SignedGraph:
    if path == "-":
        return parse_graph(sys.stdin.read())
    with open(path, encoding="utf-8") as fh:
        return parse_graph(fh.read())


def _write_text(path: Optional[str], text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _graph_json(g: SignedGraph) -> dict:
    return {"n": g.n, "edges": [list(e) for e in g.edges]}


# -- commands -----------------------------------------------------------


def cmd_product(args) -> int:
    graphs = [_read_graph(p) for p in args.files]
    product, cs = product_many(graphs)
    _write_text(args.output, serialize_graph(product))
    if args.coords is not None:
        payload = {
            "factors": [_graph_json(f) for f in cs.factors],
            "coords": [list(c) for c in cs.coords],
        }
        _write_text(args.coords, json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


def cmd_decompose(args) -> int:
    g = _read_graph(args.file)
    dec = s_decompose(g)
    payload = {
        "factors": [_graph_json(f) for f in dec.factors],
        "coords": [list(c) for c in dec.coords.coords],
        "switch_set": sorted(dec.switch_set),
        "factor_of_edge": [[u, v, i] for (u, v, _), i in zip(g.edges, dec.factor_of_edge)],
    }
    _write_text(args.output, json.dumps(payload, indent=2) + "\n")
    if args.factors_prefix is not None:
        for i, factor in enumerate(dec.factors):
            _write_text(f"{args.factors_prefix}{i}.sg", serialize_graph(factor))
    return EXIT_OK


def cmd_chi(args) -> int:
    g = _read_graph(args.file)
    cert = chromatic_number(g, hi=args.hi)
    if not validate(g, cert.target, cert.hom):
        raise SgwError("certificate failed re-validation")
    payload = {
        "k": cert.k,
        "target": _graph_json(cert.target),
        "map": list(cert.hom.map),
        "switch_set": sorted(cert.hom.switch_set),
        "lower_bound_evidence": cert.lower_bound_evidence,
    }
    print(cert.k)
    if args.certificate is not None:
        _write_text(args.certificate, json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


def cmd_equiv(args) -> int:
    g1, g2 = _read_graph(args.file1), _read_graph(args.file2)
    switch_set = equivalent(g1, g2)
    if switch_set is None:
        print(json.dumps({"equivalent": False}))
        return EXIT_NEGATIVE
    print(json.dumps({"equivalent": True, "switch_set": sorted(switch_set)}))
    return EXIT_OK


def cmd_balance(args) -> int:
    g = _read_graph(args.file)
    balanced, witness = is_balanced(g)
    if balanced:
        print(json.dumps({"balanced": True, "switch_set": sorted(witness)}))
        return EXIT_OK
    print(json.dumps({"balanced": False, "witness_walk": list(witness)}))
    return EXIT_NEGATIVE


def cmd_make(args) -> int:
    g = make(args.name, *args.params)
    _write_text(args.output, serialize_graph(g))
    return EXIT_OK


_SUITES = {
    "cycle_table": lambda args: verify_mod.verify_cycle_table(args.max_len),
    "kpq": lambda args: verify_mod.verify_kpq(args.max_p, args.max_q),
    "uc_bc_gap": lambda args: verify_mod.verify_uc_bc_gap(args.max_q, args.max_p),
    "grid_fig1c": lambda args: verify_mod.verify_grid_fig1c(),
    "k4_classes": lambda args: verify_mod.verify_k4_classes(),
    "k18": lambda args: verify_mod.verify_k18(unbounded=args.unbounded),
}


def cmd_verify(args) -> int:
    report = _SUITES[args.suite](args)
    print(report.to_text())
    if args.json is not None:
        _write_text(args.json, report.to_json() + "\n")
    return EXIT_OK if report.passed else EXIT_NEGATIVE


# -- parser -------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sgw", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("product", help="Cartesian product of graph files")
    p.add_argument("files", nargs="+")
    p.add_argument("-o", "--output", default="-")
    p.add_argument("--coords", help="write the coordinate system as JSON")
    p.set_defaults(run=cmd_product)

    p = sub.add_parser("decompose", help="prime s-decomposition")
    p.add_argument("file")
    p.add_argument("-o", "--output", default="-")
    p.add_argument("--factors-prefix", help="also write factor graph files")
    p.set_defaults(run=cmd_decompose)

    p = sub.add_parser("chi", help="exact signed chromatic number")
    p.add_argument("file")
    p.add_argument("--hi", type=int)
    p.add_argument("--certificate", help="write the certificate as JSON")
    p.set_defaults(run=cmd_chi)

    p = sub.add_parser("equiv", help="switching equivalence of two graphs")
    p.add_argument("file1")
    p.add_argument("file2")
    p.set_defaults(run=cmd_equiv)

    p = sub.add_parser("balance", help="balance test with witness")
    p.add_argument("file")
    p.set_defaults(run=cmd_balance)

    p = sub.add_parser("make", help="named constructions")
    p.add_argument("name", choices=MAKE_NAMES)
    p.add_argument("params", nargs="*", type=int)
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(run=cmd_make)

    p = sub.add_parser("verify", help="reproduction report suites")
    p.add_argument("suite", choices=sorted(_SUITES))
    p.add_argument("--max-len", type=int, default=6)
    p.add_argument("--max-p", type=int, default=3)
    p.add_argument("--max-q", type=int, default=3)
    p.add_argument("--unbounded", action="store_true")
    p.add_argument("--json", help="also write the report as JSON")
    p.set_defaults(run=cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.run(args)
    except FileNotFoundError as exc:
        print(f"sgw: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (GuardExceededError, BoundExceededError, TooLargeError,
            OrderTooLargeError, RecursionError) as exc:
        print(f"sgw: guard exceeded: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except SgwError as exc:
        print(f"sgw: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except Exception as exc:
        print(f"sgw: internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
