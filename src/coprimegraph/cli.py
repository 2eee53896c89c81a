"""Command-line front end: analyze groups, export graphs, verify the catalog,
embed arbitrary graphs.

The spec grammar and its order cap live in ``groups``, the undefined-graph
rule in ``coprime``, and each error's exit code in ``errors``; this module
dispatches and prints.  Exit codes: 0 success; 1 a failed verification or a
certificate that failed its re-check (CertificateError); 2 bad input
(InputError: spec, group parameters, catalog file, edge list) or an
unreadable file (OSError); 3 undefined coprime graph, for trivial and
prime-order groups (UndefinedCoprimeGraphError); 4 a size cap
(CapExceeded).  Any other exception is a bug and ends in a traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import theorems
from .analysis import DEFAULT_EXACT_CAP, analyze, is_planar
from .coprime import CoprimeGraph, build, build_cyclic, graph_json, to_dot
from .embedding import embed, parse_edge_list
from .errors import CoprimeGraphError, InputError
from .groups import DEFAULT_MAX_ORDER, cyclic_spec_order, parse_group_spec

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1

def _env_cap(name: str, fallback: int) -> int:
    """Flag defaults honor COPRIMEGRAPH_MAX_ORDER / COPRIMEGRAPH_EXACT_CAP."""
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError:
        sys.stderr.write(f"warning: ignoring non-integer {name}={raw!r}\n")
        return fallback


GRAMMAR_HELP = """\
group spec grammar:
  Z:n                cyclic group of order n
  D:n                dihedral group of order 2n
  SD:m,k,i           Z_m : Z_k, the Z_k generator acting by a -> a*i mod m
                     (requires gcd(i,m)=1 and i^k = 1 mod m)
  X(spec,spec)       direct product
  PERM:deg:gens      permutation group closure; generators are comma separated
                     products of cycles, e.g. PERM:4:[0 1 2],[0 1]x[2 3]
  names              A4 S4 S3 Q8 D12 S3xS3 Z3xA4 Z6xS3 Z9sZ4 Z3Z3sZ4 Z5Z5sZ3
                     Z5Z5sZ2 D10xZ5 Z2Z2sZ9 Z2xZ3Z3sZ2
"""


def _write_output(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _graph_for_spec(spec: str, max_order: int, exact_cap: int | None = None) -> CoprimeGraph:
    """Build P(G); plain cyclic specs take the divisor fast path, which
    checks ``exact_cap`` against the divisor count before its gcds."""
    n = cyclic_spec_order(spec)
    if n is not None:
        return build_cyclic(n, exact_cap)
    return build(parse_group_spec(spec, max_order), max_order=max_order)


def _render_report_table(rep) -> str:
    shape = rep.shape
    lines = [
        f"graph       P({rep.source})",
        f"vertices    {rep.n_vertices}",
        f"edges       {rep.n_edges}",
        f"orders      {rep.vertex_orders}",
        f"connected   {rep.is_connected}",
        f"diameter    {'inf' if rep.diameter == float('inf') else rep.diameter}"
        + (f"  (per component: {rep.component_diameters})" if not rep.is_connected else ""),
        f"girth       {'inf' if rep.girth == float('inf') else rep.girth}",
        f"alpha       {rep.alpha}",
        f"omega       {rep.omega}",
        f"chi         {rep.chi}",
        f"bipartite   {rep.is_bipartite}",
        f"planar      {rep.planarity.planar}"
        + (
            ""
            if rep.planarity.planar
            else f"  (witness: {rep.planarity.witness_kind} subdivision)"
        ),
        f"shape       {shape.kind}"
        + (f"{list(shape.args)}" if shape.args else "")
        + f" core + {shape.isolated} isolated",
        f"unicyclic   {rep.predicates['unicyclic']}",
        "contains    "
        + " ".join(f"{k}={'y' if v else 'n'}" for k, v in sorted(rep.forbidden.items())),
    ]
    return "\n".join(lines) + "\n"


def cmd_analyze(args) -> int:
    graph = _graph_for_spec(args.spec, args.max_order, args.exact_cap)
    rep = analyze(graph, exact_cap=args.exact_cap)
    if args.format == "json":
        text = json.dumps(rep.to_json_dict(), indent=2, sort_keys=True) + "\n"
    else:
        text = _render_report_table(rep)
    _write_output(text, args.out)
    return EXIT_OK


def cmd_export(args) -> int:
    graph = _graph_for_spec(args.spec, args.max_order)
    if args.format == "json":
        text = json.dumps(graph_json(graph), indent=2, sort_keys=True) + "\n"
    else:
        cert = is_planar(graph)
        if cert.planar:
            comments = ["rotation system (clockwise neighbor order per vertex)"]
            for v, nbrs in enumerate(cert.rotation):
                comments.append(f"v{v}: " + " ".join(f"v{w}" for w in nbrs))
        else:
            comments = [
                f"nonplanar: {cert.witness_kind} subdivision on branch vertices "
                + " ".join(f"v{w}" for w in cert.witness_branch_vertices)
            ]
        text = to_dot(graph, comments)
    _write_output(text, args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    entries = theorems.load_catalog(args.catalog)
    if not entries:
        sys.stderr.write("warning: 0 entries in catalog\n")
        _write_output("no catalog entries\n", args.out)
        return EXIT_OK
    report = theorems.run_catalog(
        max_order=args.max_order,
        catalog=entries,
        exact_cap=args.exact_cap,
        jobs=args.jobs,
    )
    if args.format == "table":
        text = report.render_table()
    else:
        text = json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"
    _write_output(text, args.out)
    if not report.ok():
        sys.stderr.write(
            f"error: verification failed: {report.n_fail} of {len(report.rows)} checks\n"
        )
        for row in report.failures()[:20]:
            sys.stderr.write(
                f"  {row.group} / {row.check_id}: expected {row.expected!r}, "
                f"computed {row.computed!r}\n"
            )
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def cmd_embed(args) -> int:
    if args.input == "-":
        data = sys.stdin.buffer.read()
    else:
        data = Path(args.input).read_bytes()
    graph = parse_edge_list(data)
    cert = embed(graph, cap=args.mis_cap)
    payload = json.dumps(cert.to_json_dict(), indent=2, sort_keys=True) + "\n"
    _write_output(payload, args.out)
    return EXIT_OK


def cmd_catalog(args) -> int:
    entries = theorems.load_catalog(args.catalog)
    if args.format == "json":
        payload = [
            {
                "spec": e.spec,
                "order": e.order,
                "note": e.note,
                "expectations": len(e.expect),
            }
            for e in entries
        ]
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        width = max((len(e.spec) for e in entries), default=4)
        lines = [f"{'spec':<{width}}  order  expectations  note"]
        for e in entries:
            lines.append(
                f"{e.spec:<{width}}  {e.order or '?':>5}  {len(e.expect):>12}  {e.note}"
            )
        lines.append(f"{len(entries)} entries")
        text = "\n".join(lines) + "\n"
    _write_output(text, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coprimegraph",
        description="Coprime graphs of subgroup lattices: exact analysis, "
        "exports, embeddings, and catalog verification.",
        epilog=GRAMMAR_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats, default_format):
        p.add_argument("--format", choices=formats, default=default_format)
        p.add_argument("--out", default=None, help="output path (default stdout)")

    max_order_default = _env_cap("COPRIMEGRAPH_MAX_ORDER", DEFAULT_MAX_ORDER)
    exact_cap_default = _env_cap("COPRIMEGRAPH_EXACT_CAP", DEFAULT_EXACT_CAP)

    p = sub.add_parser("analyze", help="full invariant report for P(G)")
    p.add_argument("spec", help="group spec, e.g. Z:30 or A4")
    common(p, ("table", "json"), "table")
    p.add_argument("--max-order", type=int, default=max_order_default)
    p.add_argument("--exact-cap", type=int, default=exact_cap_default)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("export", help="DOT or JSON rendering of P(G)")
    p.add_argument("spec")
    common(p, ("dot", "json"), "dot")
    p.add_argument("--max-order", type=int, default=max_order_default)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("verify", help="run the verification catalog")
    common(p, ("json", "table"), "json")
    p.add_argument("--catalog", default=None, help="catalog JSON path (default: shipped)")
    p.add_argument(
        "--max-order",
        type=int,
        default=_env_cap("COPRIMEGRAPH_MAX_ORDER", theorems.DEFAULT_CATALOG_MAX_ORDER),
    )
    p.add_argument(
        "--exact-cap",
        type=int,
        default=_env_cap("COPRIMEGRAPH_EXACT_CAP", theorems.DEFAULT_CATALOG_EXACT_CAP),
    )
    p.add_argument("--jobs", type=int, default=1, help="parallel workers")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("embed", help="embed an edge-list graph into a cyclic coprime graph")
    p.add_argument("input", help="edge-list path, or - for stdin")
    p.add_argument("--out", default=None)
    p.add_argument("--mis-cap", type=int, default=20)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("catalog", help="list the catalog entries")
    common(p, ("table", "json"), "table")
    p.add_argument("--catalog", default=None)
    p.set_defaults(func=cmd_catalog)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CoprimeGraphError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.exit_code
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return InputError.exit_code


if __name__ == "__main__":
    sys.exit(main())
