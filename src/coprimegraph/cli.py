"""Command-line front end: analyze groups, export graphs, verify the catalog,
embed arbitrary graphs.

The spec grammar and its order cap live in ``groups``, the undefined-graph
rule and the one way from a spec to P(G) in ``coprime``, and each error's
exit code in ``errors``; this module dispatches and prints.  Exit codes:
0 success; 1 a failed verification or a certificate that failed its
re-check (CertificateError); 2 bad input (InputError: spec, group
parameters, catalog file, edge list) or an unreadable file (OSError); 3
undefined coprime graph, for trivial and prime-order groups
(UndefinedCoprimeGraphError); 4 a size cap (CapExceeded).  Any other
exception is a bug and ends in a traceback.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from itertools import chain
from json import JSONEncoder
from json.encoder import c_make_encoder, encode_basestring_ascii
from pathlib import Path

from . import theorems
from .analysis import DEFAULT_EXACT_CAP, analyze, is_planar
from .coprime import graph_for_spec, graph_json, to_dot
from .embedding import DEFAULT_MIS_CAP, embed, parse_edge_list
from .errors import CoprimeGraphError, InputError, clip
from .groups import DEFAULT_MAX_ORDER, ascii_int

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1


# argparse names a flag's type in its refusal: "invalid ascii_int value: '1_0'"
@functools.wraps(ascii_int, assigned=("__name__",))
def _cap_int(text: str) -> int:
    """A cap flag's value: ``ascii_int``, refused below 0."""
    value = ascii_int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {clip(text)!r}")
    return value


def _env_cap(name: str, fallback: int) -> int:
    """An unset cap flag reads COPRIMEGRAPH_MAX_ORDER / COPRIMEGRAPH_EXACT_CAP."""
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        value = ascii_int(raw)
    except ValueError:
        sys.stderr.write(f"warning: ignoring non-integer {name}={clip(raw)!r}\n")
        return fallback
    if value < 0:
        sys.stderr.write(f"warning: ignoring negative {name}={clip(raw)!r}\n")
        return fallback
    return value


GRAMMAR_HELP = """\
group spec grammar:
  Z:n                cyclic group of order n
  D:n                dihedral group of order 2n
  SD:m,k,i           Z_m : Z_k, the Z_k generator acting by a -> a*i mod m
                     (requires gcd(i,m)=1 and i^k = 1 mod m)
  X(spec,spec)       direct product
  PERM:deg:gens      permutation group closure; generators are comma separated
                     products of disjoint cycles, e.g. PERM:4:[0 1 2],[0 1]x[2 3]
  names              A4 S4 S3 Q8 D12 S3xS3 Z3xA4 Z6xS3 Z9sZ4 Z3Z3sZ4 Z5Z5sZ3
                     Z5Z5sZ2 D10xZ5 Z2Z2sZ9 Z2xZ3Z3sZ2
"""


_is_scalar = frozenset({str, int, float, bool, type(None)}).__contains__


@functools.cache
def _level(depth: int):
    """For a container at ``depth``: a C encoder whose item separator is the
    newline and indent of its items, the text that opens its items, the item
    separator and the text before its closing bracket."""
    inner = "  " * (depth + 1)
    encoder = c_make_encoder(
        None, JSONEncoder().default, encode_basestring_ascii, None,
        ": ", ",\n" + inner, True, False, True,
    )
    return encoder, "\n" + inner, ",\n" + inner, "\n" + "  " * depth


# the exact type of a list's first item -> the types its rows may have, and their brackets
_ROWS = {list: ({list, tuple}, "[]"), tuple: ({list, tuple}, "[]"), dict: ({dict}, "{}")}


def _flat_rows(value) -> str:
    """The brackets of ``value``'s rows if every item is a non-empty list or
    tuple of scalars, or every item a non-empty dict of scalars, else "".
    Each test stops at the first item that fails it."""
    kinds, brackets = _ROWS.get(type(value[0]), ((), ""))
    if not (all(map(kinds.__contains__, map(type, value))) and all(value)):
        return ""
    items = chain.from_iterable(map(dict.values, value) if brackets == "{}" else value)
    return brackets if all(map(_is_scalar, map(type, items))) else ""


def _encode(value, depth: int) -> str:
    # flatness is tested by exact type, so a dict or list subclass (a Counter,
    # say) takes the recursive path and never reaches the C encoder as a scalar
    if isinstance(value, dict):
        if not value:
            return "{}"
        encoder, head, sep, tail = _level(depth)
        if type(value) is dict and all(map(_is_scalar, map(type, value.values()))):
            body = "".join(encoder(value, 0))[1:-1]
        else:
            body = sep.join([
                encode_basestring_ascii(k) + ": " + _encode(v, depth + 1)
                for k, v in sorted(value.items())
            ])
        return "{" + head + body + tail + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        encoder, head, sep, tail = _level(depth)
        if type(value) in (list, tuple) and all(map(_is_scalar, map(type, value))):
            body = "".join(encoder(value, 0))[1:-1]
        elif type(value) in (list, tuple) and (brackets := _flat_rows(value)):
            # the rows' encoder separates their items by a newline; it escapes
            # every control character inside a string, so a raw newline after
            # a closing bracket can only end a row
            row_encoder, row_head, row_sep, row_tail = _level(depth + 1)
            opening, closing = brackets
            rows = "".join(row_encoder(value, 0))[2:-2].replace(
                closing + row_sep + opening,
                row_tail + closing + sep + opening + row_head,
            )
            body = opening + row_head + rows + row_tail + closing
        else:
            body = sep.join([_encode(v, depth + 1) for v in value])
        return "[" + head + body + tail + "]"
    return "".join(_level(depth)[0](value, 0))


def _json_text(payload) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True) + "\\n"``, byte for byte,
    for payloads whose dict keys are all str.

    CPython's C encoder runs only when ``indent`` is None, so this writer
    recurses over the containers itself.  It hands each container of scalars,
    and each list of such containers (its rows), to the C encoder of its
    depth in one call, and puts the newlines between rows in with one replace.

    An ``embed`` certificate's integers can run to thousands of digits, past
    the interpreter's limit on int-to-text conversion, so the limit is lifted
    while encoding and restored after.  Readers keep it.
    """
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:  # a 3.10 build from before the limit
        return _encode(payload, 0) + "\n"
    limit = sys.get_int_max_str_digits()
    set_limit(0)
    try:
        return _encode(payload, 0) + "\n"
    finally:
        set_limit(limit)


def _write_output(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


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
    graph = graph_for_spec(args.spec, args.max_order, args.exact_cap)
    rep = analyze(graph, exact_cap=args.exact_cap)
    if args.format == "json":
        text = _json_text(rep.to_json_dict())
    else:
        text = _render_report_table(rep)
    _write_output(text, args.out)
    return EXIT_OK


def cmd_export(args) -> int:
    graph = graph_for_spec(args.spec, args.max_order)
    if args.format == "json":
        text = _json_text(graph_json(graph))
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
    report = theorems.run_catalog(
        max_order=args.max_order,
        catalog=entries,
        exact_cap=args.exact_cap,
        jobs=args.jobs,
    )
    if args.format == "table":
        text = report.render_table()
    else:
        text = _json_text(report.to_json_dict())
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
    payload = _json_text(cert.to_json_dict())
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
        text = _json_text(payload)
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    Cap flags default to None, so the environment is read per call in ``main``
    rather than frozen into the cached parser.
    """
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

    def caps(p, **fallbacks):
        for dest in fallbacks:
            p.add_argument("--" + dest.replace("_", "-"), type=_cap_int, default=None)
        p.set_defaults(cap_fallbacks=fallbacks)

    p = sub.add_parser("analyze", help="full invariant report for P(G)")
    p.add_argument("spec", help="group spec, e.g. Z:30 or A4")
    common(p, ("table", "json"), "table")
    caps(p, max_order=DEFAULT_MAX_ORDER, exact_cap=DEFAULT_EXACT_CAP)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("export", help="DOT or JSON rendering of P(G)")
    p.add_argument("spec")
    common(p, ("dot", "json"), "dot")
    caps(p, max_order=DEFAULT_MAX_ORDER)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("verify", help="run the verification catalog")
    common(p, ("json", "table"), "json")
    p.add_argument("--catalog", default=None, help="catalog JSON path (default: shipped)")
    caps(
        p,
        max_order=theorems.DEFAULT_CATALOG_MAX_ORDER,
        exact_cap=theorems.DEFAULT_CATALOG_EXACT_CAP,
    )
    p.add_argument("--jobs", type=_cap_int, default=1, help="parallel workers")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("embed", help="embed an edge-list graph into a cyclic coprime graph")
    p.add_argument("input", help="edge-list path, or - for stdin")
    p.add_argument("--out", default=None)
    p.add_argument("--mis-cap", type=_cap_int, default=DEFAULT_MIS_CAP)
    p.set_defaults(func=cmd_embed, cap_fallbacks={})

    p = sub.add_parser("catalog", help="list the catalog entries")
    common(p, ("table", "json"), "table")
    p.add_argument("--catalog", default=None)
    p.set_defaults(func=cmd_catalog, cap_fallbacks={})

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    for dest, fallback in args.cap_fallbacks.items():
        if getattr(args, dest) is None:
            setattr(args, dest, _env_cap(f"COPRIMEGRAPH_{dest.upper()}", fallback))
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
