"""Command-line front end.

Subcommands: enumerate, verify, tile, render, fundamental,
min-multiplicity.  Matrix files hold whitespace-separated rationals
(``p/q`` or integers), one row per line, ``#`` comments.  Numeric flags
take integers >= 1.  Exit codes: 0 success, 1 a graph of the document
failed its check (``verify``), 2 malformed input or an output path that
cannot be written, 3 degenerate matrix, 4 node-limit truncation, 5 a
tile expression that cannot be evaluated: a subtraction with no copy at
its offset, or a sum or difference that is not Kirchhoff.  Exit 2 comes
before any work: on an ``enumerate`` or ``tile`` ``--out`` that is a
directory or whose directory is missing, an ``--ids`` entry not in the
document, a system echo that its ``R`` does not rebuild.
"""

from __future__ import annotations

import argparse
import re
import sys
from importlib import import_module
from pathlib import Path

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_DEGENERATE = 3
EXIT_TRUNCATED = 4
EXIT_TILE_FAILED = 5


def _deferred(layer: str, name: str):
    """A stand-in for the function ``name`` of ``kirchgraph.<layer>`` that
    imports the layer when called.  The subcommands call the stand-ins
    through this module's attributes, so importing the CLI loads no layer,
    and a wrapper set on one of these attributes sees every call."""

    def stand_in(*args, **kwargs):
        return getattr(import_module(f"kirchgraph.{layer}"), name)(*args, **kwargs)

    stand_in.__name__ = stand_in.__qualname__ = name
    return stand_in


build_row_system = _deferred("exactalg", "build_row_system")
enumerate_kirchhoff = _deferred("enumerator", "enumerate_kirchhoff")
is_prime = _deferred("tiling", "is_prime")
fundamental_sets = _deferred("tiling", "fundamental_sets")
build_document = _deferred("document", "build_document")
document_to_json = _deferred("document", "document_to_json")
parse_document = _deferred("document", "parse_document")
render_svg = _deferred("render", "render_svg")


def _load(*layers: str) -> None:
    """Import the layers a subcommand calls, at its start and ``tiling``,
    the largest, first: a module compiled on a heap that the search or the
    other layers have grown adds its compile's scratch memory to the peak
    RSS."""
    for layer in layers:
        import_module(f"kirchgraph.{layer}")


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def parse_matrix_text(text: str):
    rows = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            rows.append([_rational(tok) for tok in line.split()])
        except ValueError as exc:
            raise CliError(f"line {lineno}: {exc}", EXIT_PARSE) from exc
    if not rows:
        raise CliError("matrix file holds no rows", EXIT_PARSE)
    return rows


RATIONAL_RE = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def _rational(tok: str):
    """An integer or ``p/q`` token as a Fraction.  Other forms that
    ``Fraction`` reads (``1e3``, ``0.5``, ``1_0``) are refused before it
    runs: an exponent such as ``1e999999999`` would take it unbounded
    time."""
    from fractions import Fraction

    try:
        if not RATIONAL_RE.fullmatch(tok):
            raise ValueError
        return Fraction(tok)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational {tok!r}") from exc


def _load_system(path: str):
    from kirchgraph.exactalg import RowSystemError

    try:
        rows = parse_matrix_text(Path(path).read_text())
    except OSError as exc:
        raise CliError(str(exc), EXIT_PARSE) from exc
    try:
        return build_row_system(rows)
    except RowSystemError as exc:
        raise CliError(f"degenerate matrix: {exc}", EXIT_DEGENERATE) from exc
    except ValueError as exc:
        raise CliError(f"bad matrix: {exc}", EXIT_PARSE) from exc


def _load_document(path: str):
    # RecursionError: JSON nested deeper than the interpreter's stack
    try:
        return parse_document(Path(path).read_text())
    except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
        raise CliError(f"bad document: {exc}", EXIT_PARSE) from exc


_SLICE = 1 << 16


def _write(path: Path, text: str | None = None) -> None:
    """Write ``text`` to the file ``path``, or make the directory ``path``
    when ``text`` is None; a path that cannot be written exits 2.  The
    text goes out in 64 KiB slices through the text-mode ``open`` that
    ``Path.write_text`` uses, so the file gets the same bytes but the
    whole text is never encoded into a second copy."""
    try:
        if text is None:
            path.mkdir(parents=True, exist_ok=True)
        else:
            with path.open("w") as out:
                for start in range(0, len(text), _SLICE):
                    out.write(text[start:start + _SLICE])
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc.strerror or exc}", EXIT_PARSE) from exc


def _out_file(path: str | None) -> Path | None:
    """The ``--out`` file ``path``, if given, checked before any work: a
    path that is a directory, or whose directory is missing, exits 2."""
    if not path:
        return None
    out = Path(path)
    if out.is_dir():
        raise CliError(f"cannot write {out}: Is a directory", EXIT_PARSE)
    if not out.parent.is_dir():
        raise CliError(f"cannot write {out}: its directory does not exist", EXIT_PARSE)
    return out


TERM_RE = re.compile(
    r"\s*(?P<sign>[+-])?\s*(?:(?P<coeff>\d+)\s*\*\s*)?(?P<ref>G\d+)"
    r"(?:@\(\s*(?P<off>-?\d+(?:\s*,\s*-?\d+)*)\s*\))?\s*"
)


def parse_expression(text: str, graphs_by_id: dict, k: int):
    from kirchgraph.tiling import Placement, TilingExpression

    placements = []
    pos = 0
    first = True
    while pos < len(text):
        match = TERM_RE.match(text, pos)
        if not match or match.end() == pos:
            raise CliError(f"cannot parse expression at: {text[pos:]!r}", EXIT_PARSE)
        sign_tok = match.group("sign")
        if first and sign_tok == "-":
            raise CliError("expression cannot start with a subtraction", EXIT_PARSE)
        if not first and sign_tok is None:
            raise CliError(f"missing +/- before {match.group('ref')}", EXIT_PARSE)
        sign = -1 if sign_tok == "-" else 1
        coeff = int(match.group("coeff") or 1)
        ref = match.group("ref")
        if ref not in graphs_by_id:
            raise CliError(f"unknown graph reference {ref}", EXIT_PARSE)
        if match.group("off"):
            offset = tuple(int(x) for x in match.group("off").split(","))
            if len(offset) != k:
                raise CliError(f"offset {offset} needs {k} coordinates", EXIT_PARSE)
        else:
            offset = (0,) * k
        placements.extend(
            Placement(graphs_by_id[ref], offset, sign) for _ in range(coeff)
        )
        pos = match.end()
        first = False
    if not placements:
        raise CliError("empty expression", EXIT_PARSE)
    return TilingExpression(tuple(placements))


# -- subcommands ----------------------------------------------------------


def cmd_enumerate(args) -> int:
    if args.classify_prime:
        _load("tiling")
    _load("enumerator", "document")
    from kirchgraph.enumerator import SearchConfig

    system = _load_system(args.matrix)
    out = _out_file(args.out)
    config = SearchConfig(
        m_max=args.m_max,
        prune_negative_sum=not args.no_negative_sum_prune,
        node_limit=args.node_limit,
        workers=args.workers,
    )
    graphs, stats = enumerate_kirchhoff(system, config)
    primality = None
    if args.classify_prime:
        primality = {i: is_prime(g).status for i, g in enumerate(graphs)}
    doc = build_document(
        system, graphs, m_max=args.m_max, complete=stats.complete, primality=primality
    )
    summary = doc["summary"]
    line = f"{summary['total']} graphs; {summary['self_chiral']} self-chiral; {summary['chiral_pairs']} chiral pairs"
    if primality is not None:
        line += f"; {summary['primes']} prime"
    if not stats.complete:
        line += " (INCOMPLETE: node limit hit)"
    print(line)
    if out:
        _write(out, document_to_json(doc))
    return EXIT_OK if stats.complete else EXIT_TRUNCATED


def cmd_verify(args) -> int:
    _, graphs, doc = _load_document(args.doc)
    all_ok = True
    for entry, graph in zip(doc["graphs"], graphs):
        verdict = graph.is_kirchhoff()
        detail = ""
        if verdict.status == "bad_vertex":
            detail = f" at vertex {verdict.vertex} with cut {verdict.cut}"
        elif verdict.status == "cycle_space_deficient":
            detail = f" (rank {verdict.rank_found} of {verdict.rank_required})"
        print(f"{entry['id']}: {verdict.status}{detail}")
        if verdict.status not in ("ok", "trivial"):
            all_ok = False
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def cmd_tile(args) -> int:
    _load("tiling", "document")
    from kirchgraph.tiling import TilingError

    system, graphs, doc = _load_document(args.doc)
    out = _out_file(args.out)
    graphs_by_id = {entry["id"]: g for entry, g in zip(doc["graphs"], graphs)}
    expr = parse_expression(args.expression, graphs_by_id, system.k)
    try:
        result = expr.evaluate()
    except TilingError as exc:
        print(f"tile failed: {exc}", file=sys.stderr)
        return EXIT_TILE_FAILED
    primality = None
    if args.check_prime and not result.is_empty:
        primality = {0: is_prime(result).status}
    out_doc = build_document(system, [result], primality=primality)
    verdict = result.is_kirchhoff().status
    mult = result.multiplicity()
    line = f"result: {verdict}; m = {mult.m if mult.uniform else 'non-uniform'}"
    if primality:
        line += f"; {primality[0]}"
    print(line)
    if out:
        _write(out, document_to_json(out_doc))
    return EXIT_OK


def cmd_render(args) -> int:
    _load("document", "render")
    from kirchgraph.render import render_dot

    system, graphs, doc = _load_document(args.doc)
    if system.k > 2:
        print(
            "warning: k > 2, projecting onto the first two coordinates",
            file=sys.stderr,
        )
    by_id = {entry["id"]: g for entry, g in zip(doc["graphs"], graphs)}
    selected = list(by_id) if args.ids is None else [s for s in args.ids.split(",") if s]
    unknown = [gid for gid in selected if gid not in by_id]
    if unknown:
        raise CliError(f"unknown graph id {unknown[0]}", EXIT_PARSE)
    outdir = Path(args.out_dir)
    _write(outdir)
    for gid in selected:
        graph = by_id[gid]
        if args.format == "dot":
            text = render_dot(graph, gid)
        elif args.format == "json":
            text = document_to_json(build_document(system, [graph]))
        else:
            text = render_svg(graph, gid)
        path = outdir / f"{gid}.{args.format}"
        _write(path, text)
        print(path)
    return EXIT_OK


def cmd_fundamental(args) -> int:
    _load("tiling", "enumerator")
    from kirchgraph.enumerator import SearchConfig
    from kirchgraph.tiling import DEFAULT_COEFF_BOUND

    coeff_bound = DEFAULT_COEFF_BOUND if args.coeff_bound is None else args.coeff_bound
    system = _load_system(args.matrix)
    graphs, _ = enumerate_kirchhoff(system, SearchConfig(m_max=args.m_max))
    if not graphs:
        print("no graphs to generate")
        return EXIT_OK
    subsets = fundamental_sets(graphs, coeff_bound=coeff_bound)
    print(
        f"{len(subsets)} fundamental set(s) under coeff bound {coeff_bound} "
        "(bound-relative: larger bounds could shrink these)"
    )
    # enumerate_kirchhoff returns the graphs in the canonical order that
    # a document numbers, so graph i is the document's G{i}
    for subset in subsets:
        names = ", ".join(f"G{i}" for i in subset)
        print(f"  {{{names}}}")
    return EXIT_OK


def cmd_min_multiplicity(args) -> int:
    from kirchgraph.enumerator import min_multiplicity

    system = _load_system(args.matrix)
    result = min_multiplicity(system, args.m_limit)
    print("none" if result is None else result)
    return EXIT_OK


def _positive_int(text: str) -> int:
    """The argparse type of the numeric flags: an integer >= 1."""
    try:
        if int(text) >= 1:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kirchgraph",
        description="Enumerate, verify, tile and render uniform Kirchhoff graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_matrix_opts(p):
        p.add_argument("--matrix", required=True, help="path to the matrix file")

    p = sub.add_parser("enumerate", help="find all graphs up to a multiplicity bound")
    add_matrix_opts(p)
    p.add_argument("--workers", type=_positive_int, default=1)
    p.add_argument("--m-max", type=_positive_int, required=True)
    p.add_argument("--out", help="write the JSON document here")
    p.add_argument("--classify-prime", action="store_true")
    p.add_argument("--no-negative-sum-prune", action="store_true")
    p.add_argument("--node-limit", type=_positive_int, default=None)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify", help="re-check every graph in a document")
    p.add_argument("--doc", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("tile", help="evaluate a tiling expression over a document")
    p.add_argument("--doc", required=True)
    p.add_argument("expression", help='e.g. "1*G0@(0,0) + 1*G1@(1,1)"')
    p.add_argument("--out", help="write the result document here")
    p.add_argument("--check-prime", action="store_true")
    p.set_defaults(func=cmd_tile)

    p = sub.add_parser("render", help="write SVG, DOT or JSON files for graphs")
    p.add_argument("--doc", required=True)
    p.add_argument("--format", choices=("svg", "dot", "json"), default="svg")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--ids", help="comma-separated graph ids (default: all)")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("fundamental", help="minimum generating subsets")
    add_matrix_opts(p)
    p.add_argument("--m-max", type=_positive_int, required=True)
    p.add_argument("--coeff-bound", type=_positive_int)
    p.set_defaults(func=cmd_fundamental)

    p = sub.add_parser("min-multiplicity", help="smallest m with any graph")
    add_matrix_opts(p)
    p.add_argument("--m-limit", type=_positive_int, required=True)
    p.set_defaults(func=cmd_min_multiplicity)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    raise SystemExit(main())
