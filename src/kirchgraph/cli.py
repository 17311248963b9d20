"""Command-line front end.

Subcommands: enumerate, verify, tile, render, fundamental,
min-multiplicity.  Matrix files hold whitespace-separated rationals
(``p/q`` or integers), one row per line, ``#`` comments.  Numeric flags
take integers >= 1.  Exit codes: 0 success, 1 a graph of the document
failed its check (``verify``), 2 malformed input or an output path that
cannot be written, 3 degenerate matrix, 4 node-limit truncation, 5 a
tile expression that cannot be evaluated: a subtraction with no copy at
its offset, or a sum or difference that is not Kirchhoff, 141 (128 +
SIGPIPE, as the shell reports for other tools) the reader of stdout
closed it early, as ``head`` does, with nothing on stderr; that includes
an ``--out /dev/stdout`` on a pipe.  Exit 2 comes before any work: on an
empty ``--out`` or ``--out-dir``, an ``enumerate`` or ``tile`` ``--out``
that is a directory or whose directory is missing, an ``--ids`` entry
not in the document, a system echo that its ``R`` does not rebuild.  A
CLI process freezes the collector at exit (``gc.freeze``), sparing
shut-down ~10 ms of passes over live objects; files are closed and the
exit code set before, and stdout and stderr are still flushed, so no
output changes.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import os
import re
import stat
import sys
from importlib import import_module
from pathlib import Path

atexit.register(gc.freeze)  # shut-down's collections then skip every live object

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_DEGENERATE = 3
EXIT_TRUNCATED = 4
EXIT_TILE_FAILED = 5
EXIT_BROKEN_PIPE = 141


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
    when ``text`` is None; a path that cannot be written exits 2.

    An existing file is rewritten in place: it is opened without
    ``O_TRUNC``, the text overwrites its blocks from the start, and only
    then is a regular file truncated at the end of the text.  On ext4,
    truncating a file that holds blocks and writing it again costs about
    0.06-0.08 ms a file more than overwriting the blocks, which is most of
    a ``render`` of a census onto its previous output.  Other files, such
    as ``/dev/null`` or ``/dev/stdout`` on a pipe, are written and never
    truncated.  The cost of rewriting in place: a crash or a failed write
    part way through can leave old bytes after the new prefix, where
    ``O_TRUNC`` would leave a short file.  Either way the command exits 2
    (or dies), and every output can be written again.

    The text goes out in 64 KiB slices through the text-mode ``open`` that
    ``Path.write_text`` uses, so the file gets the same bytes but the
    whole text is never encoded into a second copy.  A reader that closed
    the pipe behind ``path`` early is left to ``main`` (exit 141)."""
    try:
        if text is None:
            path.mkdir(parents=True, exist_ok=True)
            return
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        with open(fd, "w") as out:
            for start in range(0, len(text), _SLICE):
                out.write(text[start:start + _SLICE])
            if stat.S_ISREG(os.fstat(fd).st_mode):
                out.truncate()
    except BrokenPipeError:
        raise
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc.strerror or exc}", EXIT_PARSE) from exc


def _out_path(text: str) -> Path:
    """The output path ``text``; an empty one exits 2, where ``Path("")``
    would be the current directory."""
    if not text:
        raise CliError("cannot write '': empty path", EXIT_PARSE)
    return Path(text)


def _out_file(path: str | None) -> Path | None:
    """The ``--out`` file ``path``, if given, checked before any work: a
    path that is empty or a directory, or whose directory is missing,
    exits 2."""
    if path is None:
        return None
    out = _out_path(path)
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
    while pos < len(text):
        match = TERM_RE.match(text, pos)
        if not match or match.end() == pos:
            raise CliError(f"cannot parse expression at: {text[pos:]!r}", EXIT_PARSE)
        sign, coeff, ref, off = match.group("sign", "coeff", "ref", "off")
        if pos == 0 and sign == "-":
            raise CliError("expression cannot start with a subtraction", EXIT_PARSE)
        if pos and sign is None:
            raise CliError(f"missing +/- before {ref}", EXIT_PARSE)
        if ref not in graphs_by_id:
            raise CliError(f"unknown graph reference {ref}", EXIT_PARSE)
        try:
            coeff = int(coeff or 1)
            offset = tuple(int(x) for x in off.split(",")) if off else (0,) * k
        except ValueError as exc:  # more digits than int() reads (4,300 by default)
            raise CliError(f"cannot read a number in the {ref} term: {exc}", EXIT_PARSE) from None
        if len(offset) != k:
            raise CliError(f"offset {offset} needs {k} coordinates", EXIT_PARSE)
        if coeff:
            placements.append(Placement(graphs_by_id[ref], offset, -coeff if sign == "-" else coeff))
        pos = match.end()
    if not placements:
        raise CliError("empty expression", EXIT_PARSE)
    _check_printable(placements)
    return TilingExpression(tuple(placements))


def _check_printable(placements) -> None:
    """Refuse, before any work, an expression whose run could meet a number
    longer than ``str()`` prints (4,300 digits by default).  A count in any
    partial sum, at a key, in a cut or per vector, is at most the sum of
    |c| times the placed graph's count of that vector.  Every vertex lies
    in the box that holds the placed copies, so a coordinate, of a vertex or
    of its offset from the least vertex, is at most a corner's or the box's
    extent in size."""
    digits = getattr(sys, "get_int_max_str_digits", int)()
    placed = [p for p in placements if not p.graph.is_empty]
    counts = [[abs(p.sign) * c for c in p.graph.multiplicity().counts] for p in placed]
    lows = [[o + min(c) for o, c in zip(p.offset, zip(*p.graph.vertices))] for p in placed]
    highs = [[o + max(c) for o, c in zip(p.offset, zip(*p.graph.vertices))] for p in placed]
    sides = zip(map(min, zip(*lows)), map(max, zip(*highs)))
    biggest = max([*map(sum, zip(*counts)), *(max(-a, b, b - a) for a, b in sides)], default=0)
    if digits and biggest >= 10 ** digits:
        raise CliError(f"the result could hold a number of more than {digits} digits", EXIT_PARSE)


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
        sys.stdout.flush()  # the summary goes before the document if --out is stdout
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
        sys.stdout.flush()
        _write(out, document_to_json(out_doc))
    return EXIT_OK


def cmd_render(args) -> int:
    _load("document", "render")
    from kirchgraph.render import render_dot

    outdir = _out_path(args.out_dir)
    system, graphs, doc = _load_document(args.doc)
    if system.k > 2:
        print("warning: k > 2, projecting onto the first two coordinates", file=sys.stderr)
    by_id = {entry["id"]: g for entry, g in zip(doc["graphs"], graphs)}
    selected = by_id if args.ids is None else dict.fromkeys(filter(None, args.ids.split(",")))
    unknown = [gid for gid in selected if gid not in by_id]
    if unknown:
        raise CliError(f"unknown graph id {unknown[0]}", EXIT_PARSE)
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
    p.add_argument("--workers", type=_positive_int, default=1, help="no effect; kept for scripts that pass it")
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
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return code
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except BrokenPipeError:
        # stdout's reader is gone: point fd 1 at devnull, so that the
        # flush at shutdown does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    raise SystemExit(main())
