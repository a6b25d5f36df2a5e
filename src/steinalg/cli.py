"""Command-line front door.

Subcommands: validate, mul, grade, relations, collapse, morita-check.
Every run is a pure function of (input files, flags, seed) and the reports
are rendered deterministically, so repeated runs are byte-identical.

Exit codes: 0 all checks pass, 1 usage error, 2 unreadable or invalid
input, 3 a certified check failed, 4 internal failure (a broken invariant,
a ValueError that is not rejected input, or memory running out).
"""

from __future__ import annotations

import argparse
import functools
import sys

from .collapse import CollapseSpec, check_phi_fin_image, collapse, \
    pointed_groupoid_iso_check, validate_collapsible
from .errors import InputError
from .graph import _comma_list, load_graph_file
from .leavitt import check_ck_relations, eval_word
from .morita import morita_report
from .report import Report
from .rings import int_of_text, int_text, ring_from_spec
from .steinberg import add_all, convolve, grade


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _integer(text):
    """An int flag's value: a nonempty run of decimal digits, as a
    ``zmod:`` modulus is, after at most one leading "-".  int() would also
    take blanks, underscores and a "+"."""
    negative = text[:1] == "-"
    digits = text[1:] if negative else text
    if not digits.isdecimal():
        raise argparse.ArgumentTypeError("invalid int value: %r" % text)
    n = int_of_text(digits)
    return -n if negative else n


def _depth(text):
    """The --depth value: a window depth, an int written with no "-"."""
    n = _integer(text)
    if text[:1] == "-":
        raise argparse.ArgumentTypeError("depth must be >= 0, got %s" % text)
    return n


def build_parser() -> _Parser:
    parser = _Parser(prog="steinalg", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True

    def common(sp, t0=False, ring=False, depth=False, seed=False):
        sp.add_argument("--graph", required=True, help="graph file")
        if t0:
            sp.add_argument("--t0", type=_comma_list, default=None,
                            help="comma-separated vertices to collapse")
        if ring:
            sp.add_argument("--ring", default="z", help="z, q, or zmod:N")
        if depth:
            sp.add_argument("--depth", type=_depth, default=3,
                            help="window depth for bounded checks")
        if seed:
            sp.add_argument("--seed", type=_integer, default=0)
        sp.add_argument("--format", dest="fmt", choices=("text", "kv"),
                        default="text")

    sp = sub.add_parser("validate", help="check a graph file and optionally a collapse set")
    common(sp, t0=True)
    sp = sub.add_parser("mul", help="multiply two generator words")
    common(sp, ring=True)
    sp.add_argument("words", nargs=2, metavar="word")
    sp = sub.add_parser("grade", help="evaluate a word and split it by degree")
    common(sp, ring=True)
    sp.add_argument("words", nargs=1, metavar="word")
    sp = sub.add_parser("relations", help="certify the generator relations")
    common(sp, ring=True)
    sp = sub.add_parser("collapse", help="collapse a vertex set and certify the move")
    common(sp, t0=True, depth=True)
    sp = sub.add_parser("morita-check", help="run the full context pipeline")
    common(sp, t0=True, ring=True, depth=True, seed=True)
    return parser


@functools.cache
def _shared_parser() -> _Parser:
    """The parser of every ``main`` call in this process, built on first
    use: parsing keeps no state in it, since each call reads its flags into
    a fresh namespace and a usage error leaves by an exception."""
    return build_parser()


# -- subcommands ------------------------------------------------------------


def _graph_section(rep, g):
    rep.add("graph", "vertices", ", ".join(g.vertices))
    rep.add("graph", "edges", len(g.edge_ids))
    rep.check("graph", "well-formed", True)


def cmd_validate(args) -> Report:
    g = load_graph_file(args.graph)
    rep = Report("validate")
    _graph_section(rep, g)
    if args.t0 is not None:
        rep.absorb(validate_collapsible(CollapseSpec(g, args.t0)))
    return rep


def _element_rows(rep, section, f):
    rep.add(section, "canonical", f.render())
    decomposition = grade(f)
    for n in decomposition.degrees():
        rep.add(section, "degree %d" % n, decomposition.component(n).render())
    return decomposition


def cmd_mul(args) -> Report:
    g = load_graph_file(args.graph)
    ring = ring_from_spec(args.ring)
    rep = Report("mul")
    rep.add("inputs", "left", args.words[0])
    rep.add("inputs", "right", args.words[1])
    rep.add("inputs", "ring", ring.name)
    product = convolve(eval_word(g, args.words[0], ring),
                       eval_word(g, args.words[1], ring))
    _element_rows(rep, "product", product)
    return rep


def cmd_grade(args) -> Report:
    g = load_graph_file(args.graph)
    ring = ring_from_spec(args.ring)
    rep = Report("grade")
    rep.add("inputs", "word", args.words[0])
    rep.add("inputs", "ring", ring.name)
    f = eval_word(g, args.words[0], ring)
    parts = list(_element_rows(rep, "element", f).components.values())
    rep.check("element", "components-sum-back", (add_all(parts) if parts else f) == f)
    return rep


def cmd_relations(args) -> Report:
    g = load_graph_file(args.graph)
    ring = ring_from_spec(args.ring)
    rep = Report("relations")
    _graph_section(rep, g)
    rep.add("graph", "ring", ring.name)
    rep.absorb(check_ck_relations(g, ring))
    return rep


def cmd_collapse(args) -> Report:
    g = load_graph_file(args.graph)
    spec = CollapseSpec(g, args.t0 or ())
    rep = Report("collapse")
    rep.absorb(validate_collapsible(spec))
    if not rep.ok:
        return rep
    cert = collapse(spec)
    rep.add("collapsed-graph", "vertices", ", ".join(cert.collapsed.vertices))
    for e in cert.collapsed.edges:
        rep.add("collapsed-graph", e.id, "%s <- %s" % (e.range_vertex, e.source_vertex))
    rep.absorb(check_phi_fin_image(cert, max_len=args.depth + 2), prefix="paths.")
    rep.absorb(pointed_groupoid_iso_check(cert, depth=args.depth), prefix="groupoid.")
    return rep


def cmd_morita(args) -> Report:
    g = load_graph_file(args.graph)
    ring = ring_from_spec(args.ring)
    spec = CollapseSpec(g, args.t0 or ())
    pre = validate_collapsible(spec)
    if not pre.ok:
        return pre
    return morita_report(g, spec.t0, ring, depth=args.depth, seed=args.seed)


_COMMANDS = {"validate": cmd_validate, "mul": cmd_mul, "grade": cmd_grade,
             "relations": cmd_relations, "collapse": cmd_collapse,
             "morita-check": cmd_morita}


def main(argv=None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 1
    try:
        rep = _COMMANDS[args.command](args)
    except (OSError, InputError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (AssertionError, RuntimeError, ValueError) as exc:
        print("internal error: %s" % exc, file=sys.stderr)
        return 4
    except (MemoryError, SystemError):
        # Out of memory; CPython can report a failed allocation as a
        # SystemError.  The traceback keeps every frame of the failed run
        # alive, so the message is printed once the handler has let it go.
        rep = None
    if rep is None:
        print("internal error: %s ran out of memory%s" % (
            args.command, "; try a smaller --depth than %s" % int_text(args.depth)
            if "depth" in args else ""), file=sys.stderr)
        return 4
    sys.stdout.write(rep.render(args.fmt))
    return 0 if rep.ok else 3


def console_main():
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
