"""Command-line entry point: `flopcalc <subcommand> ...`.

Subcommands: catalog, gb, nf, hypersurface, mf, specialize, superpotential,
verify-rep, contraction, gv.  Exit codes: 0 success, 1 domain error,
2 budget exhaustion, 3 usage or parse error.

Output is human-readable text by default; `--format records` emits the
line-delimited structured form: a `schema: 1` header followed by
`key: value` lines, with each logical record introduced by `record: <kind>`.
Identical inputs and flags produce byte-identical output.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .catalog import (
    CatalogError,
    LENGTH2_CHARTS,
    catalog_entry,
    catalog_names,
    catalog_presentation,
    universal_flopping_algebra,
    verify_invariants,
)
from .coeff import CoeffError, DivisionByZeroError, ParamRing, format_poly, parse_poly
from .contraction import contraction_report, gv_invariants
from .flops import (
    Representation,
    hypersurface,
    matrix_factorization,
    specialize,
    verify_representation,
    verify_superpotential,
)
from .ncgb import Budget, BudgetExceededError, normal_form, truncated_groebner
from .pathalg import (
    ParseError,
    PathAlgebraError,
    _check_once,
    _check_param_names,
    _parse_int,
    format_presentation,
    parse_element,
    parse_presentation,
)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_BUDGET = 2
EXIT_USAGE = 3


class _Out:
    """Collects either text lines or structured records deterministically."""

    def __init__(self, structured: bool):
        self.structured = structured
        self.lines: List[str] = ["schema: 1"] if structured else []

    def record(self, kind: str):
        if self.structured:
            self.lines.append("record: %s" % kind)

    def field(self, key: str, value):
        if self.structured:
            self.lines.append("%s: %s" % (key, value))

    def text(self, line: str = ""):
        if not self.structured:
            self.lines.append(line)

    def both(self, key: str, value):
        self.lines.append("%s: %s" % (key, value))

    def emit(self):
        sys.stdout.write("\n".join(self.lines) + ("\n" if self.lines else ""))


def _load_presentation(args):
    if args.builtin:
        return catalog_presentation(args.builtin)
    if args.infile:
        with open(args.infile, "r", encoding="utf-8") as fh:
            return parse_presentation(fh.read())
    raise ParseError("one of --in or --builtin is required")


def _degree(args, pres) -> int:
    """--degree, or else the truncation degree the presentation records."""
    degree = pres.gb_degree if args.degree is None else args.degree
    if degree is None:
        raise ParseError("--degree is required (presentation records no default)")
    return degree


def _pipeline_source(args):
    if args.length is not None:
        return universal_flopping_algebra(args.length)
    if args.builtin:
        return catalog_entry(args.builtin)
    raise ParseError("one of --length or --builtin is required")


def _write_presentation(pres, path, out: _Out):
    """The presentation's text to the file `path`, or to the output without one
    (after the records header in records mode)."""
    text = format_presentation(pres)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out.both("written", path)
    else:
        out.lines.extend(text.splitlines())


def _report_checks(kind: str, report, out: _Out):
    out.record(kind)
    out.both("pass", "true" if report.ok else "false")
    for name, ok, detail in report.checks:
        out.both("check", "%s: %s%s" % (name, "ok" if ok else "FAIL",
                                        (" (%s)" % detail) if detail and not ok else ""))


# -- subcommand implementations ----------------------------------------------

def cmd_catalog(args, out: _Out):
    if args.action == "list":
        out.record("catalog")
        for name in catalog_names():
            if out.structured:
                out.field("name", name)
            else:
                out.text(name)
        return
    if args.name is None:
        raise ParseError("catalog show needs a name (see catalog list)")
    _write_presentation(catalog_presentation(args.name), args.out, out)


def cmd_gb(args, out: _Out):
    pres = _load_presentation(args)
    gb = truncated_groebner(pres, max_degree=_degree(args, pres), budget=Budget(args.budget))
    out.record("groebner")
    out.both("rules", len(gb.rules))
    out.both("complete", "true" if gb.complete else "false")
    if out.structured:
        for line in gb.serialize().splitlines():
            out.field("rule" if "->" in line else "header", line)
    else:
        out.text(gb.serialize().rstrip("\n"))


def cmd_nf(args, out: _Out):
    pres = _load_presentation(args)
    budget = Budget(args.budget)
    gb = truncated_groebner(pres, max_degree=_degree(args, pres), budget=budget)
    elem = parse_element(args.element, pres.quiver, pres.params)
    nf = normal_form(elem, gb, budget)
    out.record("normal-form")
    out.both("input", args.element)
    out.both("normal_form", nf.format(gb.order))


def cmd_hypersurface(args, out: _Out):
    source = _pipeline_source(args)
    basis = "nice" if args.nice_basis else "raw"
    hyp = hypersurface(source, gb_degree=args.degree, basis=basis, budget=Budget(args.budget))
    out.record("hypersurface")
    out.both("basis", basis)
    out.both("variables", ", ".join(hyp.ring.names))
    out.both("P", format_poly(hyp.P))
    out.both("g", format_poly(hyp.g))
    out.both("equation", "f = %s" % format_poly(hyp.equation))


def cmd_mf(args, out: _Out):
    source = _pipeline_source(args)
    basis = "nice" if args.nice_basis else "raw"
    mf = matrix_factorization(source, gb_degree=args.degree, basis=basis,
                              budget=Budget(args.budget))
    out.record("matrix-factorization")
    out.both("size", mf.size)
    # matrix_factorization raises unless C^2 = g I holds exactly
    out.both("identity", "C^2 = g*I exact")
    out.both("g", format_poly(mf.g))
    if not args.check_only:
        for i, row in enumerate(mf.C):
            out.both("row%d" % i, "[" + ", ".join(format_poly(e) for e in row) + "]")


def _content_lines(path: str):
    """(line number, content, offset) for each line of a file that is not
    blank once its comment is cut; `offset` is where the content starts."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            body = raw.split("#", 1)[0]
            if body.strip():
                yield lineno, body.strip(), len(body) - len(body.lstrip())


def _stripped(text: str, start: int):
    """`text` stripped, and its offset in the line given that `text` starts
    at offset `start`."""
    return text.strip(), start + len(text) - len(text.lstrip())


def _split(text: str, sep: str, start: int):
    """The stripped parts of `text` between the `sep`s, with their offsets."""
    out = []
    for part in text.split(sep):
        out.append(_stripped(part, start))
        start += len(part) + len(sep)
    return out


def _parse_value(text: str, ring: ParamRing, lineno: int, start: int):
    """Parse a polynomial that starts at offset `start` of line `lineno`."""
    try:
        return parse_poly(text, ring)
    except CoeffError as exc:
        column = None if exc.position is None else start + exc.position + 1
        raise ParseError(str(exc), line=lineno, column=column)


def _parse_ring(line: str, lineno: int, ring_line: Optional[int], pres=None) -> ParamRing:
    """The ring of a `ring: name, ...` line; `ring_line` is that of an
    earlier one.  With `pres`, each name must be a parameter name there."""
    try:
        ring = ParamRing([n.strip() for n in line[5:].split(",") if n.strip()])
        if pres is not None:
            _check_param_names(pres.quiver, ring)
    except (CoeffError, PathAlgebraError) as exc:
        raise ParseError(str(exc), line=lineno)
    _check_once(ring_line is not None, "'ring:'", lineno)
    return ring


def _parameter(name: str, pres, lineno: int, mapped) -> str:
    """`name`, once it is known to be a parameter of the presentation that
    `mapped` does not map yet."""
    if name not in pres.params.names:
        raise ParseError("%r is not a parameter of the presentation" % name, line=lineno)
    _check_once(name in mapped, "the image of %r" % name, lineno)
    return name


def _check_unmapped(pres, mapped, ring: ParamRing, ring_line: Optional[int]):
    """Every parameter of the presentation that a file leaves unmapped must
    be a name of the file's ring (declared on line `ring_line`)."""
    for name in pres.params.names:
        if name not in mapped and name not in ring.names:
            raise ParseError("%r is neither mapped nor in the ring: line" % name,
                             line=ring_line)


def _parse_map_file(path: str, pres):
    """(ring, {parameter: polynomial over ring}); without a `ring:` line the
    ring is that of the unmapped parameters."""
    ring = ring_line = None
    entries = {}  # parameter -> (value text, line number, offset)
    for lineno, line, offset in _content_lines(path):
        if line.startswith("ring:"):
            ring, ring_line = _parse_ring(line, lineno, ring_line, pres), lineno
            continue
        if "=" not in line:
            raise ParseError("bad map line %r" % line, line=lineno)
        name, value = line.split("=", 1)
        value, at = _stripped(value, offset + len(name) + 1)
        entries[_parameter(name.strip(), pres, lineno, entries)] = (value, lineno, at)
    if ring is None:
        ring = ParamRing([n for n in pres.params.names if n not in entries])
    mapping = {k: _parse_value(v, ring, lineno, at) for k, (v, lineno, at) in entries.items()}
    _check_unmapped(pres, mapping, ring, ring_line)
    return ring, mapping


def cmd_specialize(args, out: _Out):
    pres = _load_presentation(args)
    ring, mapping = _parse_map_file(args.map, pres)
    _write_presentation(specialize(pres, mapping, ring), args.out, out)


def cmd_superpotential(args, out: _Out):
    if args.builtin:
        entry = catalog_entry(args.builtin)
        if entry.superpotential is None:
            raise CatalogError("builtin %r records no superpotential" % args.builtin)
        pres = entry.presentation()
        phi = entry.superpotential_element()
    else:
        pres = _load_presentation(args)
        if args.phi is None:
            raise ParseError("--phi is required with --in")
        with open(args.phi, "r", encoding="utf-8") as fh:
            phi = parse_element(fh.read().strip(), pres.quiver, pres.params)
    report = verify_superpotential(pres, phi, gb_degree=args.degree, budget=Budget(args.budget))
    _report_checks("superpotential", report, out)


def _parse_rep_file(path: str, alg):
    ring, ring_line = ParamRing(()), None
    dims = {}
    param_texts = {}  # parameter -> (line number, value text, offset)
    matrix_texts = {}  # arrow -> (line number, rows of (entry text, offset))
    for lineno, line, offset in _content_lines(path):
        if line.startswith("ring:"):
            ring, ring_line = _parse_ring(line, lineno, ring_line), lineno
        elif line.startswith("dims:"):
            for part in line[5:].split(","):
                v, eq, n = part.partition("=")
                v = v.strip()
                if not eq:
                    raise ParseError("dims entry %r is not vertex=dimension"
                                     % part.strip(), line=lineno)
                if v not in alg.quiver.vertices:
                    raise ParseError("%r is not a vertex of the quiver" % v, line=lineno)
                _check_once(v in dims, "the dimension of vertex %r" % v, lineno)
                dims[v] = _parse_int(n, "dimension of vertex %r" % v, lineno)
                if dims[v] < 0:
                    raise ParseError("dimension of vertex %r is negative" % v, line=lineno)
        elif line.startswith("map:"):
            name, eq, value = line[4:].partition("=")
            if not eq:
                raise ParseError("map line is not parameter = polynomial", line=lineno)
            param_texts[_parameter(name.strip(), alg, lineno, param_texts)] = (
                (lineno,) + _stripped(value, offset + 5 + len(name)))
        elif line.startswith("matrix"):
            head, colon, value = line.partition(":")
            if not colon:
                raise ParseError("matrix line is not matrix <arrow>: [rows]", line=lineno)
            name = head[len("matrix"):].strip()
            if name not in [a.name for a in alg.quiver.arrows]:
                raise ParseError("%r is not an arrow of the quiver" % name, line=lineno)
            _check_once(name in matrix_texts, "the matrix of %r" % name, lineno)
            value, at = _stripped(value, offset + len(head) + 1)
            if not (value.startswith("[") and value.endswith("]")):
                raise ParseError("matrix rows must be bracketed", line=lineno)
            rows = [_split(r, ",", r_at) for r, r_at in _split(value[1:-1], ";", at + 1)]
            if len({len(r) for r in rows}) > 1:
                raise ParseError("matrix %s has rows of different lengths" % name, line=lineno)
            matrix_texts[name] = (lineno, rows)
        else:
            raise ParseError("unknown rep line %r" % line, line=lineno)
    for v in alg.quiver.vertices:
        if v not in dims:
            raise ParseError("dims: gives no dimension for vertex %r" % v)
    param_map = {k: _parse_value(text, ring, lineno, at)
                 for k, (lineno, text, at) in param_texts.items()}
    matrices = {k: [[_parse_value(text, ring, lineno, at) for text, at in row] for row in rows]
                for k, (lineno, rows) in matrix_texts.items()}
    _check_unmapped(alg, param_map, ring, ring_line)
    for a in alg.quiver.arrows:
        if a.name not in matrices:
            raise ParseError("no matrix for arrow %r" % a.name)
        m = matrices[a.name]
        got, want = (len(m), len(m[0])), (dims[a.source], dims[a.target])
        if got != want:
            raise ParseError("matrix for %r has shape %r, expected %r" % (a.name, got, want),
                             line=matrix_texts[a.name][0])
    return Representation(alg, dims, matrices, ring, param_map)


def cmd_verify_rep(args, out: _Out):
    pres = _load_presentation(args)
    if args.chart:
        chart = LENGTH2_CHARTS[args.chart]
        rep = Representation(pres, chart["dims"], chart["matrices"],
                             ParamRing(chart["ring"]), chart["param_map"])
    elif args.rep:
        rep = _parse_rep_file(args.rep, pres)
    else:
        raise ParseError("one of --rep or --chart is required")
    _report_checks("verify-rep", verify_representation(pres, rep), out)


def cmd_contraction(args, out: _Out):
    # the family parameters are units of the coefficient field; the
    # contraction algebra lives in the parameter-eliminated twin
    twin = catalog_entry(args.builtin).eliminated if args.builtin else None
    pres = catalog_presentation(twin) if twin else _load_presentation(args)
    report = contraction_report(pres, args.vertex, length=args.length, budget=Budget(args.budget))
    out.record("contraction")
    if twin:
        out.both("presentation", "%s (parameter-eliminated form of %s)" % (twin, args.builtin))
    out.both("dim", report.dim)
    out.both("dim_ab", report.dim_ab)
    out.both("gv", " ".join(str(t) for t in report.gv_solutions) or "none")


def cmd_gv(args, out: _Out):
    sols = gv_invariants(args.dim, args.dim_ab, args.length)
    out.record("gv")
    out.both("solutions", " ".join(str(t) for t in sols) or "none")


def cmd_invariants(args, out: _Out):
    entry = universal_flopping_algebra(args.length)
    report = verify_invariants(entry)
    out.record("invariants")
    out.both("pass", "true" if report.ok else "false")
    out.both("checks", len(report.checks))
    for name, detail in report.failures():
        out.both("failure", "%s %s" % (name, detail))


# -- argument parsing ---------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ParseError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="flopcalc",
                description="noncommutative computer algebra for threefold flops")
    p.add_argument("--format", choices=("text", "records"), default="text",
                   help="output format (records = line-delimited, schema: 1)")
    sub = p.add_subparsers(dest="command", required=True)

    def budget(sp):
        sp.add_argument("--budget", type=int, default=None,
                        help="reduction step budget (default env FLOPCALC_MAX_STEPS or 10^6)")

    def degree(sp, degree_help="truncation degree override"):
        sp.add_argument("--degree", type=int, default=None, help=degree_help)

    def potential_degree(sp):
        degree(sp, "truncation degree override; it matters only for checks that inspection "
                   "does not decide (an element that is zero or a constant multiple of a "
                   "generator of the other side needs no basis)")

    def pipeline(sp):
        sp.add_argument("--length", type=int, choices=range(1, 7), default=None)
        sp.add_argument("--builtin", default=None)
        sp.add_argument("--nice-basis", action="store_true",
                        help="apply the recorded change of basis (length 2; default: raw)")

    def presentation(sp):
        sp.add_argument("--in", dest="infile", default=None, help="presentation file")
        sp.add_argument("--builtin", default=None, help="catalog name instead of a file")

    def command(name, help_text, func, *inputs):
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(func=func)
        for declare in inputs:
            declare(sp)
        return sp

    sp = command("catalog", "list or show built-in presentations", cmd_catalog)
    sp.add_argument("action", choices=("list", "show"))
    sp.add_argument("name", nargs="?", default=None)
    sp.add_argument("--out", default=None)

    command("gb", "truncated Groebner basis of a presentation", cmd_gb,
            budget, degree, presentation)

    sp = command("nf", "normal form of an element", cmd_nf, budget, degree, presentation)
    sp.add_argument("--element", required=True)

    command("hypersurface", "hypersurface equation of the center", cmd_hypersurface,
            budget, degree, pipeline)

    sp = command("mf", "matrix factorization of the hypersurface", cmd_mf,
                 budget, degree, pipeline)
    sp.add_argument("--check-only", action="store_true")

    sp = command("specialize", "push a presentation along a parameter map", cmd_specialize,
                 presentation)
    sp.add_argument("--map", required=True, help="map file: lines `name = polynomial`")
    sp.add_argument("--out", default=None)

    sp = command("superpotential", "verify a superpotential against relations",
                 cmd_superpotential, budget, potential_degree, presentation)
    sp.add_argument("--phi", default=None, help="file with the potential element")

    sp = command("verify-rep", "evaluate relations on a representation", cmd_verify_rep,
                 presentation)
    sp.add_argument("--rep", default=None, help="representation file")
    sp.add_argument("--chart", choices=tuple(sorted(LENGTH2_CHARTS)), default=None,
                    help="built-in length-2 moduli chart")

    sp = command("contraction", "contraction algebra report", cmd_contraction,
                 budget, presentation)
    sp.add_argument("--vertex", default="0")
    sp.add_argument("--length", type=int, choices=range(1, 7), default=None)

    sp = command("gv", "enumerate Gopakumar-Vafa tuples", cmd_gv)
    sp.add_argument("--dim", type=int, required=True)
    sp.add_argument("--dim-ab", dest="dim_ab", type=int, required=True)
    sp.add_argument("--length", type=int, choices=range(1, 7), default=None)

    sp = command("invariants", "Weyl-invariance report for a catalog length", cmd_invariants)
    sp.add_argument("--length", type=int, choices=range(1, 7), required=True)

    return p


def run(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except ParseError as exc:
        sys.stderr.write("usage error: %s\n" % exc)
        return EXIT_USAGE
    out = _Out(structured=(args.format == "records"))
    try:
        args.func(args, out)
    except (ParseError, FileNotFoundError) as exc:
        sys.stderr.write("usage error: %s\n" % exc)
        return EXIT_USAGE
    except BudgetExceededError as exc:
        sys.stderr.write("budget exhausted: %s\n" % exc)
        return EXIT_BUDGET
    except (CoeffError, DivisionByZeroError, PathAlgebraError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_DOMAIN
    out.emit()
    return EXIT_OK


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
