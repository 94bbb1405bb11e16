"""Round trip of the CLI's map and representation file parsers.

A test-side formatter writes random map and representation files, with
comments, blank lines and odd spacing; `cli._parse_map_file` and
`cli._parse_rep_file` must read back the same ring, mapping, dimensions and
matrices.  Corrupting one content line (a dropped `=` or `:`, an unknown
name, a broken polynomial or dimension) must raise a `ParseError` naming
that line, which the CLI reports with exit code 3.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from flopcalc import cli  # noqa: E402
from flopcalc.catalog import catalog_presentation  # noqa: E402
from flopcalc.coeff import ParamRing, format_poly  # noqa: E402
from flopcalc.pathalg import ParseError  # noqa: E402

PRES = catalog_presentation("length-2")  # params t, T0b, T0c, T0d; arrows a: 0 -> 4, A, b, c, d
PARAMS = PRES.params.names
FRESH = ("s", "u", "v", "w1")
ROUNDTRIP = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@st.composite
def polys(draw, ring):
    out = ring.zero()
    for _ in range(draw(st.integers(0, 3))):
        term = ring.const(Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 4))))
        for name in ring.names:
            term = term * ring.var(name) ** draw(st.integers(0, 2))
        out = out + term
    return out


@st.composite
def rings(draw):
    """(ring, mapped parameters): the unmapped parameters are in the ring."""
    mapped = draw(st.lists(st.sampled_from(PARAMS), unique=True))
    fresh = draw(st.lists(st.sampled_from(FRESH), unique=True))
    names = [n for n in PARAMS if n not in mapped] + fresh
    return ParamRing(draw(st.permutations(names))), mapped


def spaced(draw, *parts):
    return "".join(p + " " * draw(st.integers(0, 2)) for p in parts)


def render(draw, lines):
    """File text for content lines [(kind, parts)], with blank and comment
    lines between them; returns (text, {content index: line number})."""
    out, where = [], {}
    for i, (_, parts) in enumerate(lines):
        for _ in range(draw(st.integers(0, 1))):
            out.append(draw(st.sampled_from(["", "   ", "# a comment", "  # = : ["])))
        comment = draw(st.sampled_from(["", "  # trailing", "#x = 1"]))
        out.append(" " * draw(st.integers(0, 2)) + spaced(draw, *parts) + comment)
        where[i] = len(out)
    return "\n".join(out) + "\n", where


@st.composite
def map_files(draw):
    ring, mapped = draw(rings())
    mapping = {name: draw(polys(ring)) for name in mapped}
    lines = [("entry", [name, "=", format_poly(p)]) for name, p in mapping.items()]
    unmapped = [n for n in PARAMS if n not in mapped]
    if list(ring.names) != unmapped or draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), ("ring", ["ring:", ", ".join(ring.names)]))
    return ring, mapping, lines


@st.composite
def rep_files(draw):
    ring, mapped = draw(rings())
    dims = {"0": 1, "4": draw(st.integers(1, 2))}
    param_map = {name: draw(polys(ring)) for name in mapped}
    matrices = {a.name: [[draw(polys(ring)) for _ in range(dims[a.target])]
                         for _ in range(dims[a.source])] for a in PRES.quiver.arrows}
    lines = [("ring", ["ring:", ", ".join(ring.names)]),
             ("dims", ["dims:", ", ".join("%s=%d" % vd for vd in dims.items())])]
    lines += [("map", ["map:", name, "=", format_poly(p)]) for name, p in param_map.items()]
    lines += [("matrix", ["matrix", name + ":", "[" + "; ".join(
        ", ".join(format_poly(e) for e in row) for row in m) + "]"])
        for name, m in matrices.items()]
    order = draw(st.permutations(range(len(lines))))
    return ring, dims, param_map, matrices, [lines[i] for i in order]


def corrupt(draw, kind, parts):
    """`parts` with one fault that the parser must report on its line."""
    text = " ".join(parts)
    head, _, tail = text.partition("=" if kind in ("entry", "map") else ":")
    if kind == "ring":
        faults = [head + tail, text + ", 2x"]
    elif kind == "entry":
        faults = [head + tail, "zz =" + tail, text + " +"]
    elif kind == "map":
        faults = [text.replace(":", "", 1), head + tail, "map: zz =" + tail, text + " +"]
    elif kind == "dims":
        faults = [head + tail, text.replace("=", " ", 1), text + ", 9=1",
                  text.replace("=", "=x", 1)]
    else:
        faults = [head + tail, "matrix zz:" + tail, text[:-1] + " $]"]
    return [draw(st.sampled_from(faults))]


def write(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "parsed.txt"
    path.write_text(text)
    return str(path)


@ROUNDTRIP
@given(st.data())
def test_map_files_round_trip(tmp_path_factory, data):
    ring, mapping, lines = data.draw(map_files())
    text, _ = render(data.draw, lines)
    got_ring, got = cli._parse_map_file(write(tmp_path_factory, text), PRES)
    assert got_ring.names == ring.names
    assert got == mapping


@ROUNDTRIP
@given(st.data())
def test_rep_files_round_trip(tmp_path_factory, data):
    ring, dims, param_map, matrices, lines = data.draw(rep_files())
    text, _ = render(data.draw, lines)
    rep = cli._parse_rep_file(write(tmp_path_factory, text), PRES)
    assert rep.ring.names == ring.names
    assert rep.dims == dims
    assert rep.param_map == param_map
    assert rep.matrices == matrices


@ROUNDTRIP
@given(st.data())
def test_a_corrupted_line_is_a_parse_error_naming_it(tmp_path_factory, data):
    if data.draw(st.booleans()):
        lines, parse = data.draw(map_files())[2], cli._parse_map_file
    else:
        lines, parse = data.draw(rep_files())[4], cli._parse_rep_file
    if not lines:
        return
    i = data.draw(st.integers(0, len(lines) - 1))
    kind, parts = lines[i]
    lines[i] = (kind, corrupt(data.draw, kind, parts))
    text, where = render(data.draw, lines)
    with pytest.raises(ParseError) as err:
        parse(write(tmp_path_factory, text), PRES)
    assert err.value.line == where[i], (text, str(err.value))


def test_a_parse_error_in_a_rep_file_exits_3(tmp_path, capsys):
    path = tmp_path / "bad.rep"
    path.write_text("ring: t\ndims: 0=1, 4=1\n# comment\nmatrix a [1]\n")
    assert cli.run(["verify-rep", "--builtin", "length-2", "--rep", str(path)]) == cli.EXIT_USAGE
    assert "(line 4)" in capsys.readouterr().err
