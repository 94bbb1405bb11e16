import argparse
import ast
import inspect
import io
import os
import subprocess
import sys
import textwrap

import pytest

import flopcalc
from flopcalc import cli, flops
from flopcalc.catalog import builtins
from flopcalc.cli import EXIT_BUDGET, EXIT_DOMAIN, EXIT_OK, EXIT_USAGE, run
from flopcalc.contraction import contraction_presentation
from flopcalc.ncgb import Budget, _Completion


def invoke(argv):
    buf = io.StringIO()
    old = sys.stdout
    sys.stdout = buf
    try:
        code = run(argv)
    finally:
        sys.stdout = old
    return code, buf.getvalue()


def test_catalog_list_and_show_roundtrip(tmp_path):
    code, out = invoke(["catalog", "list"])
    assert code == EXIT_OK
    assert "length-2" in out and "laufer-nccr" in out
    target = tmp_path / "l2.pres"
    code, _ = invoke(["catalog", "show", "length-2", "--out", str(target)])
    assert code == EXIT_OK
    code, _ = invoke(["gb", "--in", str(target), "--degree", "6"])
    assert code == EXIT_OK


def test_hypersurface_nice_basis_output():
    code, out = invoke(["hypersurface", "--length", "2", "--nice-basis"])
    assert code == EXIT_OK
    assert "t^2*u*w - t^2*v^2 + u*y^2 + 2*v*z*y + w*z^2 + x^2" in out


def test_structured_output_schema_and_determinism():
    code1, out1 = invoke(["--format", "records", "hypersurface", "--length", "1"])
    code2, out2 = invoke(["--format", "records", "hypersurface", "--length", "1"])
    assert code1 == code2 == EXIT_OK
    assert out1.startswith("schema: 1\n")
    assert "record: hypersurface" in out1
    assert out1 == out2


def test_contraction_builtin_laufer():
    for name in ("laufer", "laufer-nccr"):
        code, out = invoke(["contraction", "--builtin", name, "--length", "2"])
        assert code == EXIT_OK
        assert "dim: 9" in out
        assert "dim_ab: 5" in out
        assert "(5, 1, 0, 0, 0, 0)" in out


def test_gv_command():
    code, out = invoke(["gv", "--dim", "27", "--dim-ab", "6", "--length", "3"])
    assert code == EXIT_OK
    assert "(6, 3, 1, 0, 0, 0)" in out


def test_out_of_range_length_is_a_usage_error():
    for length in ("0", "7"):
        code, _ = invoke(["gv", "--dim", "27", "--dim-ab", "6", "--length", length])
        assert code == EXIT_USAGE
    # rejected while parsing arguments, before any completion runs
    code, _ = invoke(["contraction", "--builtin", "laufer-nccr", "--length", "9"])
    assert code == EXIT_USAGE


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "nonsense.txt"
    bad.write_text("this is not : a presentation\n")
    code, _ = invoke(["gb", "--in", str(bad), "--degree", "4"])
    assert code == EXIT_USAGE


def test_bad_integers_in_a_presentation_are_usage_errors(tmp_path, capsys):
    # a parameter carries no degree, so "(deg x)" makes it a bad name
    for line, message in (("gb_degree: x", "must be an integer"),
                          ("params: t (deg x)", "bad parameter name 't (deg x)' (line 5)"),
                          ("arrows: a: 0 -> 0 (deg y)", "must be an integer")):
        bad = tmp_path / "bad.pres"
        bad.write_text("params:\nvertices: 0\narrows: b: 0 -> 0\nrelations: b*b\n%s\n" % line)
        code, _ = invoke(["gb", "--in", str(bad), "--degree", "4"])
        assert code == EXIT_USAGE
        assert message in capsys.readouterr().err


def test_a_non_ascii_digit_is_a_parse_error(tmp_path, capsys):
    code, _ = invoke(["nf", "--builtin", "laufer", "--element", "a*A + \u00b2"])
    assert code == EXIT_USAGE
    assert "unexpected character '\u00b2' at position 6 (column 7)" in capsys.readouterr().err
    bad = tmp_path / "cube.pres"
    bad.write_text("params:\nvertices: 0\narrows: b: 0 -> 0\nrelations: b*b - \u00b3*b\n",
                   encoding="utf-8")
    code, _ = invoke(["gb", "--in", str(bad), "--degree", "4"])
    assert code == EXIT_USAGE
    assert "unexpected character '\u00b3' at position 6 (line 4, column 18)" in (
        capsys.readouterr().err)


def test_element_parse_errors_give_the_column(capsys):
    for element, message in (("a**b", "unexpected token '*' (column 3)"),
                             ("a*(", "unexpected end of input (column 4)"),
                             ("(a", "found end of input (column 3)"),
                             ("a*$", "unexpected character '$' at position 2 (column 3)"),
                             ("a*(1/0)", "zero denominator at position 5 (column 6)")):
        code, _ = invoke(["nf", "--builtin", "laufer", "--element", element])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert message in err and "None" not in err


def test_missing_file_exit_code():
    code, _ = invoke(["gb", "--in", "/nonexistent/file.pres", "--degree", "4"])
    assert code == EXIT_USAGE


def test_budget_exit_code():
    code, _ = invoke(["gb", "--builtin", "length-3-nccr", "--budget", "5"])
    assert code == EXIT_BUDGET


def test_contraction_budget_names_the_truncation_degree(capsys):
    # a budget of exactly the steps of the first rung, degree 8, lets that
    # rung finish and runs out at the next one, degree 12
    con = contraction_presentation(builtins()["length-4-nccr"].presentation(), "0")
    first = _Completion(con, Budget())
    first.run(8)
    code, _ = invoke(["contraction", "--builtin", "length-4-nccr", "--length", "4",
                      "--budget", str(first.budget.steps)])
    assert code == EXIT_BUDGET
    assert "truncation degree 12" in capsys.readouterr().err


def test_budget_zero_is_not_the_default():
    code, _ = invoke(["nf", "--builtin", "length-2", "--element", "a*A",
                      "--degree", "6", "--budget", "0"])
    assert code == EXIT_BUDGET


def test_malformed_max_steps_environment_is_a_usage_error(monkeypatch):
    monkeypatch.setenv("FLOPCALC_MAX_STEPS", "abc")
    code, _ = invoke(["gb", "--builtin", "laufer-nccr", "--degree", "6"])
    assert code == EXIT_USAGE


def test_every_length_is_bounded_by_the_budget():
    # no length is refused up front: the step budget bounds the work
    code, _ = invoke(["hypersurface", "--length", "4", "--budget", "10"])
    assert code == EXIT_BUDGET
    code, _ = invoke(["hypersurface", "--length", "4", "--heavy"])
    assert code == EXIT_USAGE


def test_the_hypersurface_and_its_factorisation_share_one_budget():
    # the length-2 hypersurface takes 353 steps and its factorisation 512
    code, _ = invoke(["mf", "--length", "2", "--budget", "864"])
    assert code == EXIT_BUDGET
    code, _ = invoke(["mf", "--length", "2", "--budget", "865"])
    assert code == EXIT_OK


def test_missing_nice_basis_names_the_presentation(capsys):
    for command in ("hypersurface", "mf"):
        code, _ = invoke([command, "--builtin", "laufer", "--nice-basis"])
        assert code == EXIT_DOMAIN
        assert capsys.readouterr().err == "error: no recorded nice basis for laufer\n"


def test_mf_squares_c_once(monkeypatch):
    # the pipeline checks C^2 = g I; printing the identity does not redo it
    squares = []
    mat_mul = flops._mat_mul

    def spy(a, b, ring):
        if a is b:
            squares.append(a)
        return mat_mul(a, b, ring)

    monkeypatch.setattr(flops, "_mat_mul", spy)
    code, out = invoke(["mf", "--length", "1"])
    assert code == EXIT_OK and "C^2 = g*I exact" in out
    assert len(squares) == 1


def test_degree_zero_is_a_degree_not_the_default(capsys):
    for argv in (["gb", "--builtin", "length-2"],
                 ["nf", "--builtin", "length-2", "--element", "a*A"]):
        code, _ = invoke(argv + ["--degree", "0"])
        assert code == EXIT_DOMAIN
        assert ("max_degree 0 is below the maximum relation degree 2"
                in capsys.readouterr().err)


def test_raw_is_the_default_not_a_flag():
    code, _ = invoke(["hypersurface", "--length", "1", "--raw"])
    assert code == EXIT_USAGE


def test_nf_command():
    code, out = invoke(["nf", "--builtin", "length-2", "--element", "a*A", "--degree", "6"])
    assert code == EXIT_OK
    assert "normal_form: t*e0" in out


def test_nf_large_exponents():
    code, out = invoke(["nf", "--builtin", "laufer", "--element", "t^70000*a"])
    assert code == EXIT_OK
    assert "normal_form: t^70000*a" in out
    # a^2 = 0 here, so the power stops at once
    code, out = invoke(["nf", "--builtin", "laufer-nccr", "--element", "a^99999999999"])
    assert code == EXIT_OK
    assert "normal_form: 0" in out
    # b is a loop: its power is refused once its path could pass the limit,
    # before that path is built
    code, _ = invoke(["nf", "--builtin", "laufer-nccr", "--element", "b^99999999999"])
    assert code == EXIT_USAGE
    # total degree 2^64 does not fit a packed monomial
    code, _ = invoke(["nf", "--builtin", "laufer", "--element", "t^18446744073709551616*a"])
    assert code == EXIT_USAGE


def test_zero_denominator_is_a_usage_error(tmp_path):
    code, _ = invoke(["nf", "--builtin", "laufer-nccr", "--element", "(1/0)"])
    assert code == EXIT_USAGE
    pres = tmp_path / "zero.pres"
    pres.write_text("params: t\nvertices: 0\narrows: b: 0 -> 0\nrelations: b*b - (1/0)*t*e0\n")
    code, _ = invoke(["gb", "--in", str(pres), "--degree", "4"])
    assert code == EXIT_USAGE


def test_specialize_with_map_file(tmp_path):
    # specializing every parameter to zero gives the central fibre, whose
    # contraction at the extending vertex has dimension 4 for length 2
    mp = tmp_path / "map.txt"
    mp.write_text("ring:\nt = 0\nT0b = 0\nT0c = 0\nT0d = 0\n")
    out_file = tmp_path / "spec.pres"
    code, _ = invoke(["specialize", "--builtin", "length-2", "--map", str(mp),
                      "--out", str(out_file)])
    assert code == EXIT_OK
    code, out = invoke(["contraction", "--in", str(out_file), "--vertex", "0"])
    assert code == EXIT_OK
    assert "dim: 4" in out
    assert "dim_ab: 3" in out


def test_verify_rep_chart():
    code, out = invoke(["verify-rep", "--builtin", "length-2", "--chart", "U0"])
    assert code == EXIT_OK
    assert "pass: true" in out


def test_malformed_rep_files_are_usage_errors_naming_the_line(tmp_path, capsys):
    for text, message in (("ring: t\ndims: 0=x\n", "dimension of vertex '0' must be an integer"),
                          ("ring: t\ndims: 0=1, 1\n", "dims entry '1' is not vertex=dimension"),
                          ("ring: t\ndims: 0=1\nmap: t\n", "map line is not"),
                          ("matrix a [1]\n", "matrix line is not"),
                          ("ring: t, t\n", "parameter names must be distinct"),
                          ("ring: 2x\n", "bad parameter name '2x'"),
                          ("ring: t\nmap: q = 1\n", "'q' is not a parameter of the presentation"),
                          ("ring: t\nmatrix zz: [1]\n", "'zz' is not an arrow of the quiver"),
                          ("ring: t\ndims: 9=1\n", "'9' is not a vertex of the quiver"),
                          ("ring: t\ndims: 0=1, 4=-1\n", "dimension of vertex '4' is negative"),
                          ("ring: t\ndims: 0=1, 4=1\nmatrix A: [1]\nmatrix b: [0]\n"
                           "matrix c: [0]\nmatrix d: [0]\nmatrix a: [1, 0]\n",
                           "matrix for 'a' has shape (1, 2), expected (1, 1)")):
        rep = tmp_path / "bad.rep"
        rep.write_text(text)
        code, _ = invoke(["verify-rep", "--builtin", "laufer", "--rep", str(rep)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert message in err and "(line %d)" % text.count("\n") in err


@pytest.mark.parametrize("argv, text, message", [
    (["catalog", "show"], None, "catalog show needs a name"),
    (["verify-rep", "--builtin", "length-2"], None, "one of --rep or --chart is required"),
    (["verify-rep", "--builtin", "laufer", "--rep"], "ring: t\ndims: 0=1\n",
     "no dimension for vertex '4'"),
    (["verify-rep", "--builtin", "laufer", "--rep"],
     "ring: t\ndims: 0=1, 4=1\nmatrix a: [1, 0; 1]\n", "rows of different lengths (line 3)"),
    (["verify-rep", "--builtin", "laufer", "--rep"], "ring: t\ndims: 0=1, 4=1\nmap: t = 1 +\n",
     "end of input at position 3 (line 3, column 13)"),
    (["verify-rep", "--builtin", "laufer", "--rep"],
     "ring: t\ndims: 0=1, 4=1\nmatrix a: [t, 1 +]\n", "(line 3, column 18)"),
    (["specialize", "--builtin", "length-2", "--map"], "ring:\n  t = 1 +\n",
     "end of input at position 3 (line 2, column 10)"),
    (["verify-rep", "--builtin", "laufer", "--rep"], "ring: t\ndims: 0=1, 4=1\n",
     "no matrix for arrow 'a'"),
    (["specialize", "--builtin", "length-2", "--map"], "ring: t, t\n",
     "parameter names must be distinct: ('t', 't') (line 1)"),
    (["specialize", "--builtin", "length-2", "--map"], "ring: t\n\nring: 2x\n",
     "bad parameter name '2x' (line 3)"),
    (["specialize", "--builtin", "length-2", "--map"], "ring: t\nzz = 1\n",
     "'zz' is not a parameter of the presentation (line 2)"),
    (["contraction", "--vertex", "0", "--in"],
     "params: t\nvertices: 0\narrows: a: 0 -> 0\nrelations: a*a - t*$\n",
     "unexpected character '$' at position 8 (line 4, column 20)"),
    (["gb", "--degree", "4", "--in"], "params:\nvertices: 0\narrows: a: 0 -> 0 (deg 0)\n",
     "arrow 'a' must have positive degree (line 3)"),
    (["gb", "--degree", "4", "--in"], "params:\nvertices: 0, 0\narrows: a: 0 -> 0\n",
     "vertex '0' is declared twice (line 2)"),
    (["gb", "--degree", "4", "--in"], "params: t, t\nvertices: 0\narrows: a: 0 -> 0\n",
     "parameter names must be distinct: ('t', 't') (line 1)"),
    (["gb", "--degree", "4", "--in"],
     "params:\nvertices: 0\narrows: a: 0 -> 0, b: 0 -> 0\nprecedence: a, c\n",
     "precedence must list every arrow exactly once (line 4)"),
    (["specialize", "--builtin", "length-2", "--map"], "ring: s\nt = s\n",
     "'T0b' is neither mapped nor in the ring: line (line 1)"),
    (["verify-rep", "--builtin", "laufer", "--rep"],
     "ring: s\ndims: 0=1, 4=1\nmatrix a: [1]\nmatrix A: [1]\nmatrix b: [0]\n"
     "matrix c: [0]\nmatrix d: [0]\n",
     "'t' is neither mapped nor in the ring: line (line 1)"),
    (["specialize", "--builtin", "length-2", "--budget", "5", "--map"], "t = 0\n",
     "unrecognized arguments: --budget 5"),
    (["specialize", "--builtin", "length-2", "--degree", "5", "--map"], "t = 0\n",
     "unrecognized arguments: --degree 5"),
    (["verify-rep", "--builtin", "length-2", "--chart", "U0", "--budget", "5"], None,
     "unrecognized arguments: --budget 5"),
    (["verify-rep", "--builtin", "length-2", "--chart", "U0", "--degree", "5"], None,
     "unrecognized arguments: --degree 5"),
    (["contraction", "--builtin", "laufer", "--length", "2", "--degree", "3"], None,
     "unrecognized arguments: --degree 3"),
    (["gb", "--degree", "4", "--in"],
     "params: b, e0\nvertices: 0\narrows: b: 0 -> 0\nrelations: b*e0 - b*b\n",
     "parameter 'b' is also the name of an arrow or an idempotent (line 1)"),
    (["gb", "--degree", "4", "--in"],
     "params: t\nparams: e0\nvertices: 0\narrows: b: 0 -> 0\nrelations: b*e0\n",
     "parameter 'e0' is also the name of an arrow or an idempotent (line 2)"),
    (["gb", "--degree", "4", "--in"], "params: t-1\nvertices: 0\narrows: b: 0 -> 0\n",
     "bad parameter name 't-1' (line 1)"),
    (["specialize", "--builtin", "length-2", "--map"], "ring: s t\n",
     "bad parameter name 's t' (line 1)"),
    (["gb", "--degree", "4", "--in"], "name: x\nparams:\nvertices: 0\nname: y\n",
     "'name:' is given twice (line 4)"),
    (["gb", "--degree", "4", "--in"],
     "params:\nvertices: 0\narrows: b: 0 -> 0\nprecedence: b\nprecedence: b\n",
     "'precedence:' is given twice (line 5)"),
    (["gb", "--in"], "params:\nvertices: 0\ngb_degree: 4\narrows: b: 0 -> 0\ngb_degree: 6\n",
     "'gb_degree:' is given twice (line 5)"),
    (["specialize", "--builtin", "length-2", "--map"], "t = 1\n\nt = 2\n",
     "the image of 't' is given twice (line 3)"),
    (["specialize", "--builtin", "length-2", "--map"], "ring: s\nring: s\n",
     "'ring:' is given twice (line 2)"),
    (["specialize", "--builtin", "length-2", "--map"], "\nring: b\nt = b\n",
     "parameter 'b' is also the name of an arrow or an idempotent (line 2)"),
    (["verify-rep", "--builtin", "laufer", "--rep"], "ring: t\nring: t\n",
     "'ring:' is given twice (line 2)"),
    (["verify-rep", "--builtin", "laufer", "--rep"], "ring: s\nmap: t = s\nmap: t = 1\n",
     "the image of 't' is given twice (line 3)"),
    (["verify-rep", "--builtin", "laufer", "--rep"], "ring: t\ndims: 0=1, 4=1, 4=2\n",
     "the dimension of vertex '4' is given twice (line 2)"),
    (["verify-rep", "--builtin", "laufer", "--rep"], "ring: t\ndims: 0=1, 4=1\ndims: 0=2\n",
     "the dimension of vertex '0' is given twice (line 3)"),
    (["verify-rep", "--builtin", "laufer", "--rep"],
     "ring: t\ndims: 0=1, 4=1\nmatrix a: [1]\nmatrix a: [t]\n",
     "the matrix of 'a' is given twice (line 4)"),
], ids=["catalog-show-no-name", "verify-rep-no-source", "rep-dims-omit-vertex",
        "rep-ragged-matrix", "rep-bad-map-value", "rep-bad-matrix-entry", "map-bad-value",
        "rep-omit-matrix", "map-ring-repeats", "map-ring-bad-name",
        "map-unknown-param", "presentation-bad-relation", "presentation-arrow-deg-0",
        "presentation-vertex-repeats", "presentation-param-repeats",
        "presentation-bad-precedence", "map-ring-lacks-unmapped", "rep-ring-lacks-unmapped",
        "specialize-budget", "specialize-degree", "verify-rep-budget", "verify-rep-degree",
        "contraction-degree", "presentation-param-is-an-arrow",
        "presentation-param-is-an-idempotent", "presentation-param-not-a-name",
        "map-ring-not-a-name", "presentation-name-twice", "presentation-precedence-twice",
        "presentation-gb-degree-twice", "map-entry-twice", "map-ring-line-twice",
        "map-ring-param-is-an-arrow",
        "rep-ring-line-twice", "rep-map-entry-twice", "rep-dims-twice-in-one-line",
        "rep-dims-twice-across-lines", "rep-matrix-twice"])
def test_malformed_input_is_a_usage_error(tmp_path, capsys, argv, text, message):
    if text is not None:
        path = tmp_path / "input.txt"
        path.write_text(text)
        argv = argv + [str(path)]
    code, _ = invoke(argv)
    assert code == EXIT_USAGE
    assert message in capsys.readouterr().err


def test_superpotential_builtin():
    code, out = invoke(["superpotential", "--builtin", "laufer-nccr"])
    assert code == EXIT_OK
    assert "pass: true" in out


def test_superpotential_unknown_builtin_is_a_catalog_error(capsys):
    code, _ = invoke(["superpotential", "--builtin", "nope"])
    assert code == EXIT_DOMAIN
    assert "unknown catalog name 'nope' (try: " in capsys.readouterr().err


def test_pipeline_unknown_builtin_is_a_catalog_error(capsys):
    for command in ("hypersurface", "mf"):
        code, _ = invoke([command, "--builtin", "nope"])
        assert code == EXIT_DOMAIN
        assert "unknown catalog name 'nope' (try: " in capsys.readouterr().err
        # a known builtin outside the flop families has no pipeline
        code, _ = invoke([command, "--builtin", "laufer-nccr"])
        assert code == EXIT_DOMAIN
        assert capsys.readouterr().err == "error: builtin 'laufer-nccr' has no pipeline data\n"


def test_a_universal_catalog_name_runs_its_pipeline(capsys):
    # --builtin length-2 reads the same catalog entry as --length 2
    for command, extra in (("hypersurface", []), ("mf", ["--nice-basis"])):
        by_length = invoke([command, "--length", "2"] + extra)
        assert by_length[0] == EXIT_OK
        assert invoke([command, "--builtin", "length-2"] + extra) == by_length


@pytest.mark.parametrize("argv, hint", [
    (["mf", "--builtin", "laufer", "--degree", "4"], "at truncation 4; try 5"),
    (["hypersurface", "--builtin", "length-3-example", "--degree", "6"],
     "at truncation degree 6; try 7"),
    (["hypersurface", "--length", "2", "--degree", "2"], "at truncation degree 2; try 3"),
])
def test_a_too_low_degree_names_the_next_one_to_try(capsys, argv, hint):
    # the hint is the pipeline's recorded least degree when that is higher,
    # else one more than the failed degree
    code, _ = invoke(argv)
    assert code == EXIT_DOMAIN
    assert capsys.readouterr().err.rstrip().endswith(hint)


@pytest.mark.parametrize("argv, message", [
    (["catalog", "show", "length-7"], "error: unknown catalog name 'length-7' (try: length-1, "),
    (["hypersurface", "--builtin", "length-7"], "error: unknown catalog name 'length-7' (try: "),
    (["superpotential", "--builtin", "laufer"], "error: builtin 'laufer' records no superpotential"),
    (["superpotential", "--builtin", "central-fibre-2"],
     "error: builtin 'central-fibre-2' records no superpotential"),
    (["hypersurface", "--builtin", "preprojective-D4"],
     "error: builtin 'preprojective-D4' has no pipeline data"),
])
def test_catalog_lookups_name_what_is_missing(capsys, argv, message):
    code, _ = invoke(argv)
    assert code == EXIT_DOMAIN
    assert capsys.readouterr().err.startswith(message)


def test_superpotential_file_without_phi_is_a_usage_error(tmp_path, capsys):
    pres = tmp_path / "laufer.pres"
    assert invoke(["catalog", "show", "laufer-nccr", "--out", str(pres)])[0] == EXIT_OK
    code, _ = invoke(["superpotential", "--in", str(pres)])
    assert code == EXIT_USAGE
    assert "--phi" in capsys.readouterr().err


def test_invariants_command():
    code, out = invoke(["invariants", "--length", "5"])
    assert code == EXIT_OK
    assert "pass: true" in out


def test_usage_error_unknown_command():
    code, _ = invoke(["frobnicate"])
    assert code == EXIT_USAGE


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(flopcalc.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "flopcalc", "gv", "--dim", "9",
                           "--dim-ab", "5", "--length", "2"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == EXIT_OK, done.stderr
    assert "(5, 1, 0, 0, 0, 0)" in done.stdout


def _args_reads(func, param, seen):
    """The `args` attributes that `func` reads through its parameter `param`,
    following `param` into the module-level `cli` functions it is passed to."""
    if func in seen:
        return set()
    seen.add(func)
    reads = set()
    tree = ast.parse(textwrap.dedent(inspect.getsource(func)))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == param):
            reads.add(node.attr)
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Name):
            continue
        if (node.func.id == "getattr" and len(node.args) >= 2
                and isinstance(node.args[0], ast.Name) and node.args[0].id == param
                and isinstance(node.args[1], ast.Constant)):
            reads.add(node.args[1].value)
        callee = getattr(cli, node.func.id, None)
        if not inspect.isfunction(callee) or callee.__module__ != cli.__name__:
            continue
        names = list(inspect.signature(callee).parameters)
        passed = [names[i] for i, a in enumerate(node.args)
                  if isinstance(a, ast.Name) and a.id == param and i < len(names)]
        passed += [k.arg for k in node.keywords
                   if isinstance(k.value, ast.Name) and k.value.id == param]
        for name in passed:
            reads |= _args_reads(callee, name, seen)
    return reads


def test_every_declared_flag_is_read():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    unread = []
    for command, sp in sorted(sub.choices.items()):
        declared = {a.dest for a in sp._actions if a.dest != "help"}
        func = sp.get_default("func")
        reads = _args_reads(func, list(inspect.signature(func).parameters)[0], set())
        unread += ["%s --%s" % (command, dest) for dest in sorted(declared - reads)]
    assert unread == []
