import random
from fractions import Fraction

import pytest

from flopcalc.catalog import (
    DIAGRAMS,
    _PIPELINE_DEGREES,
    FlopCatalogEntry,
    LENGTH2_CHARTS,
    LENGTH2_RLINEAR,
    builtins,
    catalog_entry,
    catalog_names,
    preprojective,
    universal_flopping_algebra,
)
from flopcalc import flops
from flopcalc.coeff import MultiPoly, ParamRing, RatFunc, divexact, parse_poly
from flopcalc.flops import (
    PipelineError,
    Representation,
    TruncationInsufficientError,
    cyclic_derivative,
    hypersurface,
    matrix_factorization,
    specialize,
    verify_representation,
    verify_superpotential,
)
from flopcalc.ncgb import Budget
from flopcalc.pathalg import Path, parse_presentation


@pytest.fixture(scope="module")
def l1_hyp():
    return hypersurface(universal_flopping_algebra(1))


@pytest.fixture(scope="module")
def l2_nice_hyp():
    return hypersurface(universal_flopping_algebra(2), basis="nice")


def test_length1_hypersurface(l1_hyp):
    ring = l1_hyp.ring
    assert l1_hyp.P.is_zero()
    assert l1_hyp.g == parse_poly("w^2 - z^2 + t*z", ring)
    # central fibre: -f(t=0) = XY - z^2 under x = (X-Y)/2, w = (X+Y)/2
    big = ParamRing(["X", "Y", "z", "t"])
    f0 = l1_hyp.equation.substitute({"t": big.zero()}, l1_hyp.ring)
    image = f0.substitute({
        "x": parse_poly("(1/2)*X - (1/2)*Y", big),
        "w": parse_poly("(1/2)*X + (1/2)*Y", big),
    }, big)
    assert -image == parse_poly("X*Y - z^2", big)


def test_length1_matrix_factorization(l1_hyp):
    mf = matrix_factorization(universal_flopping_algebra(1), hyp=l1_hyp)
    assert mf.size == 2
    assert mf.check()
    ring = mf.g.ring
    expect = [["w", "-z"], ["-t + z", "-w"]]
    assert mf.C == [[parse_poly(e, ring) for e in row] for row in expect]


def test_length2_raw_degree12_identity():
    hyp = hypersurface(universal_flopping_algebra(2))
    ring = hyp.P.ring
    # the raw generators satisfy the printed degree-12 identity:
    # x'^2 + t(y+z-T0d+T0c+T0b+t^2/4) x' = (y+z-T0d+T0c+T0b+t^2/4) y z
    #                                      - t^2 T0b T0c + T0b y^2 + T0c z^2
    bracket = "(y + z - T0d + T0c + T0b + (1/4)*t^2)"
    assert hyp.P == parse_poly("-t*" + bracket, ring)
    assert hyp.Q == parse_poly(
        bracket + "*y*z - t^2*T0b*T0c + T0b*y^2 + T0c*z^2", ring)


def test_length2_nice_equation(l2_nice_hyp):
    ring = l2_nice_hyp.ring
    assert l2_nice_hyp.equation == parse_poly(
        "x^2 + u*y^2 + 2*v*y*z + w*z^2 + (u*w - v^2)*t^2", ring)
    assert l2_nice_hyp.P == parse_poly("2*t*v", l2_nice_hyp.P.ring)


def test_nice_mf_reuses_the_raw_hypersurface(monkeypatch):
    # one span solve for the hypersurface and one for the factorisation,
    # which reduces all 2l = 4 generator images against one echelon of the
    # columns; the raw hypersurface is not solved twice
    from flopcalc import flops
    targets_per_call = []
    solve = flops._express_in_span

    def counting(targets, columns, params, order):
        targets_per_call.append(len(targets))
        return solve(targets, columns, params, order)

    monkeypatch.setattr(flops, "_express_in_span", counting)
    entry = universal_flopping_algebra(2)
    hyp = hypersurface(entry, basis="nice")
    mf = matrix_factorization(entry, basis="nice", hyp=hyp)
    assert targets_per_call == [1, 4]
    assert mf.check()


def test_unknown_basis_is_a_pipeline_error():
    entry = universal_flopping_algebra(1)
    for compute in (hypersurface, matrix_factorization):
        with pytest.raises(PipelineError, match="unknown basis 'bogus'"):
            compute(entry, basis="bogus")


def test_nice_mf_without_a_hypersurface_equals_the_one_with_it(l2_nice_hyp):
    entry = universal_flopping_algebra(2)
    alone = matrix_factorization(entry, basis="nice")
    given = matrix_factorization(entry, basis="nice", hyp=l2_nice_hyp)
    assert alone.C == given.C
    assert alone.g == given.g
    assert alone.generators == given.generators


def test_a_basis_that_disagrees_with_the_given_hypersurface_is_an_error(l1_hyp, l2_nice_hyp):
    entry = universal_flopping_algebra(2)
    for hyp, basis in ((l2_nice_hyp, "raw"), (l1_hyp, "nice"), (l1_hyp, "bogus"),
                       (l2_nice_hyp, "bogus")):
        with pytest.raises(PipelineError, match="disagrees with the given hypersurface"):
            matrix_factorization(entry, basis=basis, hyp=hyp)


def test_a_hypersurface_and_its_factorisation_parse_the_pipeline_once(monkeypatch):
    calls = []
    pipeline = FlopCatalogEntry.pipeline

    def counting(self):
        calls.append(self)
        return pipeline(self)

    monkeypatch.setattr(FlopCatalogEntry, "pipeline", counting)
    entry = universal_flopping_algebra(1)
    matrix_factorization(entry, hyp=hypersurface(entry))
    assert len(calls) == 1
    matrix_factorization(entry)
    assert len(calls) == 2


def test_every_pipeline_has_a_truncation_degree():
    names = {name for name in catalog_names() if catalog_entry(name).family is not None}
    assert set(_PIPELINE_DEGREES) == names


@pytest.mark.parametrize("name", ["length-1", "length-2", "laufer", "length-3-example"])
def test_the_pipeline_degree_is_the_least_that_succeeds(name):
    # a successful expansion is exact at any truncation, so the table keeps
    # the least degree at which both expansions succeed
    source = catalog_entry(name)
    degree = _PIPELINE_DEGREES[name]
    mf = matrix_factorization(source)
    assert mf.hypersurface.gb.truncation_degree == degree and mf.check()
    with pytest.raises(TruncationInsufficientError):
        matrix_factorization(source, gb_degree=degree - 1)


def test_a_source_without_pipeline_data_is_named():
    with pytest.raises(PipelineError, match="laufer"):
        hypersurface(builtins()["laufer"].presentation())


def test_missing_nice_basis_is_reported_before_any_completion(monkeypatch):
    # length 4 records no nice basis: that is known from the catalog entry,
    # so no basis is completed first
    completions = []
    monkeypatch.setattr(flops, "truncated_groebner",
                        lambda *args, **kw: completions.append(args))
    entry = universal_flopping_algebra(4)
    for compute in (hypersurface, matrix_factorization):
        with pytest.raises(PipelineError, match="no recorded nice basis for length-4"):
            compute(entry, basis="nice")
    assert completions == []


def _reference_express(target, columns, params):
    """One-target Bareiss solve: the reference that `_express_in_span` must
    match for each of its targets."""
    t_terms, t_scale = target
    words = {}
    for _, col_terms, _ in columns:
        for p in col_terms:
            words.setdefault(p, len(words))
    for p in t_terms:
        if p not in words:
            return None
    ncols = len(columns)
    zero = params.zero()
    rows = [[zero] * (ncols + 1) for _ in range(len(words))]
    for j, (_, col_terms, _) in enumerate(columns):
        for p, c in col_terms.items():
            rows[words[p]][j] = c
    for p, c in t_terms.items():
        rows[words[p]][ncols] = c
    pivot_row_of_col = {}
    r = 0
    prev = params.one()
    for j in range(ncols):
        pv = None
        for i in range(r, len(rows)):
            if not rows[i][j].is_zero():
                pv = i
                break
        if pv is None:
            continue
        rows[r], rows[pv] = rows[pv], rows[r]
        piv = rows[r][j]
        for i in range(r + 1, len(rows)):
            if rows[i][j].is_zero():
                updated = []
                for k in range(j, ncols + 1):
                    val = rows[i][k] * piv
                    updated.append(divexact(val, prev) if not prev.is_one() else val)
                rows[i][j:] = updated
                continue
            fij = rows[i][j]
            updated = []
            for k in range(j, ncols + 1):
                val = rows[i][k] * piv - fij * rows[r][k]
                updated.append(divexact(val, prev) if not prev.is_one() else val)
            rows[i][j:] = updated
        pivot_row_of_col[j] = r
        prev = piv
        r += 1
    for i in range(r, len(rows)):
        if any(not rows[i][k].is_zero() for k in range(ncols)):
            return None
        if not rows[i][ncols].is_zero():
            return None
    sol = [RatFunc.coerce(params, 0)] * ncols
    for j in sorted(pivot_row_of_col, reverse=True):
        i = pivot_row_of_col[j]
        acc = RatFunc(rows[i][ncols])
        for k in range(j + 1, ncols):
            if not rows[i][k].is_zero() and not sol[k].is_zero():
                acc = acc - RatFunc(rows[i][k]) * sol[k]
        sol[j] = acc / RatFunc(rows[i][j])
    scale = RatFunc(t_scale)
    out = {}
    for j, (key, _, col_scale) in enumerate(columns):
        if not sol[j].is_zero():
            out[key] = sol[j] * RatFunc(col_scale) / scale
    return out


@pytest.mark.parametrize("name", ["universal-2", "laufer"])
def test_factored_span_solve_matches_one_solve_per_target(monkeypatch, name):
    from flopcalc import flops
    calls = []
    solve = flops._express_in_span

    def capturing(targets, columns, params, order):
        calls.append((list(targets), columns, params, order))
        return solve(targets, columns, params, order)

    monkeypatch.setattr(flops, "_express_in_span", capturing)
    entry = universal_flopping_algebra(2) if name == "universal-2" else builtins()[name]
    matrix_factorization(entry)
    monkeypatch.undo()
    images, columns, params, order = calls[-1]
    assert len(images) == 4
    want = [_reference_express(t, columns, params) for t in images]
    assert all(w is not None for w in want)
    assert solve(images, columns, params, order) == want

    column_words = {p for _, col_terms, _ in columns for p in col_terms}
    # a word outside the columns: the longest column word times one arrow
    longest = max(column_words, key=lambda p: p.degree)
    quiver = entry.pipeline().presentation.quiver
    arrow = next(i for i, a in enumerate(quiver.arrows) if a.source == longest.target)
    outside = Path(quiver, longest.source, longest.arrows + (arrow,))
    assert outside not in column_words
    terms, scale = images[0]
    stray = ({**terms, outside: params.one()}, scale)
    # a lone column word outside the span: every word of it is a column
    # word, yet reducing it leaves a lead that no pivot has
    singles = [({p: params.one()}, params.one()) for p in
               sorted(column_words, key=lambda p: (p.degree, p.source, p.arrows),
                      reverse=True)]
    lone = next(t for t in singles if _reference_express(t, columns, params) is None)
    mixed = [stray, images[0], lone] + images[1:]
    got = solve(mixed, columns, params, order)
    assert got == [None, want[0], None] + want[1:]
    assert _reference_express(stray, columns, params) is None


def test_length2_nice_central_fibre_is_d4():
    # t_a = t_b = t_c = t_d = 0 means t = u = w = 0 and v = -(z+y)/2
    hyp = hypersurface(universal_flopping_algebra(2), basis="nice")
    ring = hyp.ring
    image = hyp.equation.substitute({
        "t": ring.zero(), "u": ring.zero(), "w": ring.zero(),
        "v": parse_poly("-(1/2)*(z + y)", ring),
    }, ring)
    assert image == parse_poly("x^2 - z*y^2 - z^2*y", ring)


def test_length2_mf_matches_curto_morrison(l2_nice_hyp):
    mf = matrix_factorization(universal_flopping_algebra(2), basis="nice", hyp=l2_nice_hyp)
    assert mf.size == 4 and mf.check()
    ring = mf.hypersurface.ring
    phi2 = [
        ["x - v*t", "y", "z", "t"],
        ["-u*y - 2*z*v", "x + v*t", "-u*t", "z"],
        ["-w*z", "w*t", "x - v*t", "-y"],
        ["-u*w*t", "-w*z", "u*y + 2*v*z", "x + v*t"],
    ]
    phi2 = [[parse_poly(e, ring) for e in row] for row in phi2]
    xpc = mf.x_plus()
    sign = [1, 1, -1, 1]
    for i in range(4):
        for j in range(4):
            assert sign[i] * sign[j] * xpc[i][j] == phi2[i][j]


def test_length2_rlinear_oracle(l2_nice_hyp):
    # the printed R-linear matrices for the generators act on the cokernel;
    # x acts by bc*Aa + Aa*bc - t*bc - 2v*Aa + tv, which must square to g
    data = LENGTH2_RLINEAR
    ring = ParamRing(list(data["ring"]))

    def mat(key):
        return [[parse_poly(e, ring) for e in row] for row in data[key]]

    def mmul(A, B):
        out = [[ring.zero() for _ in range(len(B[0]))] for _ in range(len(A))]
        for i in range(len(A)):
            for k in range(len(B)):
                if A[i][k].is_zero():
                    continue
                for j in range(len(B[0])):
                    out[i][j] = out[i][j] + A[i][k] * B[k][j]
        return out

    b, c, Aa = mat("b"), mat("c"), mat("AstarA_xfree")
    t, v, u, w = (ring.var(n) for n in ("t", "v", "u", "w"))
    bc = mmul(b, c)
    X = [[mmul(bc, Aa)[i][j] + mmul(Aa, bc)[i][j] - t * bc[i][j] - 2 * v * Aa[i][j]
          + (t * v if i == j else ring.zero()) for j in range(4)] for i in range(4)]
    X2 = mmul(X, X)
    g = l2_nice_hyp.g.substitute({"x": l2_nice_hyp.ring.zero()}, l2_nice_hyp.ring).cast(ring)
    for i in range(4):
        for j in range(4):
            assert X2[i][j] == (g if i == j else ring.zero())
    # and at 20 random rational points
    rng = random.Random(2468)
    for _ in range(20):
        pt = {n: MultiPoly.coerce(ring, Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
              for n in ring.names}
        gv = g.substitute(pt, ring)
        for i in range(4):
            for j in range(4):
                assert X2[i][j].substitute(pt, ring) == (gv if i == j else ring.zero())


def test_laufer_pipeline_and_commutation(l2_nice_hyp):
    laufer = builtins()["laufer"]
    hyp = hypersurface(laufer)
    ring = hyp.ring
    assert hyp.equation == parse_poly("x^2 + y^3 - t*z^2 - y*t^3", ring)
    # specialize commutes: the nice-basis f maps to the Laufer f
    mapping = {k: parse_poly(v, ring) for k, v in {"u": "y", "v": "0", "w": "-t"}.items()}
    assert l2_nice_hyp.equation.substitute(mapping, ring) == hyp.equation
    mf = matrix_factorization(laufer, hyp=hyp)
    assert mf.check()


def test_specialize_identity_map():
    pres = universal_flopping_algebra(2).presentation()
    same = specialize(pres, {}, pres.params)
    assert same.relations == pres.relations


def test_specialize_length3_nccr_relations():
    # t -> 0, T1b,T1c -> 0, T0b,T0c,T0d -> T produces the section-5 algebra
    pres = universal_flopping_algebra(3).presentation()
    ring = ParamRing(["T"])
    mapping = {"t": "0", "T0b": "T", "T1b": "0", "T0c": "T", "T1c": "0", "T0d": "T"}
    spec = specialize(pres, mapping, ring)
    expected = builtins()["length-3-example"].presentation()
    assert {r.format() for r in spec.relations} == {r.format() for r in expected.relations}


def test_specialize_length4_map_shape():
    pres = universal_flopping_algebra(4).presentation()
    ring = ParamRing(["T"])
    mapping = {"t": "0", "T0b": "T", "T0c": "T", "T1c": "0", "T2c": "0",
               "T0d": "T", "T1d": "0"}
    spec = specialize(pres, mapping, ring)
    assert spec.element("b^2 - T*e7") in spec.relations
    assert spec.element("c^4 - T*e7") in spec.relations
    assert spec.element("A*a - d^3 + T*e7") in spec.relations


def test_cyclic_derivative_examples():
    pres = builtins()["laufer-nccr"].presentation()
    w = pres.element("c*b^2")
    assert cyclic_derivative(w, "c") == pres.element("b^2")
    assert cyclic_derivative(pres.element("b^2"), "b") == pres.element("2*b")
    phi = builtins()["laufer-nccr"].superpotential_element()
    assert cyclic_derivative(phi, "b") == pres.element("-(b*c + c*b)")
    with pytest.raises(PipelineError):
        cyclic_derivative(pres.element("a"), "a")  # not a cycle


def test_cyclic_derivative_rotation_invariance():
    pres = builtins()["laufer-nccr"].presentation()
    w1 = pres.element("a*c^2*A")
    w2 = pres.element("c^2*A*a")  # rotation of the same cyclic word
    for arrow in ("a", "A", "b", "c"):
        assert cyclic_derivative(w1, arrow) == cyclic_derivative(w2, arrow)


def test_verify_superpotential_laufer():
    b = builtins()["laufer-nccr"]
    report = verify_superpotential(b.presentation(), b.superpotential_element())
    assert report.ok, report.failures()


def test_verify_superpotential_shipped_length_4_5_6():
    for name in ("length-4-nccr", "length-5-nccr", "length-6-nccr"):
        b = builtins()[name]
        report = verify_superpotential(b.presentation(), b.superpotential_element())
        assert report.ok, (name, report.failures())


@pytest.fixture
def completions(monkeypatch):
    """Names of the presentations that verify_superpotential completes."""
    names = []
    real = flops.truncated_groebner

    def spy(alg, *args, **kwargs):
        names.append(alg.name)
        return real(alg, *args, **kwargs)

    monkeypatch.setattr(flops, "truncated_groebner", spy)
    return names


NORMALISED_LENGTH3 = "a*b*A + a*c*A + (1/4)*b^4 + (1/4)*c^4 - (1/3)*(b+c)^3"


@pytest.mark.parametrize("name", ["laufer-nccr", "length-3-nccr", "length-4-nccr",
                                  "length-5-nccr", "length-6-nccr"])
def test_relations_equal_to_derivatives_complete_no_ideal(completions, name):
    # a budget of zero steps: any completion or reduction would exhaust it
    b = builtins()[name]
    pres = b.presentation()
    phi = pres.element(NORMALISED_LENGTH3) if name == "length-3-nccr" \
        else b.superpotential_element()
    report = verify_superpotential(pres, phi, budget=Budget(0))
    assert report.ok, report.failures()
    assert completions == []
    assert all(nf.is_zero() for nf in report.derivative_normal_forms.values())


def test_length3_literal_still_completes_the_derivative_ideal(completions):
    b = builtins()["length-3-nccr"]
    report = verify_superpotential(b.presentation(), b.superpotential_element())
    assert completions == ["length-3-nccr", "length-3-nccr-potential"]
    wrong = "5*A*a - b*b - b*c - c*b - c*c"
    scaled = "5/4*A*a - 1/4*b*b - 1/4*b*c - 1/4*c*b - 1/4*c*c"
    assert report.failures() == [
        ("NF(d_b phi) = 0", wrong), ("NF(d_c phi) = 0", wrong),
        ("relation 2 in <d phi>", scaled), ("relation 3 in <d phi>", scaled)]


def _laufer_with_relation_3(text):
    b = builtins()["laufer-nccr"]
    pres = b.presentation()
    relations = list(pres.relations)
    relations[3] = pres.element(text)
    return pres.with_relations(relations, name="planted"), b.superpotential_element()


def test_a_sum_of_two_derivatives_goes_through_the_fallback(completions):
    # d_b phi + d_c phi up to sign: in <d phi>, but a multiple of neither
    pres, phi = _laufer_with_relation_3("c*b + b*c + A*a*c + c*A*a - c*c*c + b*b")
    report = verify_superpotential(pres, phi)
    assert report.ok
    assert completions == ["planted", "planted-potential"]


def test_a_scaled_relation_takes_the_shortcut(completions):
    pres, phi = _laufer_with_relation_3("3*c*b + 3*b*c")
    report = verify_superpotential(pres, phi)
    assert report.ok
    assert completions == []


def test_a_changed_tail_coefficient_is_not_placed_by_inspection(completions):
    # -d_b phi is c*b + b*c: same leading word and coefficient, other tail
    pres, phi = _laufer_with_relation_3("c*b + 2*b*c")
    report = verify_superpotential(pres, phi)
    assert completions == ["planted", "planted-potential"]
    assert report.failures() == [("NF(d_b phi) = 0", "b*c"),
                                 ("relation 3 in <d phi>", "b*c")]
    assert report.derivative_normal_forms["b"] == pres.element("b*c")


def test_a_potential_without_derivatives_reports_each_relation():
    # the derivative ideal is zero, so each relation is its own normal form
    pres = builtins()["laufer-nccr"].presentation()
    report = verify_superpotential(pres, pres.element("0"))
    order = pres.order()
    assert report.failures() == [("relation %d in <d phi>" % i, r.format(order))
                                 for i, r in enumerate(pres.relations)]


def test_verify_superpotential_zero_on_free():
    free = parse_presentation(
        "params:\nvertices: 0\narrows: x: 0 -> 0, y: 0 -> 0\nrelations:")
    report = verify_superpotential(free, free.element("0"), gb_degree=4)
    assert report.ok


def test_verify_superpotential_length3_literal_fails_strict():
    # the printed potential for the length-3 example only presents the
    # algebra up to rescaling the generators; the strict cyclic-derivative
    # check detects this (the corrected coefficients 1/4, 1/4, -1/3 pass)
    b = builtins()["length-3-nccr"]
    pres = b.presentation()
    literal = verify_superpotential(pres, b.superpotential_element())
    assert not literal.ok
    corrected = pres.element(
        "a*b*A + a*c*A + (1/4)*b^4 + (1/4)*c^4 - (1/3)*(b + c)^3")
    assert verify_superpotential(pres, corrected).ok


def test_chart_representations_pass():
    entry = universal_flopping_algebra(2)
    alg = entry.presentation()
    for name, chart in LENGTH2_CHARTS.items():
        rep = Representation(alg, chart["dims"], chart["matrices"],
                             ParamRing(chart["ring"]), chart["param_map"])
        report = verify_representation(alg, rep)
        assert report.ok, (name, report.failures())


def test_a1_representation_example():
    alg = universal_flopping_algebra(1).presentation()
    rep = Representation(alg, {"0": 1, "1": 1},
                         {"a0": [["1"]], "A0": [["t"]], "a1": [["0"]], "A1": [["0"]]},
                         ParamRing(["t"]), {})
    assert verify_representation(alg, rep).ok


def test_zero_representation_preprojective_d4():
    alg = preprojective(DIAGRAMS["D4"])
    mats = {a.name: [["0"]] for a in alg.quiver.arrows}
    rep = Representation(alg, {v: 1 for v in alg.quiver.vertices}, mats,
                         ParamRing([]), {})
    assert verify_representation(alg, rep).ok


def test_representation_shape_mismatch():
    alg = universal_flopping_algebra(1).presentation()
    with pytest.raises(PipelineError):
        Representation(alg, {"0": 1, "1": 2},
                       {"a0": [["1"]], "A0": [["t"]], "a1": [["0"]], "A1": [["0"]]},
                       ParamRing(["t"]), {})
    with pytest.raises(PipelineError, match="no dimension for vertex '1'"):
        Representation(alg, {"0": 1},
                       {"a0": [["1"]], "A0": [["t"]], "a1": [["0"]], "A1": [["0"]]},
                       ParamRing(["t"]), {})
    with pytest.raises(PipelineError, match="rows of different lengths"):
        Representation(alg, {"0": 2, "1": 2},
                       {"a0": [["1", "0"], ["0"]], "A0": [["t", "0"], ["0", "t"]],
                        "a1": [["0", "0"], ["0", "0"]], "A1": [["0", "0"], ["0", "0"]]},
                       ParamRing(["t"]), {})


def test_representation_detects_failure():
    alg = universal_flopping_algebra(1).presentation()
    rep = Representation(alg, {"0": 1, "1": 1},
                         {"a0": [["1"]], "A0": [["1"]], "a1": [["0"]], "A1": [["0"]]},
                         ParamRing(["t"]), {})
    assert not verify_representation(alg, rep).ok
