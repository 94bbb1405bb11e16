import pytest

from flopcalc.catalog import builtins
from flopcalc.contraction import (
    ContractionError,
    abelianization,
    completed_dimension,
    contraction_dims,
    contraction_presentation,
    contraction_report,
    gv_invariants,
)
from flopcalc.ncgb import Budget, BudgetExceededError, dimension
from flopcalc.pathalg import parse_presentation


def test_laufer_contraction_presentation():
    pres = builtins()["laufer-nccr"].presentation()
    con = contraction_presentation(pres, "0")
    assert [a.name for a in con.quiver.arrows] == ["b", "c"]
    rels = {r.format() for r in con.relations}
    assert rels == {con.element("b^2 - c^3").format(), con.element("b*c + c*b").format()}


def test_length3_contraction_presentation():
    pres = builtins()["length-3-nccr"].presentation()
    con = contraction_presentation(pres, "0")
    rels = [r for r in con.relations]
    want1 = con.element("-(b + c)^2 + b^3")
    want2 = con.element("-(b + c)^2 + c^3")
    assert want1 in rels and want2 in rels


def test_trivial_contraction():
    pres = parse_presentation(
        "params:\nvertices: 0, 1\narrows: a: 0 -> 1\nrelations:")
    con = contraction_presentation(pres, "0")
    assert con.quiver.vertices == ("1",)
    assert con.relations == []
    assert dimension(con) == 1


def test_contraction_idempotent():
    pres = builtins()["laufer-nccr"].presentation()
    con = contraction_presentation(pres, "0")
    again = contraction_presentation(
        parse_presentation("params:\nvertices: 0, 4\narrows: a: 0 -> 4, b: 4 -> 4\nrelations: b^2"),
        "0")
    twice = contraction_presentation(
        parse_presentation("params:\nvertices: 0, 4\narrows: a: 0 -> 4, b: 4 -> 4\nrelations: b^2"),
        "0")
    assert again.quiver == twice.quiver and again.relations == twice.relations
    with pytest.raises(ContractionError):
        contraction_presentation(con, "4")  # would remove every vertex


def test_contraction_dims_examples():
    laufer = builtins()["laufer-nccr"].presentation()
    assert contraction_dims(laufer, "0") == (9, 5)
    l3 = builtins()["length-3-nccr"].presentation()
    assert contraction_dims(l3, "0") == (27, 6)
    one_loop = parse_presentation(
        "params:\nvertices: 0, 1\narrows: a: 0 -> 1, x: 1 -> 1\nrelations: x^2")
    assert contraction_dims(one_loop, "0") == (2, 2)


def test_abelianization_dominance():
    for name in ("laufer-nccr", "length-3-nccr"):
        pres = builtins()[name].presentation()
        dim, dim_ab = contraction_dims(pres, "0")
        assert dim_ab <= dim


def test_abelianization_kills_nonloops():
    pres = parse_presentation(
        "params:\nvertices: 0, 1\narrows: a: 0 -> 1, b: 1 -> 0\nrelations:")
    ab = abelianization(pres)
    assert dimension(ab) == 2  # just the two vertex idempotents


def test_gv_examples():
    assert gv_invariants(9, 5, 2) == [(5, 1, 0, 0, 0, 0)]
    assert gv_invariants(27, 6, 3) == [(6, 3, 1, 0, 0, 0)]
    assert gv_invariants(1, 1, 1) == [(1, 0, 0, 0, 0, 0)]
    assert gv_invariants(12, 5) == []  # no solution of 5 + sum n_i i^2 = 12


def test_gv_defining_equations_reverified():
    for dim, dim_ab, length in ((9, 5, 2), (27, 6, 3), (60, 6, None)):
        for tup in gv_invariants(dim, dim_ab, length):
            assert tup[0] == dim_ab
            assert sum(n * (i + 1) ** 2 for i, n in enumerate(tup)) == dim
            if length is not None:
                assert all(n == 0 for n in tup[length:])
                assert length == 1 or tup[length - 1] > 0


def test_gv_multiple_solutions_all_reported():
    sols = gv_invariants(60, 6)
    assert len(sols) > 1
    assert len(set(sols)) == len(sols)


def test_gv_errors():
    with pytest.raises(ContractionError):
        gv_invariants(3, 5)
    for length in (0, 7, -1):
        with pytest.raises(ContractionError):
            gv_invariants(27, 6, length)


def test_contraction_report_laufer():
    rep = contraction_report(builtins()["laufer-nccr"].presentation(), "0", length=2)
    assert (rep.dim, rep.dim_ab) == (9, 5)
    assert rep.gv_solutions == [(5, 1, 0, 0, 0, 0)]


def test_contraction_report_builds_the_presentation_once(monkeypatch):
    from flopcalc import contraction
    builds = []
    build = contraction.contraction_presentation

    def counting(alg, e0):
        builds.append(e0)
        return build(alg, e0)

    monkeypatch.setattr(contraction, "contraction_presentation", counting)
    rep = contraction_report(builtins()["laufer-nccr"].presentation(), "0", length=2)
    assert builds == ["0"]
    assert (rep.dim, rep.dim_ab, rep.gv_solutions) == (9, 5, [(5, 1, 0, 0, 0, 0)])


def test_a_report_without_a_budget_counts_both_dimensions_against_one(monkeypatch):
    laufer = builtins()["laufer-nccr"].presentation()
    con = contraction_presentation(laufer, "0")
    steps = 0
    for pres in (con, abelianization(con)):
        measured = Budget()
        completed_dimension(pres, budget=measured)
        steps += measured.steps
    monkeypatch.setenv("FLOPCALC_MAX_STEPS", str(steps))
    assert (contraction_report(laufer, "0", length=2).dim, contraction_dims(laufer, "0")) \
        == (9, (9, 5))
    monkeypatch.setenv("FLOPCALC_MAX_STEPS", str(steps - 1))
    for call in (lambda: contraction_report(laufer, "0", length=2),
                 lambda: contraction_dims(laufer, "0")):
        with pytest.raises(BudgetExceededError, match="did not finish \\(dim_ab\\)"):
            call()


def test_completed_vs_graded_dimension():
    # the length-3 flop contraction has three extra one-dimensional
    # simples away from the origin: affine word count 30, complete local 27
    l3 = builtins()["length-3-nccr"].presentation()
    con = contraction_presentation(l3, "0")
    assert dimension(con) == 30
    assert contraction_dims(l3, "0")[0] == 27


def test_length_4_contraction_dims():
    assert contraction_dims(builtins()["length-4-nccr"].presentation(), "0") == (60, 6)


def test_completed_dimension_needs_constant_coefficients():
    # a nonconstant coefficient in a rule's tail, then a nonconstant
    # leading coefficient (a nonconstant reduction scale)
    for relations in ("x*y - y*x ; x*x - t*y ; y*y", "t*x*x - y ; y*y ; x*y ; y*x"):
        pres = parse_presentation(
            "params: t\nvertices: 0, 1\narrows: a: 0 -> 1, x: 1 -> 1, y: 1 -> 1\n"
            "relations: " + relations)
        with pytest.raises(ContractionError,
                           match="completed dimension needs constant coefficients"):
            contraction_dims(pres, "0")


def test_budget_error_names_the_dimension_that_ran_out():
    laufer = builtins()["laufer-nccr"].presentation()
    with pytest.raises(BudgetExceededError) as err:
        contraction_dims(laufer, "0", budget=Budget(0))
    assert "did not finish (dim)" in str(err.value)
    # a budget of exactly the steps of `dim` lets it finish and runs out
    # in the abelianization's completion
    measured = Budget()
    completed_dimension(contraction_presentation(laufer, "0"), budget=measured)
    with pytest.raises(BudgetExceededError) as err:
        contraction_dims(laufer, "0", budget=Budget(measured.steps))
    assert "did not finish (dim_ab)" in str(err.value)
    assert err.value.partial is not None and not err.value.partial.complete


@pytest.mark.parametrize("relations", ["x*x - x ; y*y", "x*x ; y*y - y"])
def test_completion_removes_a_summand_seen_by_one_arrow(relations):
    # k[x]/(x^2 - x) (x) k[y]/(y^2) has a second point, at x = 1, that only
    # x acts on invertibly; the mirror case puts it at y = 1
    pres = parse_presentation("params:\nvertices: 0\narrows: x: 0 -> 0, y: 0 -> 0\n"
                              "relations: x*y - y*x ; " + relations)
    assert dimension(pres) == 4
    assert completed_dimension(pres) == 2
