import pytest

from flopcalc.catalog import (
    DIAGRAMS,
    _PIPELINE_DEGREES,
    CatalogError,
    FlopCatalogEntry,
    apply_simple_reflection,
    builtins,
    catalog_entry,
    catalog_names,
    catalog_presentation,
    central_fibre_consistent,
    deformed_preprojective,
    preprojective,
    universal_flopping_algebra,
    verify_invariants,
)
from flopcalc.coeff import parse_poly
from flopcalc.pathalg import algebra_map


def test_catalog_presentations_all_validate():
    names = catalog_names()
    assert "length-2" in names and "laufer-nccr" in names
    for name in names:
        pres = catalog_presentation(name)
        for rel in pres.relations:
            assert rel.is_zero() or rel.endpoints() is not None


def test_unknown_catalog_name():
    for name in ("length-7", "nope", "central-fibre-x", "preprojective-Z9",
                 "deformed-preprojective-Z9"):
        with pytest.raises(CatalogError):
            catalog_presentation(name)


def test_one_table_serves_every_lookup():
    names = catalog_names()
    assert len(names) == len(set(names)) == 30
    assert [catalog_entry(name).name for name in names] == names
    for name, b in builtins().items():
        assert catalog_entry(name) is b and b.family in (None, 2, 3)
    for length in range(1, 7):
        entry = universal_flopping_algebra(length)
        assert entry is catalog_entry("length-%d" % length) and entry.family == length
    # the universal entries read their own family through the one pipeline()
    assert "pipeline" not in vars(FlopCatalogEntry)
    for name in ("central-fibre-1", "preprojective-A1", "deformed-preprojective-E8"):
        assert catalog_entry(name).family is None
        assert catalog_entry(name).superpotential is None
    with pytest.raises(CatalogError, match="length must be 1..6, got 7"):
        universal_flopping_algebra(7)


@pytest.mark.parametrize("length", range(1, 7))
def test_verify_invariants_per_length(length):
    report = verify_invariants(universal_flopping_algebra(length))
    assert report.ok, report.failures()


def test_length2_entry_shape():
    entry = universal_flopping_algebra(2)
    pres = entry.presentation()
    assert len(pres.quiver.vertices) == 2
    assert len(pres.quiver.arrows) == 5
    assert len(pres.relations) == 5
    # a*a + b + c + d = (t/2) e4 appears verbatim
    assert pres.element("A*a + b + c + d - (1/2)*t*e4") in pres.relations


def test_the_nice_basis_is_one_ring_map_on_the_pipeline_data():
    ring, mapping = universal_flopping_algebra(2).pipeline().nice_basis
    assert ring.names == ("t", "u", "v", "w", "z", "y")
    assert mapping["T0b"] == parse_poly("-u", ring)
    assert universal_flopping_algebra(3).pipeline().nice_basis is None
    laufer = builtins()["laufer"]
    assert laufer.pipeline().nice_basis is None
    assert repr(laufer) == "Builtin(laufer)"


def test_length1_is_deformed_preprojective_A1():
    # the universal length-1 algebra is the deformed preprojective algebra
    # of A1 under t = t_0 = -t_1 (quivers list the arrows in different
    # orders, so compare after reparsing into the universal presentation)
    uni = universal_flopping_algebra(1).presentation()
    dp = deformed_preprojective(DIAGRAMS["A1"])
    ring = uni.params
    images = []
    for r in dp.relations:
        r = algebra_map(r, r.quiver, ring,
                        coeff=lambda c: c.substitute({"t1": -ring.var("t")}, ring))
        images.append(uni.element(r.format()))
    assert images == uni.relations


def test_length5_relation_example():
    # gamma beta gamma + gamma^2 beta + gamma beta^3 = -T3 gb - T2 g - T0 e4
    pres = universal_flopping_algebra(5).presentation()
    rel = pres.element("c*b*c + c^2*b + c*b^3 + T3*c*b + T2*c + T0*e4")
    assert rel in pres.relations


def test_preprojective_relations():
    d4 = preprojective(DIAGRAMS["D4"])
    assert len(d4.relations) == 5
    central = d4.element("A0*a0 + A1*a1 + A2*a2 + A3*a3")
    assert -central in d4.relations or central in d4.relations
    a1 = preprojective(DIAGRAMS["A1"])
    assert a1.element("a0*A0 - A1*a1") in a1.relations


def test_deformed_preprojective_E8_eliminated_relation():
    # t0 = -(2t1 + 3t2 + 4t3 + 5t4 + 3t5 + 2t6 + 4t7 + 6t8)
    dp = deformed_preprojective(DIAGRAMS["E8"])
    ring = dp.params
    t0 = parse_poly("-(2*t1 + 3*t2 + 4*t3 + 5*t4 + 3*t5 + 2*t6 + 4*t7 + 6*t8)", ring)
    rel0 = dp.element("a0*A0") - dp.idempotent(0).scale(t0.__class__.coerce(ring, t0))
    assert rel0 in dp.relations


def test_deformed_at_zero_is_preprojective():
    for name in ("A1", "D4", "E6", "E7", "E8"):
        dp = deformed_preprojective(DIAGRAMS[name])
        pp = preprojective(DIAGRAMS[name])
        ring = dp.params
        zero_map = {n: ring.zero() for n in ring.names}
        for rd, rp in zip(dp.relations, pp.relations):
            image = algebra_map(rd, rd.quiver, ring, coeff=lambda c: c.substitute(zero_map, ring))
            plain = algebra_map(rp, rp.quiver, ring)
            assert image.terms == plain.terms


def test_deformed_D4_central_relation():
    # sum a_i* a_i = -t4 e4 at the central vertex
    dp = deformed_preprojective(DIAGRAMS["D4"])
    rel = dp.element("A0*a0 + A1*a1 + A2*a2 + A3*a3 + t4*e4")
    assert rel in dp.relations or -rel in dp.relations


def test_simple_reflection_rules():
    d4 = DIAGRAMS["D4"]
    ring = d4.param_ring()
    t1, t4 = ring.var("t1"), ring.var("t4")
    assert apply_simple_reflection(d4, 1, t1) == -t1
    assert apply_simple_reflection(d4, 1, t4) == t4 + t1
    assert apply_simple_reflection(d4, 1, t1 ** 2) == t1 ** 2
    a1 = DIAGRAMS["A1"]
    ring1 = a1.param_ring()
    # doubled bond: k = 2 edges between the two vertices
    assert apply_simple_reflection(a1, 1, ring1.var("t1")) == -ring1.var("t1")
    with pytest.raises(CatalogError):
        apply_simple_reflection(d4, 0, t1)


def test_reflections_are_involutions():
    for name, d in DIAGRAMS.items():
        ring = d.param_ring()
        for i in range(1, d.n + 1):
            for j in range(1, d.n + 1):
                tj = ring.var("t%d" % j)
                assert apply_simple_reflection(d, i, apply_simple_reflection(d, i, tj)) == tj


def test_invariant_generator_examples():
    # T0b = t1^2/4 for length 2; T0d = -sigma_2 = t1^2/4 for length 3
    e2 = universal_flopping_algebra(2)
    gens2 = e2.invariants.generator_polys(e2.diagram)
    ring2 = e2.diagram.param_ring()
    assert gens2["T0b"] == parse_poly("(1/4)*t1^2", ring2)
    e3 = universal_flopping_algebra(3)
    gens3 = e3.invariants.generator_polys(e3.diagram)
    ring3 = e3.diagram.param_ring()
    assert gens3["T0d"] == parse_poly("(1/4)*t1^2", ring3)


def test_central_fibre_consistency_all_lengths():
    for length in range(1, 7):
        assert central_fibre_consistent(universal_flopping_algebra(length))


def test_e8_colorings_both_stored():
    assert universal_flopping_algebra(5).coloring.black_vertex == 4
    assert universal_flopping_algebra(6).coloring.black_vertex == 8
    assert universal_flopping_algebra(5).diagram.name == "E8"
    assert universal_flopping_algebra(6).diagram.name == "E8"


def test_builtin_pipelines_read_their_family():
    # x', the auxiliary and the module generators are the family's, parsed
    # over the builtin's own presentation at its pipeline truncation degree;
    # the presentation text keeps its own default degree
    b = builtins()
    for name, family, text_degree in (("laufer", 2, 12), ("length-3-example", 3, 8)):
        pipe = b[name].pipeline()
        family_pipe = universal_flopping_algebra(family).pipeline()
        assert pipe.presentation.name == name
        assert pipe.presentation.gb_degree == _PIPELINE_DEGREES[name]
        assert b[name].presentation().gb_degree == text_degree
        assert str(pipe.x_elem) == str(family_pipe.x_elem)
        assert [n for n, _ in pipe.aux] == [n for n, _ in family_pipe.aux]
        assert list(map(str, pipe.generators)) == list(map(str, family_pipe.generators))
    with pytest.raises(CatalogError, match="builtin 'laufer-nccr' has no pipeline data"):
        b["laufer-nccr"].pipeline()
    assert b["length-5-intermediate"].presentation().quiver.vertices == ("0", "4", "8")
