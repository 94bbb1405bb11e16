"""Self-test of the benchmark's checks: each must pass a genuine result and
reject a corrupted one.

    python3 bench/selftest.py

Run from the root of a checkout; it takes a few seconds.  Exits 1 if any
check accepts a corrupted result or rejects a genuine one.
"""

import os
import sys
from types import SimpleNamespace

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from flopcalc import (  # noqa: E402
    Element,
    MultiPoly,
    builtins,
    contraction_report,
    hypersurface,
    matrix_factorization,
    normal_form,
    truncated_groebner,
    universal_flopping_algebra,
    verify_superpotential,
)

import checks  # noqa: E402
import run  # noqa: E402
from checks import from_multipoly, parse  # noqa: E402


def bump(poly):
    """poly + 1, built directly from its terms."""
    zero = (0,) * len(poly.ring.names)
    terms = dict(poly.terms)
    terms[zero] = terms.get(zero, 0) + 1
    return MultiPoly(poly.ring, {e: c for e, c in terms.items() if c})


def cases():
    """(name, problems from the genuine result, problems from the corrupted one)."""
    l2 = universal_flopping_algebra(2)
    hyp = hypersurface(l2, basis="nice")
    mf = matrix_factorization(l2, basis="nice", hyp=hyp)
    f = from_multipoly(hyp.equation)
    bad_C = [row[:] for row in mf.C]
    bad_C[1][2] = bump(bad_C[1][2])
    yield ("equation", checks.check_equal("f", f, parse(checks.L2_EQUATION)),
           checks.check_equal("f", f + checks.Poly.const(1), parse(checks.L2_EQUATION)))
    yield ("MF identity", checks.check_mf_identity("mf", mf.C, f),
           checks.check_mf_identity("mf", bad_C, f))
    yield ("length-2 reference matrix", checks.check_l2_matrix(mf.C),
           checks.check_l2_matrix(bad_C))

    b = builtins()
    nccr = b["laufer-nccr"].presentation()
    rep = contraction_report(nccr, "0", length=2)
    yield ("contraction data", checks.check_contraction("laufer-nccr", rep.dim, rep.dim_ab,
                                                        rep.gv_solutions),
           checks.check_contraction("laufer-nccr", rep.dim, rep.dim_ab, [(5, 0, 1, 0, 0, 0)]))
    yield ("GV tuple property", checks.check_contraction("laufer-nccr", 9, 5, [(5, 1, 0, 0, 0, 0)]),
           [p for p in checks.check_contraction("laufer-nccr", 9, 5, [(4, 0, 0, 0, 0, 0)])
            if "violates" in p])
    good = verify_superpotential(nccr, nccr.element(b["laufer-nccr"].superpotential))
    bad = verify_superpotential(nccr, nccr.element(b["laufer-nccr"].superpotential + " + c^3"))
    yield ("superpotential", checks.check_potential("laufer-nccr", good),
           checks.check_potential("laufer-nccr", bad))

    pres = l2.presentation()
    gb = truncated_groebner(pres, max_degree=pres.gb_degree)
    rel = pres.relations[0]
    yield ("membership", checks.check_zero("rel", normal_form(rel, gb)),
           checks.check_zero("arrow", normal_form(pres.element("a"), gb)))
    lead = gb.rules[0].lead
    yield ("interreduced leads", checks.check_interreduced("gb", gb.rules, pres.quiver),
           checks.check_interreduced("gb", gb.rules + [gb.rules[0]], pres.quiver))
    tails = [SimpleNamespace(lead=r.lead, rest=dict(r.rest)) for r in gb.rules]
    tails[0].rest[gb.rules[1].lead] = None
    yield ("irreducible tails", checks.check_interreduced("gb", tails[1:], pres.quiver),
           [p for p in checks.check_interreduced("gb", tails, pres.quiver) if "tail" in p])

    x = pres.element("A*a + 2*b*c")
    y = pres.element("(1/3)*a*b*A")
    nf_x, nf_y = normal_form(x, gb), normal_form(y, gb)
    nf_sum = normal_form(x + y.scale(2), gb)
    off = nf_x + Element.from_path(pres.quiver, pres.params, lead)
    yield ("idempotence", checks.check_idempotent("q", nf_x, normal_form(nf_x, gb)),
           checks.check_idempotent("q", nf_x, off))
    yield ("linearity", checks.check_linear("q", nf_x, nf_y, nf_sum),
           checks.check_linear("q", nf_x, nf_y, nf_sum + nf_y))

    l4 = universal_flopping_algebra(4).presentation()
    text = truncated_groebner(l4, max_degree=l4.gb_degree).serialize()
    yield ("recorded serialization", checks.check_serialized("gb", 4, text),
           checks.check_serialized("gb", 4, text.replace("->", "=>", 1)))
    same = [{"attempted": 1, "failed": 0, "digests": {"gb": "00"}}] * 2
    differ = same[:1] + [{"attempted": 1, "failed": 0, "digests": {"gb": "01"}}]
    yield ("serialization across passes", [] if run.verdict(same)[0] else ["rejected"],
           [] if run.verdict(differ)[0] else ["rejected"])


def main():
    failures = 0
    for name, genuine, corrupted in cases():
        ok = not genuine and bool(corrupted)
        failures += not ok
        print("%s: %s (genuine: %d problems, corrupted: %d problems)"
              % ("ok" if ok else "FAIL", name, len(genuine), len(corrupted)))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
