"""The four benchmark workloads, each a set-up step and one timed pass.

A workload is a class with ``setup(seed, ops)``, which builds its inputs
from the seed, and ``run(ops)``, which makes every timed flopcalc call of
one pass and checks every result.  Every call into flopcalc goes through
``Ops.call``, which times it, gives it a fresh explicit ``Budget`` where
the function takes one, and counts it as attempted, or failed when it
raises.
"""

import random
from contextlib import suppress
from fractions import Fraction
from time import perf_counter

from flopcalc import (
    Budget,
    Element,
    Path,
    RatFunc,
    builtins,
    contraction_report,
    hypersurface,
    matrix_factorization,
    normal_form,
    truncated_groebner,
    universal_flopping_algebra,
    verify_superpotential,
)

import checks
from checks import Poly, from_multipoly, parse

# The library's documented default step cap, passed explicitly so that
# FLOPCALC_MAX_STEPS in the environment cannot change the work done.
MAX_STEPS = 10 ** 6

# Calls that build the catalog and parse presentations (catalog.build_s).
CATALOG_CALLS = ("universal_flopping_algebra", "builtins", "presentation", "element")


class OpFailed(Exception):
    """A flopcalc call raised.  Each unit of a pass runs under
    ``suppress(OpFailed)``, so a failed call skips the rest of its unit."""


class Ops:
    """Times and counts the flopcalc calls of one process."""

    def __init__(self):
        self.times = {}
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.problems = []
        self.steps = 0
        self.rules = 0
        self.digests = {}

    def call(self, name, fn, *args, budget=False, **kwargs):
        if budget:
            kwargs["budget"] = Budget(MAX_STEPS)
        self.attempted += 1
        t = perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # any raise is a failed operation, reported below
            self.failed += 1
            self.errors.append("%s: %s: %s" % (name, type(exc).__name__, exc))
            raise OpFailed from exc
        finally:
            self.times.setdefault(name, []).append(perf_counter() - t)
            if budget:
                self.steps += kwargs["budget"].steps

    def check(self, problems):
        self.problems.extend(problems)


def random_element(rng, pres, max_len, max_terms=3):
    """A sum of 1 to max_terms random paths of length <= max_len with small
    rational coefficients."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        at = v = rng.choice(pres.quiver.vertices)
        arrows = []
        for _ in range(rng.randint(0, max_len)):
            outs = [a for a in pres.quiver.arrows if a.source == at]
            if not outs:
                break
            a = rng.choice(outs)
            arrows.append(a.index)
            at = a.target
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        if c:
            terms[Path(pres.quiver, v, tuple(arrows))] = RatFunc.coerce(pres.params, c)
    return Element(pres.quiver, pres.params, terms)


def membership_samples(rng, pres, degree, count):
    """`count` nonzero u * r * v of degree <= `degree`, with u and v random
    paths and r taking each relation in turn.

    Single paths and relations in turn, not sums and random relations, keep
    the cost of a stream from depending on how often the seed draws a rare
    costly product: such a product costs up to 200 times the median query.
    """
    relations = [r for r in pres.relations if not r.is_zero()]
    out = []
    for i in range(count):
        for _ in range(10000):
            x = random_element(rng, pres, 2, 1) * relations[i % len(relations)] \
                * random_element(rng, pres, 2, 1)
            if not x.is_zero() and x.degree() <= degree:
                out.append(x)
                break
        else:
            raise RuntimeError("no membership sample of degree <= %d" % degree)
    return out


class Pipeline:
    """Hypersurface and matrix factorisation: lengths 1 and 2 (nice basis),
    the Laufer flop, and the length-3-example hypersurface."""

    def setup(self, seed, ops):
        self.l1 = ops.call("universal_flopping_algebra", universal_flopping_algebra, 1)
        self.l2 = ops.call("universal_flopping_algebra", universal_flopping_algebra, 2)
        b = ops.call("builtins", builtins)
        self.laufer, self.l3_example = b["laufer"], b["length-3-example"]
        half = Fraction(1, 2)
        X, Y = Poly.var("X"), Poly.var("Y")
        self.l1_coords = {"t": Poly(), "x": (X - Y) * Poly.const(half),
                          "w": (X + Y) * Poly.const(half)}
        self.refs = {k: parse(v) for k, v in (
            ("l1", checks.L1_FIBRE), ("l2", checks.L2_EQUATION),
            ("laufer", checks.LAUFER_EQUATION), ("l3", checks.L3_EXAMPLE_G))}
        self.laufer_map = {k: parse(v) for k, v in checks.LAUFER_MAP.items()}

    def _pipeline(self, ops, label, source, **kwargs):
        hyp = ops.call("hypersurface", hypersurface, source, budget=True, **kwargs)
        mf = ops.call("matrix_factorization", matrix_factorization, source,
                      hyp=hyp, budget=True, **kwargs)
        ops.rules += len(hyp.gb.rules)
        f = from_multipoly(hyp.equation)
        ops.check(checks.check_mf_identity(label, mf.C, f))
        return f, mf

    def run(self, ops):
        with suppress(OpFailed):
            f, mf = self._pipeline(ops, "length-1", self.l1)
            ops.check(checks.check_equal("length-1 f(t=0)", -f.subs(self.l1_coords),
                                         self.refs["l1"]))
            if len(mf.C) != 2:
                ops.check(["length-1 MF has size %d, want 2" % len(mf.C)])
        f2 = None
        with suppress(OpFailed):
            f2, mf = self._pipeline(ops, "length-2 nice", self.l2, basis="nice")
            ops.check(checks.check_equal("length-2 f", f2, self.refs["l2"]))
            ops.check(checks.check_l2_matrix(mf.C))
        with suppress(OpFailed):
            f, _ = self._pipeline(ops, "laufer", self.laufer)
            ops.check(checks.check_equal("laufer f", f, self.refs["laufer"]))
            if f2 is not None:
                ops.check(checks.check_equal("length-2 f under the Laufer map",
                                             f2.subs(self.laufer_map), f))
        with suppress(OpFailed):
            hyp = ops.call("hypersurface", hypersurface, self.l3_example, budget=True)
            ops.rules += len(hyp.gb.rules)
            ops.check(checks.check_equal("length-3-example g", from_multipoly(hyp.g),
                                         self.refs["l3"]))


class Completion:
    """Truncated Groebner bases of the universal algebras of lengths 4, 5 and 6
    at their recorded degrees, checked by sampled ideal membership."""

    LENGTHS = (4, 5, 6)
    SAMPLES = 20

    def setup(self, seed, ops):
        rng = random.Random(seed)
        self.cases = []
        for l in self.LENGTHS:
            entry = ops.call("universal_flopping_algebra", universal_flopping_algebra, l)
            pres = ops.call("presentation", entry.presentation)
            samples = membership_samples(rng, pres, pres.gb_degree, self.SAMPLES)
            self.cases.append((l, pres, samples))

    def run(self, ops):
        for l, pres, samples in self.cases:
            label = "length-%d basis" % l
            with suppress(OpFailed):
                gb = ops.call("truncated_groebner", truncated_groebner, pres,
                              max_degree=pres.gb_degree, budget=True)
                ops.rules += len(gb.rules)
                ops.check(checks.check_interreduced(label, gb.rules, pres.quiver))
                for i, x in enumerate([r for r in pres.relations if not r.is_zero()] + samples):
                    nf = ops.call("normal_form", normal_form, x, gb, budget=True)
                    ops.check(checks.check_zero("%s, element %d" % (label, i), nf))
                text = ops.call("serialize", gb.serialize)
                ops.digests[label] = checks.sha256(text)
                ops.check(checks.check_serialized(label, l, text))


class Nccr:
    """Contraction reports of the Laufer and length-3 NCCRs, and four
    superpotential checks."""

    POTENTIALS = {
        "length-3-nccr": "a*b*A + a*c*A + (1/4)*b^4 + (1/4)*c^4 - (1/3)*(b+c)^3",
        "length-4-nccr": "a*b*A + a*c*A + (1/3)*b^3 + (1/5)*c^5 + (1/4)*(-b - c)^4",
        "length-6-nccr": "a*b*A + a*c*A + (1/3)*b^3 + (1/4)*c^4 + (1/6)*(-b - c)^6",
    }
    REPORTS = (("laufer-nccr", 2), ("length-3-nccr", 3))

    def setup(self, seed, ops):
        b = ops.call("builtins", builtins)
        texts = dict(self.POTENTIALS, **{"laufer-nccr": b["laufer-nccr"].superpotential})
        self.pres = {name: ops.call("presentation", b[name].presentation) for name in texts}
        self.potentials = [(name, ops.call("element", self.pres[name].element, text))
                           for name, text in texts.items()]

    def run(self, ops):
        for name, length in self.REPORTS:
            with suppress(OpFailed):
                rep = ops.call("contraction_report", contraction_report, self.pres[name], "0",
                               length=length, budget=True)
                ops.check(checks.check_contraction(name, rep.dim, rep.dim_ab, rep.gv_solutions))
        for name, phi in self.potentials:
            with suppress(OpFailed):
                rep = ops.call("verify_superpotential", verify_superpotential,
                               self.pres[name], phi, budget=True)
                ops.check(checks.check_potential(name, rep))


class NfQueries:
    """A seeded stream of normal-form queries against fixed bases of the
    universal algebras of lengths 1, 2, 3, 4 and 6, built during set-up."""

    LENGTHS = (1, 2, 3, 4, 6)
    QUERIES = 8000

    def setup(self, seed, ops):
        rng = random.Random(seed)
        bases = []
        for l in self.LENGTHS:
            entry = ops.call("universal_flopping_algebra", universal_flopping_algebra, l)
            pres = ops.call("presentation", entry.presentation)
            gb = ops.call("truncated_groebner", truncated_groebner, pres,
                          max_degree=pres.gb_degree, budget=True)
            ops.rules += len(gb.rules)
            bases.append((l, pres, gb))
        kinds = ("idempotent", "linear", "member")
        slots = [(i, i % len(bases), kinds[(i // len(bases)) % 3]) for i in range(self.QUERIES)]
        members = {b: iter(membership_samples(
            rng, bases[b][1], bases[b][2].truncation_degree,
            sum(1 for _, bb, k in slots if bb == b and k == "member")))
            for b in range(len(bases))}
        self.queries = []
        for i, b, kind in slots:
            l, pres, gb = bases[b]
            if kind == "member":
                args = (next(members[b]),)
            else:
                while True:
                    x, y = random_element(rng, pres, 4), random_element(rng, pres, 3)
                    s = x + y.scale(2)
                    if max(x.degree(), y.degree(), s.degree()) <= gb.truncation_degree:
                        break
                args = (x,) if kind == "idempotent" else (x, y, s)
            self.queries.append(("query %d (length %d, %s)" % (i, l, kind), kind, gb, args))

    def run(self, ops):
        for label, kind, gb, args in self.queries:
            with suppress(OpFailed):
                nfs = [ops.call("normal_form", normal_form, x, gb, budget=True) for x in args]
                if kind == "idempotent":
                    again = ops.call("normal_form", normal_form, nfs[0], gb, budget=True)
                    ops.check(checks.check_idempotent(label, nfs[0], again))
                elif kind == "linear":
                    ops.check(checks.check_linear(label, *nfs))
                else:
                    ops.check(checks.check_zero(label, nfs[0]))


WORKLOADS = {
    "pipeline": Pipeline,
    "completion": Completion,
    "nccr": Nccr,
    "nf-queries": NfQueries,
}
