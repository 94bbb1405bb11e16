"""Correctness checks for the benchmark, with their own exact arithmetic.

Every check compares a flopcalc result against a reference value or a
property, and does its arithmetic here on plain ``Fraction`` dictionaries,
so a fault in flopcalc's ``MultiPoly``/``RatFunc``/``Element`` arithmetic
cannot make a wrong result look right.  flopcalc objects are only read
(their ``terms``, ``ring.names``, ``rules``), never asked to compute.

Each check returns a list of problems; an empty list means it passed.
"""

import ast
import hashlib
from fractions import Fraction


class Poly:
    """A polynomial over Q: {((var, exp), ...) sorted by var: Fraction}."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {m: c for m, c in (terms or {}).items() if c}

    @staticmethod
    def const(c):
        return Poly({(): Fraction(c)})

    @staticmethod
    def var(name):
        return Poly({((name, 1),): Fraction(1)})

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return Poly(out)

    def __neg__(self):
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                exps = dict(m1)
                for v, e in m2:
                    exps[v] = exps.get(v, 0) + e
                m = tuple(sorted(exps.items()))
                out[m] = out.get(m, 0) + c1 * c2
        return Poly(out)

    def __pow__(self, n):
        out = Poly.const(1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        return isinstance(other, Poly) and self.terms == other.terms

    def subs(self, mapping):
        """Substitute Poly values for variables; unmapped variables stay."""
        out = Poly()
        for m, c in self.terms.items():
            term = Poly.const(c)
            for v, e in m:
                term = term * (mapping[v] ** e if v in mapping else Poly({((v, e),): 1}))
            out = out + term
        return out

    def __repr__(self):
        return "Poly(%r)" % self.terms


def parse(text):
    """A Poly from text in flopcalc's syntax (``^`` powers, ``p/q`` rationals)."""
    return _eval(ast.parse(text.replace("^", "**"), mode="eval").body)


def _eval(node):
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return Poly.const(node.value)
    if isinstance(node, ast.Name):
        return Poly.var(node.id)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        p = _eval(node.operand)
        return -p if isinstance(node.op, ast.USub) else p
    if isinstance(node, ast.BinOp):
        left = _eval(node.left)
        if isinstance(node.op, ast.Pow):
            return left ** node.right.value
        right = _eval(node.right)
        if isinstance(node.op, ast.Add):
            return left + right
        if isinstance(node.op, ast.Sub):
            return left - right
        if isinstance(node.op, ast.Mult):
            return left * right
        if isinstance(node.op, ast.Div) and set(right.terms) <= {()}:
            return left * Poly.const(1 / right.terms[()])
    raise ValueError("unsupported reference syntax: %s" % ast.dump(node))


def from_multipoly(mp):
    """Read a flopcalc MultiPoly's terms into a Poly."""
    names = mp.ring.names
    return Poly({
        tuple(sorted((names[i], e) for i, e in enumerate(exps) if e)): Fraction(c)
        for exps, c in mp.terms.items()
    })


def element_terms(elem):
    """A flopcalc Element as {(source, arrows): (numerator Poly, denominator Poly)}."""
    return {(p.source, p.arrows): (from_multipoly(c.num), from_multipoly(c.den))
            for p, c in elem.terms.items()}


# -- references ---------------------------------------------------------------
# Equations and matrices recorded from the paper in tests/test_acceptance.py.

L1_FIBRE = "X*Y - z^2"
L2_EQUATION = "x^2 + u*y^2 + 2*v*y*z + w*z^2 + (u*w - v^2)*t^2"
L2_XPLUSC = [  # x I + C after the documented sign flip D = diag(1, 1, -1, 1)
    ["x - v*t", "y", "z", "t"],
    ["-u*y - 2*z*v", "x + v*t", "-u*t", "z"],
    ["-w*z", "w*t", "x - v*t", "-y"],
    ["-u*w*t", "-w*z", "u*y + 2*v*z", "x + v*t"],
]
L2_SIGN = (1, 1, -1, 1)
LAUFER_EQUATION = "x^2 + y^3 - t*z^2 - y*t^3"
LAUFER_MAP = {"u": "y", "v": "0", "w": "-t"}
L3_EXAMPLE_G = ("-T^5 + 4*T^3*y + T^2*z^2 + (1/4)*T^2*y^2 + (1/2)*T*z^2*y "
                "+ (1/4)*z^4 - y^3")

# Published contraction data: (dim, dim_ab, GV tuples).
CONTRACTION = {
    "laufer-nccr": (9, 5, [(5, 1, 0, 0, 0, 0)]),
    "length-3-nccr": (27, 6, [(6, 3, 1, 0, 0, 0)]),
}

# sha256 of GroebnerBasis.serialize() for the universal algebras at their
# recorded degrees.  The serialized form is a byte-identical contract.
SERIALIZED_SHA256 = {
    4: "1651e995a3bbf0008c65400860715eb8d79c93a6214d6fa2045ce2206b800149",
    5: "1f9cb6c0bb0f9206d2496b082590a81c85e42ad2e690760a8e46938818e58836",
    6: "9b3ee4c4896a013b1384d9a3e399ac725e38a922ccd162a7694a38d295cfa320",
}


# -- checks -------------------------------------------------------------------

def check_equal(label, got, want):
    return [] if got == want else ["%s: got %s, want %s" % (label, got.terms, want.terms)]


def check_mf_identity(label, C, f):
    """(x I - C)(x I + C) = f I, recomputed from the entries of C and f."""
    n = len(C)
    x = Poly.var("x")
    c = [[from_multipoly(e) for e in row] for row in C]
    minus = [[(x if i == j else Poly()) - c[i][j] for j in range(n)] for i in range(n)]
    plus = [[(x if i == j else Poly()) + c[i][j] for j in range(n)] for i in range(n)]
    problems = []
    for i in range(n):
        for j in range(n):
            s = Poly()
            for k in range(n):
                s = s + minus[i][k] * plus[k][j]
            if s != (f if i == j else Poly()):
                problems.append("%s: (xI-C)(xI+C) != f I at entry %s" % (label, (i, j)))
    return problems


def check_l2_matrix(C):
    """x I + C matches the recorded length-2 reference after the sign flip."""
    x = Poly.var("x")
    problems = []
    for i, row in enumerate(L2_XPLUSC):
        for j, text in enumerate(row):
            entry = from_multipoly(C[i][j]) + (x if i == j else Poly())
            sign = L2_SIGN[i] * L2_SIGN[j]
            if (entry if sign == 1 else -entry) != parse(text):
                problems.append("length-2 xI+C differs from the reference at %s" % ((i, j),))
    return problems


def check_contraction(name, dim, dim_ab, gv):
    want = CONTRACTION[name]
    problems = []
    if (dim, dim_ab, [tuple(t) for t in gv]) != want:
        problems.append("%s contraction data %s, published %s" % (name, (dim, dim_ab, gv), want))
    for t in gv:
        if t[0] != dim_ab or sum(n * (i + 1) ** 2 for i, n in enumerate(t)) != dim:
            problems.append("%s GV tuple %s violates n1 = dim_ab, sum n_i i^2 = dim"
                            % (name, tuple(t)))
    return problems


def _divides(lead, word):
    """Whether rewrite-rule lead `lead` occurs in `word`; both (source, arrows, targets).

    An empty lead is the idempotent e_v and occurs in every word through v.
    """
    src, arrows, _ = lead
    wsrc, warrows, wtargets = word
    if not arrows:
        return src == wsrc or src in wtargets
    n = len(arrows)
    return any(warrows[i:i + n] == arrows for i in range(len(warrows) - n + 1))


def check_interreduced(label, rules, quiver):
    """No lead occurs in another lead, and no tail word contains a lead."""
    def word(path):
        return (path.source, path.arrows, [quiver.arrows[i].target for i in path.arrows])

    leads = [word(r.lead) for r in rules]
    problems = []
    for i, li in enumerate(leads):
        for j, lj in enumerate(leads):
            if i != j and _divides(li, lj):
                problems.append("%s: lead %d occurs in lead %d" % (label, i, j))
    for i, r in enumerate(rules):
        for p in r.rest:
            w = word(p)
            if any(_divides(lead, w) for lead in leads):
                problems.append("%s: tail word of rule %d is reducible" % (label, i))
    return problems


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def check_serialized(label, length, text):
    if sha256(text) != SERIALIZED_SHA256[length]:
        return ["%s: serialize() differs from the recorded bytes" % label]
    return []


def check_potential(name, report):
    """A superpotential report: verified, and every cyclic derivative in the ideal."""
    problems = [] if report.ok else ["%s potential fails verify_superpotential" % name]
    for arrow, nf in report.derivative_normal_forms.items():
        problems += check_zero("%s d_%s" % (name, arrow), nf)
    return problems


def check_zero(label, elem):
    return [] if not elem.terms else ["%s: normal form is not zero" % label]


def check_idempotent(label, nf, nf_again):
    a, b = element_terms(nf), element_terms(nf_again)
    if a.keys() != b.keys() or not all(a[k][0] * b[k][1] == b[k][0] * a[k][1] for k in a):
        return ["%s: NF(NF(x)) != NF(x)" % label]
    return []


def check_linear(label, nf_x, nf_y, nf_sum):
    """NF(x + 2y) = NF(x) + 2 NF(y), coefficientwise over a common denominator."""
    a, b, s = element_terms(nf_x), element_terms(nf_y), element_terms(nf_sum)
    zero, one, two = Poly(), Poly.const(1), Poly.const(2)
    for k in set(a) | set(b) | set(s):
        na, da = a.get(k, (zero, one))
        nb, db = b.get(k, (zero, one))
        ns, ds = s.get(k, (zero, one))
        if ns * da * db != (na * db + two * nb * da) * ds:
            return ["%s: NF(x + 2y) != NF(x) + 2 NF(y)" % label]
    return []
