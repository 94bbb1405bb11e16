"""Per-layer metrics read from a cProfile run of one pass.

Self time is charged to the flopcalc module whose code ran.  Time in the
standard-library ``fractions`` module and in C built-ins (``isinstance``,
``dict.items``, ...) is charged to the module that called it, in
proportion to the time each caller spent there, so that ``coeff.self_s``
includes the ``Fraction`` arithmetic ``coeff`` asks for.  Functions are
found through the live function objects, so the metrics follow a function
whose line number moves.
"""

import fractions
import pstats

from flopcalc import catalog, coeff, contraction, flops, ncgb, pathalg

LAYERS = {"coeff": coeff, "pathalg": pathalg, "ncgb": ncgb, "catalog": catalog,
          "flops": flops, "contraction": contraction}
_FILES = {m.__file__: name for name, m in LAYERS.items()}
_CHARGED = {fractions.__file__, "~"}


def _key(module, *attrs):
    """The pstats key of module.attr[.attr], or None if it no longer exists."""
    obj = module
    for a in attrs:
        obj = getattr(obj, a, None)
    code = getattr(obj, "__code__", None)
    return code and (code.co_filename, code.co_firstlineno, code.co_name)


def _owner(key):
    if key[0] in _CHARGED:
        return None
    return _FILES.get(key[0], "other")


def self_times(stats):
    """{layer: self seconds}, with charged time moved to the callers."""
    shares = {}

    def share(key, seen):
        if key in shares:
            return shares[key]
        callers = stats[key][4]
        weights = {c: (w[2] or w[1]) for c, w in callers.items()}
        total = sum(weights.values())
        out = {}
        for c, w in weights.items():
            owner = _owner(c)
            if owner is not None:
                out[owner] = out.get(owner, 0) + w / total
            elif c not in seen and c in stats:
                for o, s in share(c, seen | {key}).items():
                    out[o] = out.get(o, 0) + s * w / total
        shares[key] = out or {"other": 1.0}
        return shares[key]

    self_s = {}
    for key, (_, _, tt, _, _) in stats.items():
        owner = _owner(key)
        parts = {owner: 1.0} if owner is not None else share(key, frozenset())
        for o, s in parts.items():
            self_s[o] = self_s.get(o, 0.0) + tt * s
    return self_s


def profile_metrics(profiler):
    """The per-layer metrics that come from the profiler."""
    stats = pstats.Stats(profiler).stats

    def calls(key):
        return stats[key][1] if key in stats else 0

    def cumulative(key):
        return stats[key][3] if key in stats else 0.0

    gb_key = _key(ncgb, "truncated_groebner")
    escalations = {_key(ncgb, "dimension"), _key(contraction, "completed_dimension")}
    # A dimension count escalates the truncation until the basis is complete
    # and uses only that last basis; any other caller uses every basis.
    useful = sum(calls(c) if c in escalations else w[1]
                 for c, w in (stats[gb_key][4].items() if gb_key in stats else ()))
    completions = calls(gb_key)
    self_s = self_times(stats)
    span = _key(flops, "_express_in_span")
    out = {"%s.self_s" % name: self_s.get(name, 0.0)
           for name in ("coeff", "pathalg", "ncgb", "flops", "contraction")}
    out.update({
        "coeff.poly_mul_calls": calls(_key(coeff, "MultiPoly", "__mul__")),
        "coeff.divexact_calls": calls(_key(coeff, "divexact")),
        "coeff.gcd_calls": calls(_key(coeff, "poly_gcd")),
        "coeff.fraction_new_calls": calls(_key(fractions, "Fraction", "__new__")),
        "pathalg.order_key_calls": calls(_key(pathalg, "MonomialOrder", "key")),
        "pathalg.path_new_calls": calls(_key(pathalg, "Path", "__init__")),
        "ncgb.completion_s": cumulative(gb_key),
        "ncgb.completion_calls": completions,
        "ncgb.completion_useful_ratio": useful / completions if completions else 0.0,
        "flops.span_solve_s": cumulative(span),
        "flops.span_solve_calls": calls(span),
        "flops.mf_check_s": cumulative(_key(flops, "MatrixFactorization", "check")),
    })
    return out
