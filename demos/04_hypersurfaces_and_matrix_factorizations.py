"""Hypersurface recovery and matrix factorizations for lengths 1 and 2.

The center of a universal flopping algebra is a hypersurface
R_l = H_l[x, y, z]/(f) with f = x^2 - g; the rank-l module N gives a
2l x 2l matrix C with x . g_i = sum C_ij g_j and C^2 = g I exactly, so
(xI - C)(xI + C) = f I.

Lengths 4-6 run the same pipeline and take seconds to minutes (see the
README for measured times; no compact closed form exists); use the CLI,
with a larger --budget where the default step budget runs out, and rely on
the C^2 = g I contract.
"""

from flopcalc import hypersurface, matrix_factorization, universal_flopping_algebra
from flopcalc.coeff import format_poly

# length 1: the A1 family x y - z^2 + t z in symmetric coordinates
hyp1 = hypersurface(universal_flopping_algebra(1))
print("length 1: f =", hyp1.equation)
mf1 = matrix_factorization(universal_flopping_algebra(1), hyp=hyp1)
for row in mf1.C:
    print("   ", [format_poly(e) for e in row])
print("C^2 = g I:", mf1.check())
print()

# length 2, raw parameters: the degree-12 identity of the universal center
hyp2 = hypersurface(universal_flopping_algebra(2))
print("length 2 (raw): P =", format_poly(hyp2.P))
print("length 2 (raw): Q =", format_poly(hyp2.Q))
print()

# the recorded Curto-Morrison change of basis turns it into
# f = x^2 + u y^2 + 2 v y z + w z^2 + (u w - v^2) t^2
hyp2n = hypersurface(universal_flopping_algebra(2), basis="nice")
print("length 2 (nice): f =", hyp2n.equation)
mf2 = matrix_factorization(universal_flopping_algebra(2), basis="nice", hyp=hyp2n)
print("4x4 half xI + C (rows):")
for row in mf2.x_plus():
    print("   ", [format_poly(e) for e in row])
print("C^2 = g I:", mf2.check())
