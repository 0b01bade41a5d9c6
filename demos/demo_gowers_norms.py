"""Uniformity norms in action: identities, duals, and the von Neumann bound."""

import numpy as np

from structrand import (
    F2Polynomial,
    dual_function,
    gowers_norm,
    gowers_norm_u2_fft,
    gvn_defect,
    inner_product,
)
from structrand.cube import f2_matrix_rank

rng = np.random.default_rng(1)
n = 6
f = rng.uniform(-1, 1, 1 << n)

print("norm chain for a random bounded function:")
for d in (1, 2, 3):
    print(f"  U{d} = {gowers_norm(f, d):.6f}")
print("  sup =", np.abs(f).max())

print("\nU2 two ways (norm engine vs the sum of fhat^4):")
print("  ", gowers_norm(f, 2), gowers_norm_u2_fft(f))

print("\ncodes of low degree are maximally structured:")
quad = F2Polynomial.from_monomials(n, [(0, 1), (2, 4), (5,)])
print("  U3 of a quadratic code:", gowers_norm(quad.code(), 3))
print("  U2 of the same code:   ", gowers_norm(quad.code(), 2), "(quadratic looks flat one level down)")

print("\nmodulating by a code is invisible to the norm:")
print("  U3(f) vs U3(f * code):", gowers_norm(f, 3), gowers_norm(f * quad.code(), 3))

print("\ndual function certifies the norm:")
g = rng.uniform(-1, 1, 16)
for d in (2, 3):
    lhs = inner_product(g, dual_function(g, d))
    print(f"  <g, Dg> = {lhs:.8f} = U{d}^{1 << d} = {gowers_norm(g, d) ** (1 << d):.8f}")

print("\ngeneralized von Neumann: a 3-term form is controlled by U2(f):")
while True:
    t1 = rng.integers(0, 2, (5, 5))
    t2 = rng.integers(0, 2, (5, 5))
    if min(f2_matrix_rank(t1), f2_matrix_rank(t2), f2_matrix_rank(t1 ^ t2)) == 5:
        break
fa = rng.uniform(-1, 1, 32)
gb = rng.uniform(-1, 1, 32)
hc = rng.uniform(-1, 1, 32)
lhs, bound = gvn_defect(fa, gb, hc, t1, t2)
print(f"  |E f g h| = {lhs:.6f} <= U2(f) = {bound:.6f}")

print("\nconstant functions meet the bound with equality:")
ones = np.ones(32)
lhs, bound = gvn_defect(ones, ones, ones, t1, t2)
print(f"  |E 1*1*1| = {lhs:.6f} = U2(1) = {bound:.6f}")
