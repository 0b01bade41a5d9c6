"""Splitting a subset of the cube along a subspace whose translates look flat.

A random set needs no subspace at all (it is already Fourier-flat); a set
built from a few affine conditions gets those conditions back, one refinement
round per worst character of an irregular translate, with every translate
perfectly regular in the end.
"""

import numpy as np

from structrand import arithmetic_regularize, character

rng = np.random.default_rng(3)
n = 10

print("-- random set at density 1/2 --")
dense = (rng.random(1 << n) < 0.5).astype(float)
report = arithmetic_regularize(dense, n, 0.25)
print("constraints:", report.constraints)
print("codimension:", report.codimension)
for entry in report.entries:
    print(
        f"  translate of {entry.representative}: density {entry.density:.4f}, "
        f"worst character bias {entry.max_bias:.4f}, regular={entry.regular}"
    )
print("irregular count exceeds budget?", not report.success)

print("\n-- intersection of two affine conditions --")
# density 1/4; the indicator is a combination of four characters with
# coefficients 1/4, so eps must be below 1/4 before a round adds one
structured = ((character(n, 5) > 0) & (character(n, 96) > 0)).astype(float)
report = arithmetic_regularize(structured, n, 0.1)
print("constraints:", report.constraints)
print("cosets:")
for entry in report.entries:
    print(
        f"  rep {entry.representative:4d}: density {entry.density:.2f}, "
        f"bias {entry.max_bias:.2e}"
    )

print("\n-- JSON certificate --")
blob = report.to_json()
print({k: blob[k] for k in ("codimension", "irregular_count", "success")})
for r in blob["rounds"]:
    print(
        f"  round at codimension {r['codimension']}: {r['irregular']} irregular, "
        f"index energy {r['index_energy']:.4f}"
    )
