"""Walk through the three decomposition flavours on cube functions.

A function made of a few characters plus noise gets split into a structured
part (few atoms, bounded coefficients), a pseudorandom part (small correlation
with every character), and -- in the staged variant -- a small error term.
"""

import numpy as np

from structrand import (
    GrowthFunction,
    character,
    character_atoms,
    inner_product,
    norm,
    orthogonal_weak_decompose,
    strong_decompose,
    weak_decompose,
)

rng = np.random.default_rng(0)
n = 8

# signal: two characters; noise: small iid dust
f = 0.55 * character(n, 37) - 0.35 * character(n, 130)
f = f + 0.02 * rng.standard_normal(1 << n)
f = f / max(norm(f), 1.0)
atoms = character_atoms(n)

print("input norm          ", norm(f))
print("pseudorandomness    ", atoms.scan(f).lower)

print("\n-- greedy split at eps = 0.2 --")
dec = weak_decompose(f, atoms, 0.2)
print("iterations          ", dec.iterations, "of allowed", dec.complexity_m)
print("atoms               ", [(k, round(c, 3)) for k, c in dec.atoms])
print("residual correlation", dec.pseudo_found)
print("reconstruction error", norm(f - dec.reconstruct()))

print("\n-- projection split at eps = 0.2 --")
orth = orthogonal_weak_decompose(f, atoms, 0.2)
print("<f_str, f_psd>      ", inner_product(orth.f_str, orth.f_psd))
print(
    "pythagoras gap      ",
    abs(norm(f) ** 2 - norm(orth.f_str) ** 2 - norm(orth.f_psd) ** 2),
)

print("\n-- staged split: arbitrary pseudorandomness via a growth function --")
for growth in (GrowthFunction.linear(2), GrowthFunction.exponential(2)):
    dec = strong_decompose(f, atoms, 0.2, growth)
    print(
        f"{growth.name:10s} stages={len(dec.stages)} M={dec.growth_m} "
        f"atoms={len(dec.atoms)} rest flat at {dec.pseudo_found:.2e} "
        f"(promised {dec.pseudorandomness_eps:.2e}) error {norm(dec.f_err):.3f} <= 0.2"
    )
