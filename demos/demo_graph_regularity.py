"""Regular partitions of graphs, strong and weak.

The equitable-partition route chops the vertex set along the cells carved out
by the structured cut atoms and certifies pair regularity; the weak route
just accumulates a few cut atoms until the rest correlates with nothing.
"""

import numpy as np

from structrand import gnp_random_graph, norm, szemeredi_regularize, weak_regularize
from structrand.io import partition_to_dot

rng = np.random.default_rng(4)

print("-- equitable partition of G(128, 1/2) --")
g = gnp_random_graph(128, 0.5, rng)
part = szemeredi_regularize(g, 0.25, 4, mode="sampled", seed=0)
print("parts:", part.num_parts, "of size", len(part.parts[0]))
print("exceptional vertices:", len(part.exceptional))
print("structured cells:", part.decomposition["cells"])
for (i, j), rec in sorted(part.pair_records.items()):
    print(f"  V{i + 1}-V{j + 1}: density {rec.density:.3f} [{rec.status}, {rec.mode}]")
print("irregular pairs:", part.irregular_count, "allowed:", 0.25 * part.num_parts**2)

print("\n-- the reduced cluster graph in DOT --")
print(partition_to_dot(part))

print("-- a graph that IS structure: complete bipartite --")
n = 32
bip = np.zeros((n, n))
bip[: n // 2, n // 2 :] = 1
bip[n // 2 :, : n // 2] = 1
part = szemeredi_regularize(bip, 0.3, 2, mode="exact", seed=0)
sides = [
    "left" if set(p) <= set(range(n // 2)) else "right" for p in part.parts
]
print("parts stay inside the bipartition sides:", sides)
print("pair densities:", sorted({round(r.density, 3) for r in part.pair_records.values()}))

print("\n-- weak regularity: a few cuts and a flat remainder --")
g64 = gnp_random_graph(64, 0.5, rng)
atoms, residual, scan = weak_regularize(g64, 0.25, seed=1)
print("atoms used:", len(atoms), "(allowed 16)")
for atom, coeff in atoms:
    print(f"  coefficient {coeff:+.3f} on a {atom.a.sum()}x{atom.b.sum()} block")
print("residual norm:", norm(residual))
print(
    "best cut correlation of the residual:",
    scan.lower,
    "(definitive)" if scan.exact else "(heuristic search)",
)
