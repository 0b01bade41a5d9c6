"""The benchmark's workloads: fixed op lists, cycled in order.

Each op is one ``structrand`` CLI invocation.  Ops that read files get a fresh
generated input every time they run; ``sparse-demo`` has no ``--input`` and
gets ``--gen`` plus a derived seed instead.  Three ops exit 3 on the current
code (arith-reg on the planted subspace, graph-reg alternating and exact on
the block models); they stay in and count as failures.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import gen


@dataclass(frozen=True)
class Op:
    name: str
    command: str
    argv: tuple
    make: object = None  # rng -> (object, params); None when the op takes --gen
    kind: str | None = None  # input file format, see gen.write_input
    gen_spec: str | None = None


SBM = dict(k=4, p_in=0.7, p_out=0.3)

CUBE_UNIFORMITY = (
    Op("gowers-u3-n8", "gowers", ("--d", "3"), partial(gen.uniform_cube, n=8), "vector"),
    Op("gowers-u4-n6", "gowers", ("--d", "4"), partial(gen.uniform_cube, n=6), "vector"),
    Op("gowers-u2-n12", "gowers", ("--d", "2"), partial(gen.pm_one_cube, n=12), "vector"),
    Op("inverse99-d2-n12", "inverse", ("--d", "2", "--delta", "0.1"),
       partial(gen.polynomial_code, n=12, degree=1, terms=4, flip=0.02), "vector"),
    Op("inverse99-d3-n8", "inverse", ("--d", "3", "--delta", "0.05"),
       partial(gen.polynomial_code, n=8, degree=2, terms=3, flip=0.005), "vector"),
    Op("inverse100-d3-n8", "inverse", ("--d", "3"),
       partial(gen.polynomial_code, n=8, degree=2, terms=3), "vector"),
)

GRAPH_REGULARITY = (
    Op("graph-reg-gnp128", "graph-reg", ("--m", "4"), partial(gen.gnp, n=128, p=0.5), "graph"),
    Op("graph-reg-sbm256", "graph-reg", (), partial(gen.sbm, n=256, **SBM), "graph"),
    Op("graph-reg-alt-sbm256", "graph-reg", ("--mode", "alternating"),
       partial(gen.sbm, n=256, **SBM), "graph"),
    Op("graph-reg-exact-sbm128", "graph-reg", ("--mode", "exact", "--eps", "0.1", "--m", "8"),
       partial(gen.sbm, n=128, **SBM), "graph"),
    Op("weak-reg-sbm256", "weak-reg", ("--eps", "0.2"), partial(gen.sbm, n=256, **SBM), "graph"),
    Op("weak-reg-exact-n12", "weak-reg", ("--eps", "0.1"),
       partial(gen.sbm, n=12, k=2, p_in=0.8, p_out=0.2), "graph"),
    Op("decompose-cuts-sbm128", "decompose",
       ("--atoms", "cuts", "--growth", "linear-2", "--eps", "0.25"),
       partial(gen.sbm, n=128, **SBM), "graph"),
)

ENERGY_INCREMENT = (
    Op("decompose-spectrum24-n16", "decompose",
       ("--variant", "strong", "--growth", "linear-2", "--eps", "0.15"),
       partial(gen.sparse_spectrum, n=16, k=24), "vector"),
    Op("decompose-noisy8-n8", "decompose", ("--variant", "strong", "--growth", "exp-2"),
       partial(gen.sparse_spectrum, n=8, k=8, noise=0.3), "vector"),
    Op("decompose-orth-rm2-n5", "decompose",
       ("--variant", "orthogonal", "--atoms", "reed-muller-2"),
       partial(gen.polynomial_code, n=5, degree=2, terms=3, flip=0.1), "vector"),
    Op("arith-reg-random-n16", "arith-reg", ("--eps", "0.1", "--n", "16"),
       partial(gen.random_subset, n=16, density=0.5), "subset"),
    Op("arith-reg-subspace-n16", "arith-reg", ("--eps", "0.1", "--n", "16"),
       partial(gen.planted_subspace, n=16, codim=3), "subset"),
    Op("sparse-demo-2e20", "sparse-demo", (), gen_spec="sparse:N=1048576"),
    Op("sparse-demo-2e18", "sparse-demo", (), gen_spec="sparse:N=262144"),
)

WORKLOADS = {
    "cube-uniformity": CUBE_UNIFORMITY,
    "graph-regularity": GRAPH_REGULARITY,
    "energy-increment": ENERGY_INCREMENT,
}
