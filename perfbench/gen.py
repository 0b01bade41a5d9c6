"""Seeded input generators with planted structure.

Every generator takes a ``numpy.random.Generator`` and returns the generated
object together with the parameters that describe it, so a run record can say
exactly what each op was fed.  Nothing here imports the package under test:
the program only ever sees these objects as files (see ``write_input``).
"""

from __future__ import annotations

import json

import numpy as np


def popcount_parity(x: np.ndarray) -> np.ndarray:
    """Parity of the set bits of a non-negative integer array (0 or 1)."""
    return (np.bitwise_count(np.asarray(x, dtype=np.uint64)) & 1).astype(np.int64)


def character_values(n: int, xi: int) -> np.ndarray:
    """(-1)^{x . xi} for every x in F_2^n."""
    x = np.arange(1 << n, dtype=np.uint64)
    return 1.0 - 2.0 * popcount_parity(x & np.uint64(xi))


# --- functions on the cube ---------------------------------------------------


def uniform_cube(rng, n: int):
    """Uniform values in [-1, 1]."""
    return rng.uniform(-1.0, 1.0, 1 << n), {"kind": "uniform", "n": n}


def pm_one_cube(rng, n: int):
    """Independent fair +-1 values."""
    return np.where(rng.random(1 << n) < 0.5, -1.0, 1.0), {"kind": "pm1", "n": n}


def sparse_spectrum(rng, n: int, k: int, noise: float = 0.0):
    """k distinct non-trivial characters with random signs and magnitudes
    0.6 * 2^(-j/2), plus ``noise`` times uniform [-1, 1] values.

    The spread of magnitudes makes a staged split find new characters at
    several thresholds instead of stopping at the first; every magnitude sits
    at least 20% away from the nearest power of two, where the thresholds of
    the linear-2 and exp-2 growth presets lie, so noise does not move a
    character from one stage to the next and the work per input stays fixed.
    The total energy stays below 1, so the command does not rescale f."""
    support = rng.choice(np.arange(1, 1 << n), size=k, replace=False)
    weights = 0.6 * 2.0 ** (-np.arange(k) / 2) * np.where(rng.random(k) < 0.5, -1.0, 1.0)
    f = np.zeros(1 << n)
    for xi, w in zip(support, weights):
        f += w * character_values(n, int(xi))
    if noise:
        f += noise * rng.uniform(-1.0, 1.0, 1 << n)
    params = {"kind": "sparse-spectrum", "n": n, "k": k, "noise": noise,
              "support": [int(s) for s in support]}
    return f, params


def random_monomials(rng, n: int, degree: int, terms: int) -> list:
    """``terms`` distinct monomials of degree 1..degree, at least one of top degree."""
    monos = set()
    while len(monos) < terms:
        size = degree if not monos else int(rng.integers(1, degree + 1))
        monos.add(tuple(sorted(int(v) for v in rng.choice(n, size=size, replace=False))))
    return sorted(monos, key=lambda m: (len(m), m))


def polynomial_bits(n: int, monomials) -> np.ndarray:
    """Truth table of the F_2 polynomial with the given monomials."""
    x = np.arange(1 << n, dtype=np.int64)
    bits = np.zeros(1 << n, dtype=np.int64)
    for mono in monomials:
        term = np.ones(1 << n, dtype=np.int64)
        for v in mono:
            term &= (x >> int(v)) & 1
        bits ^= term
    return bits


def polynomial_code(rng, n: int, degree: int, terms: int, flip: float = 0.0):
    """(-1)^P for a random P of the given degree, with round(flip * 2^n)
    positions negated (an exact count, so the planted correlation is fixed)."""
    monos = random_monomials(rng, n, degree, terms)
    f = 1.0 - 2.0 * polynomial_bits(n, monos).astype(float)
    flips = int(round(flip * (1 << n)))
    if flips:
        f[rng.choice(1 << n, size=flips, replace=False)] *= -1.0
    params = {"kind": "poly-code", "n": n, "degree": degree, "flip": flip,
              "flips": flips, "monomials": [list(m) for m in monos]}
    return f, params


# --- subsets of the cube ---------------------------------------------------------


def random_subset(rng, n: int, density: float):
    points = np.flatnonzero(rng.random(1 << n) < density)
    return points, {"kind": "random-subset", "n": n, "density": density}


def planted_subspace(rng, n: int, codim: int):
    """The kernel of ``codim`` random independent constraints (a subspace of
    codimension ``codim``), as a sorted point list."""
    rows = []
    basis = []
    while len(rows) < codim:
        r = int(rng.integers(1, 1 << n))
        m = r
        for b in basis:
            m = min(m, m ^ b)
        if m:
            basis.append(m)
            basis.sort(reverse=True)
            rows.append(r)
    x = np.arange(1 << n, dtype=np.uint64)
    inside = np.ones(1 << n, dtype=bool)
    for r in rows:
        inside &= popcount_parity(x & np.uint64(r)) == 0
    return np.flatnonzero(inside), {"kind": "planted-subspace", "n": n,
                                    "codim": codim, "constraints": rows}


# --- graphs -----------------------------------------------------------------


def _symmetric(upper: np.ndarray) -> np.ndarray:
    g = np.triu(upper, 1).astype(float)
    return g + g.T


def gnp(rng, n: int, p: float):
    return _symmetric(rng.random((n, n)) < p), {"kind": "gnp", "n": n, "p": p}


def sbm(rng, n: int, k: int, p_in: float, p_out: float):
    """k equal blocks on a random vertex labelling (so blocks are not index
    ranges); edge probability p_in inside a block and p_out across."""
    block = rng.permutation(np.arange(n) % k)
    same = block[:, None] == block[None, :]
    probs = np.where(same, p_in, p_out)
    g = _symmetric(rng.random((n, n)) < probs)
    return g, {"kind": "sbm", "n": n, "k": k, "p_in": p_in, "p_out": p_out}


# --- files --------------------------------------------------------------------


def write_input(path, kind: str, obj) -> None:
    """Write ``obj`` in the program's input format: a JSON vector, a JSON point
    list, or a 'u v' edge list."""
    with open(path, "w") as fh:
        if kind == "vector":
            values = [float(v) for v in obj]
            json.dump({"domain_size": len(values), "values": values}, fh)
        elif kind == "subset":
            json.dump([int(p) for p in obj], fh)
        elif kind == "graph":
            rows, cols = np.nonzero(np.triu(obj, 1))
            fh.writelines(f"{u} {v}\n" for u, v in zip(rows.tolist(), cols.tolist()))
        else:
            raise ValueError(f"unknown input kind {kind!r}")


def edge_list_graph(g: np.ndarray) -> np.ndarray:
    """The graph as the program reads it back from an edge list: vertices past
    the largest endpoint are dropped."""
    rows, cols = np.nonzero(np.triu(g, 1))
    n = 1 + int(max(rows.max(initial=-1), cols.max(initial=-1)))
    return g[:n, :n]
