"""Independent brute-force oracles the tests check the library against.

Everything here is written from the definitions with plain Python loops and
fsum, deliberately sharing no code with the package internals.
"""

import math
from itertools import product

import numpy as np


def naive_inner(f, g):
    return math.fsum(float(a) * float(b) for a, b in zip(f, g)) / len(f)


def naive_walsh_hadamard(f):
    n = len(f).bit_length() - 1
    out = []
    for xi in range(1 << n):
        total = math.fsum(
            float(f[x]) * (-1) ** bin(x & xi).count("1") for x in range(1 << n)
        )
        out.append(total / (1 << n))
    return np.array(out)


def naive_gowers_power(f, d):
    """E over all affine maps of the product over the d-cube vertices."""
    size = len(f)
    total = 0.0
    count = 0
    for x in range(size):
        for hs in product(range(size), repeat=d):
            prod = 1.0
            for subset in range(1 << d):
                point = x
                for j in range(d):
                    if (subset >> j) & 1:
                        point ^= hs[j]
                prod *= float(f[point])
            total += prod
            count += 1
    return total / count


def naive_gowers_norm(f, d):
    return max(naive_gowers_power(f, d), 0.0) ** (1.0 / (1 << d))


def u_power_direct(f, d):
    """||f||_{U^d}^(2^d) straight from the parallelepiped average.

    The literal reference the Gowers engine is held to.  Vectorizes over as
    many shift axes as fit in a 2^20 grid and loops the rest, so the full
    (x, h_1..h_d) average is evaluated literally.
    """
    size = f.size
    if d == 1:
        m = float(f.mean())
        return m * m
    n = size.bit_length() - 1
    inner = max(1, min(d, 20 // max(n, 1) - 1))
    outer_count = d - inner
    grids = []
    for a in range(inner):
        shape = [1] * (inner + 1)
        shape[a] = size
        grids.append(np.arange(size).reshape(shape))
    grid_x = np.arange(size).reshape([1] * inner + [size])
    total = 0.0
    for outer in np.ndindex(*([size] * outer_count)):
        acc = np.ones((size,) * (inner + 1))
        for vertex in range(1 << d):
            offset = 0
            for j in range(outer_count):
                if (vertex >> j) & 1:
                    offset ^= outer[j]
            idx = grid_x ^ offset
            for a in range(inner):
                if (vertex >> (outer_count + a)) & 1:
                    idx = idx ^ grids[a]
            acc = acc * f[idx]
        total += float(acc.mean())
    return total / size**outer_count


def naive_dual(f, d):
    size = len(f)
    out = np.zeros(size)
    for x in range(size):
        total = 0.0
        for hs in product(range(size), repeat=d):
            prod = 1.0
            for subset in range(1, 1 << d):
                point = x
                for j in range(d):
                    if (subset >> j) & 1:
                        point ^= hs[j]
                prod *= float(f[point])
            total += prod
        out[x] = total / size**d
    return out


def naive_coset_bias(f, members, density):
    """Max |E_{x in coset} (f(x) - density) e_xi(x)| over all characters."""
    n = len(f).bit_length() - 1
    best = 0.0
    for xi in range(1 << n):
        total = math.fsum(
            (float(f[x]) - density) * (-1) ** bin(x & xi).count("1") for x in members
        )
        best = max(best, abs(total) / len(members))
    return best


def naive_trilinear(f, g, h, t1, t2):
    """E_{x,r} f(x) g(x + T1 r) h(x + T2 r), one shift r at a time.

    T1 and T2 are n x n 0/1 matrices acting on bit masks: bit i of T r is
    the parity of sum_j T[i][j] r_j.
    """
    size = len(f)
    n = size.bit_length() - 1
    x = np.arange(size)

    def apply(t, r):
        return sum(
            (sum(int(t[i][j]) * ((r >> j) & 1) for j in range(n)) % 2) << i for i in range(n)
        )

    total = math.fsum(
        float(np.dot(f, g[x ^ apply(t1, r)] * h[x ^ apply(t2, r)])) for r in range(size)
    )
    return total / (size * size)


def count_edges(g, rows, cols):
    return math.fsum(float(g[u][v]) for u in rows for v in cols)


def naive_regular_pair(g, rows, cols, eps):
    """Definitive eps-regularity by enumerating every admissible subset pair.

    Only usable for tiny parts.  Returns (verdict, worst_pair_or_None).
    """
    rows = list(rows)
    cols = list(cols)
    delta = count_edges(g, rows, cols) / (len(rows) * len(cols))
    worst = None
    for ra in range(1, 1 << len(rows)):
        sub_r = [rows[i] for i in range(len(rows)) if (ra >> i) & 1]
        if len(sub_r) < eps * len(rows):
            continue
        for cb in range(1, 1 << len(cols)):
            sub_c = [cols[i] for i in range(len(cols)) if (cb >> i) & 1]
            if len(sub_c) < eps * len(cols):
                continue
            e = count_edges(g, sub_r, sub_c)
            dev = abs(e - delta * len(sub_r) * len(sub_c))
            if dev > eps * len(sub_r) * len(sub_c) + 1e-9:
                if worst is None or dev > worst[2]:
                    worst = (tuple(sub_r), tuple(sub_c), dev)
    return ("irregular" if worst else "regular"), worst


def naive_exact_search(g, rows, cols, eps):
    """The exact pair search with one full sort per sign of the deviation.

    For every row subset A' of at least ceil(eps |rows|) rows the columns are
    scored by t = e(A', {w}) - delta |A'|, less eps |A'| (or the negation of
    t + eps |A'| for the other sign), sorted in descending order and summed
    as prefixes of at least ceil(eps |cols|) columns.  The first sign whose
    best prefix exceeds 1e-9 gives the witness: the subset with the largest
    best (lowest mask on ties), with its columns from naive_greedy_side.
    Returns (status, witness rows, witness cols, checked), the witness in
    ascending vertex order, or None for both on a regular pair.
    """
    rows, cols = list(rows), list(cols)
    k = len(rows)
    block = np.array([[float(g[u][v]) for v in cols] for u in rows])
    delta = block.mean()
    m_a = max(1, math.ceil(eps * k - 1e-12))
    m_b = max(1, math.ceil(eps * len(cols) - 1e-12))
    masks = np.array([[(a >> i) & 1 for i in range(k)] for a in range(1 << k)], dtype=float)
    sizes = masks.sum(axis=1)
    t = masks @ block - delta * sizes[:, None]
    slack = eps * sizes[:, None]
    admissible = sizes >= m_a
    checked = 0
    for side in (1, -1):
        scores = t - slack if side > 0 else -(t + slack)
        prefix = np.cumsum(-np.sort(-scores, axis=1), axis=1)
        best = np.max(prefix[:, m_b - 1 :], axis=1)
        best[~admissible] = -np.inf
        checked += int(admissible.sum())
        violating = np.flatnonzero(best > 1e-9)
        if violating.size:
            mask = int(violating[np.argmax(best[violating])])
            sub_r = [i for i in range(k) if (mask >> i) & 1]
            sub_c = naive_greedy_side(side * t[mask], eps * len(sub_r), m_b)
            wit_r = sorted(rows[i] for i in sub_r)
            return "irregular", wit_r, sorted(cols[j] for j in sub_c), checked
    return "regular", None, None, checked


def naive_best_cut(f):
    """Exhaustive max |<f, 1_{AxB}>| over all subset pairs (tiny n only)."""
    n = f.shape[0]
    best = 0.0
    for amask in range(1, 1 << n):
        a = [i for i in range(n) if (amask >> i) & 1]
        for bmask in range(1, 1 << n):
            b = [i for i in range(n) if (bmask >> i) & 1]
            ip = abs(count_edges(f, a, b)) / (n * n)
            best = max(best, ip)
    return best


def naive_ranked_candidates(atoms, f, eps, limit):
    """(index, <f, atom>) for the atoms correlating with f at eps - 1e-9 or
    more (and above 1e-12), strongest first, lowest index on ties, at most
    ``limit`` of them; correlations are direct sums."""
    floor = max(eps - 1e-9, 1e-12)
    corr = [(i, naive_inner(f, atom)) for i, atom in enumerate(atoms)]
    kept = [(i, c) for i, c in corr if abs(c) >= floor]
    kept.sort(key=lambda pair: (-abs(pair[1]), pair[0]))
    return kept[:limit]


def naive_canonical_labels(labels):
    """Each label's rank among the distinct labels in sorted order; labels are
    plain Python values (numbers, or tuples of numbers for a join)."""
    rank = {value: i for i, value in enumerate(sorted(set(labels)))}
    return [rank[value] for value in labels]


def naive_conditional_expectation(weights, f, labels):
    out = np.zeros(len(f))
    for atom in set(int(a) for a in labels):
        members = [i for i in range(len(f)) if labels[i] == atom]
        mass = math.fsum(weights[i] for i in members)
        if mass <= 0:
            continue
        avg = math.fsum(weights[i] * f[i] for i in members) / mass
        for i in members:
            out[i] = avg
    return out


def naive_vote_tallies(kept, bits, xis):
    """Majority-vote tallies of the noisy inverse by polling every pair.

    For each k, over the ordered pairs (a, b) of kept shifts with a ^ b = k:
    counts[k] is the number of pairs and ones[k] the number whose vote
    bits[a] ^ bits[b] ^ <xis[b], a> is 1.
    """
    size = len(kept)
    counts = [0] * size
    ones = [0] * size
    for k in range(size):
        for a in range(size):
            b = a ^ k
            if kept[a] and kept[b]:
                counts[k] += 1
                ones[k] += int(bits[a]) ^ int(bits[b]) ^ (bin(int(xis[b]) & a).count("1") & 1)
    return counts, ones


def naive_staged_split(atoms, f, eps, growth):
    """Stage records of the staged projection split, by plain loops.

    Stage i works at threshold 1/W_i, W_i = ceil(growth(M_{i-1})), M_0 = 1,
    M_i = W_i.  It takes the residual left by the stages before it and
    repeatedly adds the atom correlating most with what the stage has not
    yet explained (lowest index on ties), as long as that correlation is at
    least the threshold; the stage's structured part is the least-squares
    fit of the residual by its atoms, from their Gram system.  The first
    stage removing at most eps^2 of energy ends the run.  Each record holds
    the stage's atom indices, their coefficients, its energy drop, and the
    smallest gap between the best and the second-best correlation seen.
    """
    atoms = [[float(v) for v in row] for row in atoms]
    residual = [float(v) for v in f]
    m_prev, stages = 1, []
    while True:
        threshold = 1.0 / math.ceil(growth(m_prev) - 1e-9)
        chosen, coeffs, left, gap = [], [], residual, math.inf
        while True:
            corr = sorted(((abs(naive_inner(left, a)), -i) for i, a in enumerate(atoms)),
                          reverse=True)
            gap = min(gap, corr[0][0] - corr[1][0])
            if corr[0][0] < threshold - 1e-9:
                break
            chosen.append(-corr[0][1])
            gram = [[naive_inner(atoms[i], atoms[j]) for j in chosen] for i in chosen]
            rhs = [naive_inner(residual, atoms[i]) for i in chosen]
            coeffs = [float(c) for c in np.linalg.solve(gram, rhs)]
            left = [
                residual[x] - math.fsum(c * atoms[i][x] for c, i in zip(coeffs, chosen))
                for x in range(len(residual))
            ]
        drop = naive_inner(residual, residual) - naive_inner(left, left)
        stages.append({"atoms": chosen, "coefficients": coeffs, "energy_drop": drop, "gap": gap})
        if drop <= eps * eps + 1e-12:
            return stages
        residual, m_prev = left, math.ceil(growth(m_prev) - 1e-9)


def naive_staged_factor_split(weights, members, f, eps, growth):
    """Stage records and final pseudorandomness of the staged factor split,
    by plain loops over naive_conditional_expectation.

    Stage i works at threshold 1/W_i, W_i = ceil(growth(M_{i-1})), M_0 = 1,
    M_i = W_i^2.  It repeatedly joins onto the factor the member (a label
    list) that f - E(f | factor) projects onto furthest (lowest index on
    ties), while that projection norm exceeds the threshold by 1e-9.  The
    first stage gaining at most eps^2 of energy ends the run.  Needs two or
    more members.  Returns (records, found): each record holds the stage's
    member indices, its energy gain and the smallest lead of a joined member
    over the runner-up projection; found is the largest projection of
    f - E(f | final factor) onto a member.
    """
    def l2(g):
        return math.sqrt(math.fsum(w * v * v for w, v in zip(weights, g)))

    def project(g, labels):
        return naive_conditional_expectation(weights, g, labels)

    def projections(labels):
        residual = [float(a) - float(b) for a, b in zip(f, project(f, labels))]
        return [l2(project(residual, member)) for member in members]

    labels, m_prev, stages = [0] * len(f), 1, []
    while True:
        width = math.ceil(growth(m_prev) - 1e-9)
        energy_before = l2(project(f, labels)) ** 2
        chosen, gap = [], math.inf
        while True:
            levels = projections(labels)
            order = sorted(range(len(members)), key=lambda i: (-levels[i], i))
            if levels[order[0]] <= 1.0 / width + 1e-9:
                break
            gap = min(gap, levels[order[0]] - levels[order[1]])
            chosen.append(order[0])
            ids = {}
            pairs = zip(labels, members[order[0]])
            labels = [ids.setdefault((int(a), int(b)), len(ids)) for a, b in pairs]
        gain = l2(project(f, labels)) ** 2 - energy_before
        stages.append({"members": chosen, "energy_gain": gain, "gap": gap})
        if gain <= eps * eps + 1e-12:
            return stages, max(levels)
        m_prev = width * width


def cut_rounding_bound(f):
    """How far two summation orders of one cut value <f, 1_{AxB}> (before
    division by n^2) may differ: (n^2 + 2n) 2^-53 max|f|, times n^2."""
    n = f.shape[0]
    return (n * n + 2 * n) * 2.0**-53 * float(np.max(np.abs(f))) * n * n


def naive_best_sides(sums, tol):
    """(value, mask) of the better sign for a vector of column (or row) sums:
    all positive entries if they outweigh the negative ones, else all
    negative entries; the two sums tie when their magnitudes lie within tol,
    and a tie takes the positive entries."""
    pos, neg = sums > 0, sums < 0
    vplus, vminus = float(sums[pos].sum()), float(sums[neg].sum())
    return (vplus, pos) if vplus >= -vminus - tol else (vminus, neg)


def naive_cut_pool(f, seed, starts, sweeps):
    """The heuristic cut search one start at a time: ((A, B), <f, 1_{AxB}>)
    for each distinct pair the starts end on, strongest first, earlier start
    first on ties.

    The starts are V and then ``starts`` draws of rng.random(n) < 0.5 (empty
    ones skipped).  Each sweep takes the best B for the current A, then the
    best A for that B, and stops, keeping A, once the value no longer grows
    by more than ``cut_rounding_bound(f)``; at most ``sweeps`` sweeps.  Sides
    are chosen with the same bound.  Values are one n^2-term dot of the outer
    product with f.
    """
    n = f.shape[0]
    tol = cut_rounding_bound(f)
    rng = np.random.default_rng(seed)
    draws = [np.ones(n, dtype=bool)] + [rng.random(n) < 0.5 for _ in range(starts)]
    found = {}
    for a_bool in draws:
        if not a_bool.any():
            continue
        prev = 0.0
        for _ in range(sweeps):
            b_bool = naive_best_sides(a_bool.astype(float) @ f, tol)[1]
            value, a_new = naive_best_sides(f @ b_bool.astype(float), tol)
            if abs(value) <= abs(prev) + tol:
                break
            a_bool, prev = a_new, value
        b_bool = naive_best_sides(a_bool.astype(float) @ f, tol)[1]
        if not a_bool.any() or not b_bool.any():
            continue
        key = (tuple(np.flatnonzero(a_bool).tolist()), tuple(np.flatnonzero(b_bool).tolist()))
        if key not in found:
            found[key] = float(np.outer(a_bool, b_bool).astype(float).ravel() @ f.ravel() / f.size)
    return sorted(found.items(), key=lambda kv: -abs(kv[1]))


def naive_atom_cells(n, sides):
    """(cell id per vertex, signature per cell) from (A, B) index sets: the
    signature of v lists (v in A_i, v in B_i) for every i, and cells are
    numbered in order of their first vertex."""
    cells, ids = {}, []
    for v in range(n):
        signature = tuple((int(v in a), int(v in b)) for a, b in sides)
        ids.append(cells.setdefault(signature, len(cells)))
    return ids, list(cells)


def naive_greedy_side(values, slack, minimum):
    """Indices, in descending order of values - slack, of the shortest prefix
    of at least max(1, minimum) of them with the largest sum of
    values - slack, the sum kept as a running total."""
    order = np.argsort(-(values - slack))
    best_val, best_k = -math.inf, max(1, minimum)
    running = 0.0
    for rank, j in enumerate(order, start=1):
        running += values[j] - slack
        if rank >= max(1, minimum) and running > best_val:
            best_val, best_k = running, rank
    return order[:best_k]


class EdgeListRefused(Exception):
    """naive_edge_list refuses the file: ``budget`` marks the graph cap, and
    ``detail`` is the text the refusal names ("line 3 ", "edge (0, 9)
    outside", or "" when it names neither)."""

    def __init__(self, budget, detail=""):
        super().__init__(detail)
        self.budget, self.detail = budget, detail


def naive_edge_list(path, n=None, cap=4096):
    """(n, adjacency matrix) from a 'u v' edge list, one line at a time.

    Lines are read as UTF-8 with universal newlines and stripped; blank lines
    and lines starting with '#' are skipped, every other line must be two
    decimal fields that int() converts.  n defaults to the largest index
    plus one; n past ``cap`` is refused before any edge is checked, an edge
    outside 0..n-1 is refused, and self-loops are dropped.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = list(fh)
    except UnicodeDecodeError:
        raise EdgeListRefused(False) from None
    edges = []
    for number, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2 or not all(x.isdecimal() for x in fields):
            raise EdgeListRefused(False, f"line {number} ")
        try:
            edges.append((int(fields[0]), int(fields[1])))
        except ValueError:  # past int()'s digit limit
            raise EdgeListRefused(False, f"line {number} ") from None
    if n is None:
        n = 1 + max((max(u, v) for u, v in edges), default=-1)
    if n < 1:
        raise EdgeListRefused(False)
    if n > cap:
        raise EdgeListRefused(True)
    g = np.zeros((n, n))
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise EdgeListRefused(False, f"edge ({u}, {v}) outside")
        if u != v:
            g[u, v] = g[v, u] = 1.0
    return n, g


HEX_DIGITS = "0123456789abcdef"


def naive_subset_to_hex(points, n):
    """The hex bit mask of a set of points (bit x set for point x), one hex
    digit of four bits at a time from the lowest; "0" for the empty set."""
    members = set(points)
    digits = [
        HEX_DIGITS[sum(1 << b for b in range(4) if 4 * d + b in members)]
        for d in range(((1 << n) + 3) // 4)
    ]
    return "".join(reversed(digits)).lstrip("0") or "0"


def naive_hex_to_subset(text):
    """The sorted points of a hex bit mask, one digit at a time from the lowest."""
    points = []
    for d, char in enumerate(reversed(text.strip().lower())):
        value = HEX_DIGITS.index(char)
        points += [4 * d + b for b in range(4) if (value >> b) & 1]
    return sorted(points)
