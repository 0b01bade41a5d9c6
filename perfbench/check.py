"""Output checks written from the definitions, sharing no code with the package.

``check_report(op, inp, report)`` returns a list of problems; an empty list
means the report is consistent with the input the benchmark generated.  Only
numpy is used, so a defect in the package's own transforms or loaders cannot
make a wrong report pass.
"""

from __future__ import annotations

import math

import numpy as np

from gen import character_values, edge_list_graph, polynomial_bits, popcount_parity

TOL = 1e-9
NORM_TOL = 1e-7  # rebuilt vectors: sums of many atoms in another order


def wht(f) -> np.ndarray:
    """Normalized Walsh-Hadamard transform along the last axis."""
    v = np.array(f, dtype=float)
    size = v.shape[-1]
    lead = v.shape[:-1]
    h = 1
    while h < size:
        v = v.reshape(*lead, size // (2 * h), 2, h)
        a, b = v[..., 0, :], v[..., 1, :]
        v = np.stack((a + b, a - b), axis=-2)
        h *= 2
    return v.reshape(*lead, size) / size


def gowers_power(f, d: int) -> float:
    """||f||_{U^d}^{2^d}: d - 2 multiplicative derivatives over every shift,
    then the U^2 identity sum of fhat^4 on each derivative."""
    f = np.asarray(f, dtype=float)
    if d == 1:
        return float(f.mean()) ** 2
    x = np.arange(f.size)
    g = f[None, :]
    for _ in range(d - 2):
        g = (g[:, None, :] * g[:, x[:, None] ^ x[None, :]]).reshape(-1, f.size)
    return float(np.mean(np.sum(wht(g) ** 4, axis=-1)))


def mean_norm(v) -> float:
    return math.sqrt(float(np.mean(np.square(v))))


def _close(a, b, tol=TOL) -> bool:
    return abs(float(a) - float(b)) <= tol


# --- per-command checks ----------------------------------------------------------


def check_gowers(op, f, payload) -> list:
    problems = []
    d = len(payload["norms"])
    norms = [payload["norms"][f"U{k}"] for k in range(1, d + 1)]
    for k, reported in enumerate(norms, start=1):
        expected = max(gowers_power(f, k), 0.0) ** (1.0 / (1 << k))
        if not _close(reported, expected, NORM_TOL):
            problems.append(f"U{k} = {reported}, recomputed {expected}")
    if d >= 2:
        u2 = float(np.sum(wht(f) ** 4)) ** 0.25
        if not _close(payload["u2_via_transform"], u2):
            problems.append(f"u2_via_transform {payload['u2_via_transform']} != {u2}")
    if not _close(payload["sup_norm"], float(np.max(np.abs(f))), 0.0):
        problems.append("sup_norm differs from max |f|")
    return problems


def _atom_vector(family: str, key, shape) -> np.ndarray:
    if family.startswith("characters"):
        return character_values(shape[0].bit_length() - 1, int(key))
    if family.startswith("reed-muller"):
        return 1.0 - 2.0 * polynomial_bits(key["n"], key["monomials"]).astype(float)
    if family.startswith("cut-products"):
        va = np.zeros(shape[0])
        vb = np.zeros(shape[1])
        va[key["A"]] = 1.0
        vb[key["B"]] = 1.0
        return np.outer(va, vb)
    raise ValueError(f"unknown atom family {family!r}")


def check_decompose(op, f, payload) -> list:
    problems = []
    f = np.asarray(f, dtype=float)
    if f.ndim == 1 and mean_norm(f) > 1:
        f = f / mean_norm(f)  # the command rescales cube inputs to unit norm
    f_str = np.zeros_like(f)
    for entry in payload["atoms"]:
        f_str += entry["coefficient"] * _atom_vector(payload["atom_family"], entry["atom"], f.shape)
    if not _close(mean_norm(f_str), payload["norm_str"], NORM_TOL):
        problems.append(f"rebuilt ||f_str|| {mean_norm(f_str)} != {payload['norm_str']}")
    # f - f_str = f_psd + f_err with f_err orthogonal to f_psd (f_err = 0 unless strong)
    rest = mean_norm(f - f_str) ** 2
    claimed = payload["norm_psd"] ** 2 + payload["norm_err"] ** 2
    if not _close(rest, claimed, NORM_TOL):
        problems.append(f"||f - f_str||^2 = {rest}, report says {claimed}")
    if payload["pseudo_found"] > payload["pseudorandomness_eps"] + TOL:
        problems.append("pseudo_found above pseudorandomness_eps")
    if len(payload["atoms"]) > payload["complexity_M"]:
        problems.append("more atoms than complexity_M")
    if payload["norm_err"] > payload["error_norm"] + TOL:
        problems.append("norm_err above the certified error_norm")
    return problems


def check_inverse(op, f, payload) -> list:
    rec = payload["recovered"]
    if rec is None:  # every inverse op gets a planted code inside the theorem's range
        return ["no polynomial recovered from a planted code"]
    poly = rec if payload["variant"] == "exact" else rec["polynomial"]
    if any(len(m) > payload["d"] - 1 for m in poly["monomials"]):
        return [f"recovered polynomial has degree above {payload['d'] - 1}"]
    code = 1.0 - 2.0 * polynomial_bits(poly["n"], poly["monomials"]).astype(float)
    corr = float(np.mean(f * code))
    if payload["variant"] == "exact":
        return [] if np.array_equal(code, f) else ["exact recovery does not reproduce f"]
    problems = []
    if not _close(abs(corr), rec["correlation"], 1e-12):
        problems.append(f"correlation {rec['correlation']}, recomputed {abs(corr)}")
    if rec["sign"] != (1 if corr >= 0 else -1):
        problems.append("sign disagrees with the recomputed correlation")
    if abs(corr) < 1 - payload["delta"] - TOL:
        problems.append("correlation below 1 - delta")
    return problems


def check_arith_reg(op, points, payload) -> list:
    problems = []
    n, eps = payload["n"], payload["eps"]
    f = np.zeros(1 << n)
    f[np.asarray(points, dtype=np.int64)] = 1.0
    x = np.arange(1 << n, dtype=np.uint64)
    ids = np.zeros(1 << n, dtype=np.int64)
    for i, c in enumerate(payload["constraints"]):
        ids |= popcount_parity(x & np.uint64(c)) << i
    cosets = payload["cosets"]
    if len(cosets) != 1 << len(payload["constraints"]):
        return ["coset count is not 2^codimension"]
    irregular = 0
    for cid, entry in enumerate(cosets):
        mask = ids == cid
        size = int(mask.sum())
        density = float(f[mask].mean())
        bias = float(np.max(np.abs(wht(np.where(mask, f - density, 0.0))))) * f.size / size
        if entry["size"] != size or not _close(entry["density"], density):
            problems.append(f"coset {cid}: size/density {entry['size']}/{entry['density']}, "
                            f"recounted {size}/{density}")
        if entry["representative"] != int(np.flatnonzero(mask)[0]):
            problems.append(f"coset {cid}: representative is not its first point")
        if not _close(entry["max_bias"], bias):
            problems.append(f"coset {cid}: max_bias {entry['max_bias']}, recomputed {bias}")
        if entry["regular"] != (bias <= eps + TOL):
            problems.append(f"coset {cid}: regular flag disagrees with its bias")
        irregular += not entry["regular"]
    if payload["irregular_count"] != irregular:
        problems.append("irregular_count disagrees with the coset flags")
    if payload["success"] and irregular > eps * len(cosets) + TOL:
        problems.append("success claimed with too many irregular cosets")
    return problems


def check_graph_reg(op, g, payload) -> list:
    problems = []
    g = edge_list_graph(g)
    eps = payload["eps"]
    parts = payload["parts"]
    seen = [v for p in parts for v in p] + list(payload["exceptional"])
    if sorted(seen) != list(range(g.shape[0])):
        problems.append("parts and exceptional set do not partition the vertices")
    if len({len(p) for p in parts}) > 1:
        problems.append("parts are not of equal size")
    irregular = 0
    for key, rec in payload["pairs"].items():
        i, j = (int(t) for t in key.split(","))
        rows, cols = parts[i], parts[j]
        density = float(g[np.ix_(rows, cols)].mean())
        if not _close(rec["density"], density, 1e-12):
            problems.append(f"pair {key}: density {rec['density']}, recounted {density}")
        if rec["status"] not in ("regular", "irregular"):
            problems.append(f"pair {key}: status {rec['status']!r}")
        if rec["status"] != "irregular":
            continue
        irregular += 1
        w = rec["witness"]
        if not (set(w["rows"]) <= set(rows) and set(w["cols"]) <= set(cols)):
            problems.append(f"pair {key}: witness leaves the pair")
            continue
        ka, kb = len(w["rows"]), len(w["cols"])
        if ka < math.ceil(eps * len(rows) - 1e-12) or kb < math.ceil(eps * len(cols) - 1e-12):
            problems.append(f"pair {key}: witness sides below eps times the part size")
        edges = float(g[np.ix_(w["rows"], w["cols"])].sum())
        if edges != w["edges"]:
            problems.append(f"pair {key}: witness has {w['edges']} edges, recounted {edges}")
        if abs(edges - density * ka * kb) <= eps * ka * kb + TOL:
            problems.append(f"pair {key}: witness deviation within eps; not a witness")
    if payload["irregular_count"] != irregular:
        problems.append("irregular_count disagrees with the pair verdicts")
    if payload["meets_contract"] and irregular > eps * len(parts) ** 2 + TOL:
        problems.append("meets_contract claimed with too many irregular pairs")
    return problems


def check_weak_reg(op, g, payload) -> list:
    problems = []
    g = edge_list_graph(g)
    n, eps = g.shape[0], payload["eps"]
    if len(payload["atoms"]) > math.floor(1 / eps**2 + 1e-9):
        problems.append("more than 1/eps^2 cut atoms")
    residual = g.copy()
    for entry in payload["atoms"]:
        residual -= entry["coefficient"] * _atom_vector("cut-products", entry["atom"], g.shape)
    if not _close(mean_norm(residual), payload["residual_norm"], NORM_TOL):
        problems.append(f"rebuilt residual norm {mean_norm(residual)} != {payload['residual_norm']}")
    if payload["certificate_exact"]:
        # every side set A, with the best B in closed form from the column sums
        masks = ((np.arange(1 << n)[:, None] >> np.arange(n)[None, :]) & 1).astype(float)
        cols = masks @ residual
        best = float(np.max(np.maximum(np.where(cols > 0, cols, 0).sum(1),
                                        -np.where(cols < 0, cols, 0).sum(1)))) / n**2
        if not _close(best, payload["residual_cut_correlation"], NORM_TOL):
            problems.append(f"residual cut correlation {payload['residual_cut_correlation']}, "
                            f"exhaustive scan {best}")
        if best > eps + TOL:
            problems.append("exact residual correlates above eps with a cut")
    return problems


def check_sparse_demo(op, _inp, payload) -> list:
    problems = []
    if payload["f_str_min"] < -TOL or payload["f_str_max"] > 1 + payload["eta"] + TOL:
        problems.append("f_str escapes [0, 1 + eta]")
    if payload["mean_preserved_error"] > 1e-12:
        problems.append("f_str does not keep the mean of f")
    if payload["pseudo_found"] > payload["pseudorandomness_eps"] + TOL:
        problems.append("pseudo_found above pseudorandomness_eps")
    if payload["complexity"] != sum(s["joins"] for s in payload["stages"][:-1]):
        problems.append("complexity is not the joins before the stopping stage")
    if payload["majorant_linf"] > 1 + payload["eta"] + TOL:
        problems.append("majorant conditional expectation above 1 + eta")
    return problems


CHECKS = {
    "gowers": check_gowers,
    "decompose": check_decompose,
    "inverse": check_inverse,
    "arith-reg": check_arith_reg,
    "graph-reg": check_graph_reg,
    "weak-reg": check_weak_reg,
    "sparse-demo": check_sparse_demo,
}


def check_report(op, inp, report: dict) -> list:
    """Problems found in ``report`` for ``op`` run on input ``inp``."""
    if report.get("command") != op.command:
        return [f"report is for {report.get('command')!r}, not {op.command!r}"]
    try:
        return CHECKS[op.command](op, inp, report["payload"])
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"malformed report: {type(exc).__name__}: {exc}"]
