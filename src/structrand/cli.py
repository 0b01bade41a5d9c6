"""Command-line driver: generate or load inputs, run a check, emit a report.

Every subcommand writes a deterministic JSON report (or a CSV statistics
table with --format csv): all randomness flows from --seed through per-command
stream labels, and timing goes to stderr so reruns with one config are
byte-identical.  Exit codes: 0 success, 2 precondition failure, 3 certificate
violation, 4 budget exhaustion.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import functools
import io as _stdio
import json
import logging
import math
import re
import sys
import time

import numpy as np

from . import __version__
from .arithreg import arithmetic_regularize, indicator_from_set
from .cube import MAX_CUBE_N, F2Polynomial, character_atoms, cube_dim, reed_muller_atoms, walsh_hadamard
from .errors import BudgetExceededError, CertificateError, PreconditionError
from .factors import (
    FiniteProbabilitySpace,
    dyadic_interval_family,
    sparse_decompose,
)
from .gowers import MAX_D, _u2_power_by_shifts, gowers_norm, gowers_norm_u2_fft
from .graphs import MAX_GRAPH_N, CutAtomSet, gnp_random_graph, szemeredi_regularize, weak_regularize
from .hilbert import GrowthFunction, norm, orthogonal_weak_decompose, strong_decompose, weak_decompose
from .inverse import inverse_99, inverse_100
from .io import load_adjacency_binary, load_edge_list, load_subset, load_vector_binary, load_vector_json, partition_to_dot

log = logging.getLogger("structrand")

# input kind -> generator -> key -> (integer?, low, high, default); a bound may
# name another key, and a default of None is computed where the key is used
CUBE_N = (True, 0, math.inf, 8)
GENERATORS = {
    "cube": {
        "random": {"n": CUBE_N},
        "random-pm1": {"n": CUBE_N},
        "constant": {"n": CUBE_N, "value": (False, -math.inf, math.inf, 1.0)},
        "planted-code": {
            "n": CUBE_N,
            "degree": (True, 1, "n", 1),
            "flip": (False, 0.0, 1.0, 0.01),
            "terms": (True, 0, math.inf, None),
        },
    },
    "subset": {"subset": {"n": (True, 0, math.inf, 10), "density": (False, 0.0, 1.0, 0.5)}},
    "graph": {
        "gnp": {"n": (True, 1, math.inf, 64), "p": (False, 0.0, 1.0, 0.5)},
        "complete": {"n": (True, 1, math.inf, 64)},
        "bipartite": {"n": (True, 1, math.inf, 64)},
    },
    "sparse": {
        "sparse": {
            "N": (True, 2, math.inf, 4096),
            "density": (False, 0.0, 1.0, None),
            "relative": (False, 0.0, 1.0, 0.5),
        },
    },
}


def parse_gen(spec: str, kind: str) -> dict:
    """A 'name:key=val,key=val' description of a generator of the given input
    kind, checked against GENERATORS and completed with its defaults."""
    name, _, rest = spec.partition(":")
    if name not in GENERATORS[kind]:
        raise PreconditionError(
            f"unknown {kind} generator {name!r} in {spec!r}; use {' | '.join(GENERATORS[kind])}"
        )
    keys = GENERATORS[kind][name]
    params = {}
    for item in rest.split(",") if rest else ():
        key, _, val = item.partition("=")
        try:
            params[key] = float(val)
        except ValueError:
            raise PreconditionError(
                f"generator parameter {item!r} in {spec!r} is not key=number"
            ) from None
        if key not in keys:
            raise PreconditionError(f"{name} takes the keys {', '.join(keys)}, not {key!r}")
    params = {key: d for key, (_, _, _, d) in keys.items() if d is not None} | params
    for key, value in params.items():
        integer, low, high, _ = keys[key]
        high = params[high] if isinstance(high, str) else high
        if not (math.isfinite(value) and low <= value <= high) or (
            integer and not float(value).is_integer()
        ):
            what = "an integer" if integer else "a number"
            raise PreconditionError(f"{name}: {key} must be {what} in [{low}, {high}]")
        if integer:
            params[key] = int(value)
    # refused before any input is allocated; the sparse cap is the cube's 2^n cells
    key, cap, what = {
        "graph": ("n", MAX_GRAPH_N, "graph"),
        "sparse": ("N", 1 << MAX_CUBE_N, "sparse"),
    }.get(kind, ("n", MAX_CUBE_N, "cube"))
    if params[key] > cap:
        raise BudgetExceededError(f"{key} = {params[key]} exceeds the {what} cap {cap}")
    params["name"] = name
    return params


def parse_growth(text: str, eps: float) -> GrowthFunction:
    if text == "arith-reg":
        return GrowthFunction.arithmetic_regularity(eps)
    kind, _, value = text.partition("-")
    if kind not in ("exp", "linear"):
        raise PreconditionError(f"unknown growth preset {text!r}")
    try:
        value = float(value or 2)
    except ValueError:
        raise PreconditionError(f"growth preset {text!r} needs a number after '-'") from None
    if kind == "exp":
        return GrowthFunction.exponential(value)
    return GrowthFunction.linear(value)


def make_cube_function(args, rng) -> np.ndarray:
    if args.input is not None:
        if args.input.endswith(".bin"):
            return load_vector_binary(args.input)
        return load_vector_json(args.input)
    params = parse_gen(args.gen, "cube")
    n = params["n"]
    if params["name"] == "random":
        return rng.uniform(-1.0, 1.0, 1 << n)
    if params["name"] == "random-pm1":
        return np.where(rng.random(1 << n) < 0.5, -1.0, 1.0)
    if params["name"] == "constant":
        return np.full(1 << n, params["value"])
    degree, flip = params["degree"], params["flip"]  # planted-code
    monos = []
    variables = list(range(n))
    count = params.get("terms", max(1, n // 3))
    for _ in range(count):
        size = int(rng.integers(1, degree + 1))
        mono = tuple(sorted(rng.choice(variables, size=size, replace=False)))
        monos.append(mono)
    poly = F2Polynomial.from_monomials(n, monos)
    noise = np.where(rng.random(1 << n) < flip, -1.0, 1.0)
    return poly.code() * noise


def make_graph(args, rng) -> np.ndarray:
    if args.input is not None:
        if args.input.endswith(".bin"):
            return load_adjacency_binary(args.input)
        return load_edge_list(args.input)[1]
    params = parse_gen(args.gen, "graph")
    n = params["n"]
    if params["name"] == "gnp":
        return gnp_random_graph(n, params["p"], rng)
    if params["name"] == "complete":
        g = np.ones((n, n))
        np.fill_diagonal(g, 0.0)
        return g
    half = n // 2  # bipartite
    g = np.zeros((n, n))
    g[:half, half:] = 1.0
    g[half:, :half] = 1.0
    return g


# --- subcommands -------------------------------------------------------------


def cmd_gowers(args, rng) -> tuple[dict, list]:
    f = make_cube_function(args, rng)
    n = cube_dim(f)
    d = args.d
    if not 1 <= d <= MAX_D:
        raise PreconditionError(f"--d must lie in 1..{MAX_D}, got {d}")
    norms = [gowers_norm(f, k) for k in range(1, d + 1)]
    u2_fft = gowers_norm_u2_fft(f) if d >= 2 else None
    sup = float(np.max(np.abs(f)))
    chain_ok = all(norms[i] <= norms[i + 1] + 1e-9 for i in range(len(norms) - 1))
    chain_ok = chain_ok and norms[-1] <= sup + 1e-9
    # both transform-side values against the shift side E_h (E_x f f_h)^2
    u2_shifts = _u2_power_by_shifts(f) ** 0.25 if d >= 2 else None
    fft_ok = d < 2 or max(abs(norms[1] - u2_shifts), abs(u2_fft - u2_shifts)) <= 1e-9
    if not (chain_ok and fft_ok):
        raise CertificateError("uniformity-norm identities failed")
    payload = {
        "n": n,
        "norms": {f"U{k}": norms[k - 1] for k in range(1, d + 1)},
        "u2_via_transform": u2_fft,
        "sup_norm": sup,
        "monotone_chain_ok": chain_ok,
        "transform_identity_ok": fft_ok,
    }
    rows = [["d", "norm"]] + [[k, norms[k - 1]] for k in range(1, d + 1)]
    return payload, rows


def cmd_decompose(args, rng) -> tuple[dict, list]:
    eps = args.eps
    if args.variant not in ("weak", "orthogonal", "strong"):
        raise PreconditionError(f"unknown variant {args.variant!r}: weak | orthogonal | strong")
    if args.variant != "strong" and args.growth is not None:
        raise PreconditionError(f"--growth applies to --variant strong, not {args.variant}")
    if args.atoms == "cuts":
        f = make_graph(args, rng)
        atom_set = CutAtomSet(f.shape[0], seed=args.seed)
    else:
        f = make_cube_function(args, rng)
        nf = norm(f)
        if nf > 1:
            f = f / nf
        reed_muller = re.fullmatch(r"reed-muller(?:-([0-9]+))?", args.atoms)
        if reed_muller:
            atom_set = reed_muller_atoms(cube_dim(f), int(reed_muller.group(1) or 1))
        elif args.atoms == "characters":
            atom_set = character_atoms(cube_dim(f))
        else:
            raise PreconditionError(f"unknown atom family {args.atoms!r}")
    growth_name = None
    if args.variant == "weak":
        dec = weak_decompose(f, atom_set, eps)
    elif args.variant == "orthogonal":
        dec = orthogonal_weak_decompose(f, atom_set, eps)
    else:
        args.growth = args.growth or "arith-reg"  # the preset used, echoed in config
        growth = parse_growth(args.growth, eps)
        growth_name = growth.name
        dec = strong_decompose(f, atom_set, eps, growth)
    dec.verify(f, atom_set)
    payload = {
        "eps": eps,
        "variant": args.variant,
        "atom_family": atom_set.name,
        "growth": growth_name,
    }
    payload.update(dec.to_json_dict(atom_set))
    rows = [["iteration", "atom", "coefficient"]]
    rows += [[i, json.dumps(atom_set.key_json(k)), c] for i, (k, c) in enumerate(dec.atoms)]
    return payload, rows


def cmd_arith_reg(args, rng) -> tuple[dict, list]:
    eps = args.eps
    if args.input is not None:
        if args.n is None:
            raise PreconditionError("--n is required with --input for arith-reg")
        if args.n < 0:
            raise PreconditionError(f"--n must be non-negative, got {args.n}")
        if args.n > MAX_CUBE_N:
            raise BudgetExceededError(f"n = {args.n} exceeds the cube cap {MAX_CUBE_N}")
        n = args.n
        f = indicator_from_set(n, load_subset(args.input, n))
    else:
        if args.n is not None:
            raise PreconditionError("--n goes with --input; a --gen spec carries its own n")
        params = parse_gen(args.gen, "subset")
        n = params["n"]
        f = (rng.random(1 << n) < params["density"]).astype(float)
    report = arithmetic_regularize(f, n, eps)
    payload = report.to_json()
    rows = [["coset", "representative", "size", "density", "max_bias", "regular"]]
    rows += [
        [i, e.representative, e.size, e.density, e.max_bias, e.regular]
        for i, e in enumerate(report.entries)
    ]
    return payload, rows


def cmd_graph_reg(args, rng) -> tuple[dict, list]:
    eps = args.eps
    g = make_graph(args, rng)
    part = szemeredi_regularize(g, eps, args.m, mode=args.mode, seed=args.seed)
    if not part.meets_contract:
        raise CertificateError(
            f"{part.irregular_count} irregular pairs exceed eps * m'^2"
        )
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(partition_to_dot(part))
    payload = part.to_json()
    rows = [["i", "j", "density", "status", "mode"]]
    rows += [
        [i, j, rec.density, rec.status, rec.mode]
        for (i, j), rec in sorted(part.pair_records.items())
    ]
    return payload, rows


def cmd_weak_reg(args, rng) -> tuple[dict, list]:
    eps = args.eps
    g = make_graph(args, rng)
    atoms, residual, scan = weak_regularize(g, eps, seed=args.seed)
    if len(atoms) > math.floor(1 / eps**2 + 1e-9):
        raise CertificateError("atom count exceeds 1/eps^2")
    payload = {
        "eps": eps,
        "n": g.shape[0],
        "atoms": [{"atom": a.to_json(), "coefficient": c} for a, c in atoms],
        "residual_norm": norm(residual),
        "residual_cut_correlation": scan.lower,
        "residual_bound": scan.upper,
        "certificate_exact": scan.exact,
    }
    rows = [["index", "A", "B", "coefficient"]]
    rows += [[i, *map(json.dumps, a.to_json().values()), c] for i, (a, c) in enumerate(atoms)]
    return payload, rows


def cmd_inverse(args, rng) -> tuple[dict, list]:
    f = make_cube_function(args, rng)
    d = args.d
    delta = args.delta
    payload = {"d": d, "n": cube_dim(f)}
    if delta in (None, 0, 0.0):
        poly = inverse_100(f, d)
        payload["variant"] = "exact"
        payload["recovered"] = poly.to_json() if poly else None
        rows = [["variant", "recovered"], ["exact", str(poly) if poly else ""]]
    else:
        rec = inverse_99(f, d, delta)
        payload["variant"] = "noisy"
        payload["delta"] = delta
        payload["recovered"] = rec.to_json() if rec else None
        rows = [["variant", "recovered", "correlation"]]
        rows += [["noisy", str(rec.poly) if rec else "", rec.correlation if rec else ""]]
        if rec is not None and rec.correlation < 1 - delta - 1e-9:
            raise CertificateError("recovered correlation below 1 - delta")
    return payload, rows


def cmd_sparse_demo(args, rng) -> tuple[dict, list]:
    params = parse_gen(args.gen, "sparse")
    n_points = params["N"]
    eps = args.eps
    eta = args.eta
    log_n = math.log(n_points)
    density = params.get("density", 1.0 / log_n)
    rel = params["relative"]
    majorant_set = rng.random(n_points) < density
    subset = majorant_set & (rng.random(n_points) < rel)
    nu = log_n * majorant_set.astype(float)
    f = log_n * subset.astype(float)
    space = FiniteProbabilitySpace.uniform(n_points)
    family = dyadic_interval_family(n_points, n_points // 4)
    growth = GrowthFunction.linear(2, offset=1)
    dec = sparse_decompose(space, f, nu, family, eps, growth, eta=eta)
    dec.verify(space, f, family)
    payload = {
        "N": n_points,
        "eps": eps,
        "eta": eta,
        "density": density,
        "majorant_mean": space.integral(nu),
        "f_mean": space.integral(f),
        "f_str_min": float(dec.f_str.min()),
        "f_str_max": float(dec.f_str.max()),
        "mean_preserved_error": abs(space.integral(dec.f_str) - space.integral(f)),
    }
    payload.update(dec.to_json_dict())
    rows = [["stage", "M", "threshold", "joins", "energy_gain"]]
    rows += [[s["stage"], s["M"], s["threshold"], s["joins"], s["energy_gain"]] for s in dec.stages]
    return payload, rows


# command -> (handler, rng stream label, default --gen, {option: default}).
# Every command also takes --gen, --seed, --out and --format, and all but
# sparse-demo take --input; an option a command does not list is a usage error.
COMMANDS = {
    "gowers": (cmd_gowers, 101, "random:n=8", {"d": 3}),
    "decompose": (
        cmd_decompose,
        102,
        "random:n=8",
        {"eps": 0.25, "variant": "strong", "atoms": "characters", "growth": None},
    ),
    "arith-reg": (cmd_arith_reg, 103, "subset:n=10,density=0.5", {"eps": 0.25, "n": None}),
    "graph-reg": (
        cmd_graph_reg,
        104,
        "gnp:n=128,p=0.5",
        {"eps": 0.25, "m": 2, "mode": "sampled", "dot": None},
    ),
    "weak-reg": (cmd_weak_reg, 105, "gnp:n=64,p=0.5", {"eps": 0.25}),
    "inverse": (cmd_inverse, 106, "planted-code:n=10,degree=1,flip=0.01", {"d": 2, "delta": None}),
    "sparse-demo": (cmd_sparse_demo, 107, "sparse:N=4096", {"eps": 0.3, "eta": 0.2}),
}

OPTIONS = {
    "eps": (float, "accuracy, in (0, 1]"),
    "d": (int, "uniformity norm order"),
    "delta": (float, "noise level of the 99%% inverse; exact inverse when omitted"),
    "eta": (float, "majorant slack"),
    "m": (int, "requested part count"),
    "n": (int, "cube dimension of an --input subset"),
    "growth": (str, "strong variant only: arith-reg (default) | exp-B | linear-C"),
    "mode": (str, "regularity check mode: exact | sampled | alternating"),
    "variant": (str, "weak | orthogonal | strong"),
    "atoms": (str, "characters | reed-muller-K | cuts"),
    "dot": (str, "write the reduced cluster graph here"),
}

REPORT_SCHEMA_VERSION = 3

# glibc mallopt parameters and the values main sets: blocks below 32 MiB (the
# largest mmap threshold glibc accepts on 64-bit) come from the heap, and the
# heap top goes back to the system only once 256 MiB of it lies free
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD_BYTES = 32 << 20
TRIM_THRESHOLD_BYTES = 256 << 20


@functools.cache  # once per process
def keep_freed_memory() -> None:
    """Have the C library's malloc keep freed memory for the next arrays.

    A command allocates and frees many arrays of 8 bytes per point (8 MB at
    a million points).  Under glibc's own rule each such block is mapped
    afresh or, once the thresholds have risen to the largest block freed,
    the heap top is trimmed whenever twice that lies free, so the next
    command in the process faults the same pages in again; what those faults
    cost (numpy asks for huge pages on large arrays) moves with the
    machine's load.  Nothing is set where the C library has no mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES)


@functools.cache  # built once per process; parse_args keeps no state between calls
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="structrand",
        description="structure-vs-randomness decompositions and their certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, gen, options) in COMMANDS.items():
        p = sub.add_parser(name, allow_abbrev=False)
        source = p.add_mutually_exclusive_group()
        if name != "sparse-demo":
            source.add_argument("--input", help="input file (JSON or .bin vector, edge list, subset)")
        source.add_argument("--gen", help=f"generator spec (default {gen})")
        p.add_argument("--seed", type=int, default=0, help="64-bit experiment seed")
        for option, default in options.items():
            kind, text = OPTIONS[option]
            p.add_argument(f"--{option}", type=kind, default=default, help=text)
        p.add_argument("--out", default=None, help="output path (stdout when omitted)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
    return parser


def run(args) -> str:
    handler, label, gen, options = COMMANDS[args.command]
    if args.gen is None and vars(args).get("input") is None:
        args.gen = gen
    if args.seed < 0:
        raise PreconditionError(f"--seed must be non-negative, got {args.seed}")
    if "eps" in options and not 0 < args.eps <= 1:
        raise PreconditionError(f"--eps must lie in (0, 1], got {args.eps}")
    if "m" in options and args.m < 1:
        raise PreconditionError(f"--m must be at least 1, got {args.m}")
    payload, rows = handler(args, np.random.default_rng([int(args.seed), label]))
    if args.format == "csv":
        buf = _stdio.StringIO()
        writer = csv.writer(buf)
        writer.writerows(rows)
        return buf.getvalue()
    config = {k: v for k, v in vars(args).items() if k not in ("command", "out", "format")}
    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "command": args.command,
        "config": config,
        "seed": args.seed,
        "versions": {"structrand": __version__},
        "payload": payload,
    }
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def main(argv=None) -> int:
    keep_freed_memory()
    logging.basicConfig(level=logging.INFO, stream=sys.stderr, format="%(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        text = run(args)
    except (PreconditionError, FileNotFoundError) as exc:
        print(f"precondition failure: {exc}", file=sys.stderr)
        return 2
    except CertificateError as exc:
        print(f"certificate violation: {exc}", file=sys.stderr)
        return 3
    except BudgetExceededError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 4
    elapsed = time.monotonic() - started
    print(f"{args.command}: {elapsed:.3f}s", file=sys.stderr)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
