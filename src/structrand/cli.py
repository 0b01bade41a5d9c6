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
import io as _stdio
import json
import logging
import math
import sys
import time

import numpy as np

from . import __version__
from .arithreg import arithmetic_regularize, coset_bias, coset_ids
from .cube import F2Polynomial, character_atoms, cube_dim, walsh_hadamard
from .errors import BudgetExceededError, CertificateError, PreconditionError
from .factors import (
    FiniteProbabilitySpace,
    dyadic_interval_family,
    sparse_decompose,
)
from .gowers import MAX_D, _u2_power_by_shifts, gowers_norm, gowers_norm_u2_fft
from .graphs import CutAtomSet, szemeredi_regularize, weak_regularize
from .hilbert import GrowthFunction, norm, orthogonal_weak_decompose, strong_decompose, weak_decompose
from .inverse import inverse_99, inverse_100
from .io import load_adjacency_binary, load_edge_list, load_subset, load_vector_binary, load_vector_json, partition_to_dot

log = logging.getLogger("structrand")

STREAM_LABELS = {
    "gowers": 101,
    "decompose": 102,
    "arith-reg": 103,
    "graph-reg": 104,
    "weak-reg": 105,
    "inverse": 106,
    "sparse-demo": 107,
}


def rng_for(seed: int, command: str):
    return np.random.default_rng([int(seed), STREAM_LABELS[command]])


def parse_gen(spec: str) -> dict:
    """'name:key=val,key=val' generator descriptions."""
    name, _, rest = spec.partition(":")
    params = {}
    if rest:
        for item in rest.split(","):
            key, _, val = item.partition("=")
            try:
                params[key] = int(val)
            except ValueError:
                try:
                    params[key] = float(val)
                except ValueError:
                    raise PreconditionError(
                        f"generator parameter {item!r} in {spec!r} is not key=number"
                    ) from None
    params["name"] = name
    return params


def parse_growth(text: str, eps: float) -> GrowthFunction:
    if text in (None, "", "arith-reg"):
        return GrowthFunction.arithmetic_regularity(eps)
    kind, _, value = text.partition("-")
    if kind == "exp":
        return GrowthFunction.exponential(float(value or 2))
    if kind == "linear":
        return GrowthFunction.linear(float(value or 2))
    raise PreconditionError(f"unknown growth preset {text!r}")


def make_cube_function(args, rng) -> np.ndarray:
    if args.input:
        if args.input.endswith(".bin"):
            return load_vector_binary(args.input)
        return load_vector_json(args.input)
    params = parse_gen(args.gen)
    n = int(params.get("n", 8))
    if params["name"] == "random":
        return rng.uniform(-1.0, 1.0, 1 << n)
    if params["name"] == "random-pm1":
        return np.where(rng.random(1 << n) < 0.5, -1.0, 1.0)
    if params["name"] == "constant":
        return np.full(1 << n, float(params.get("value", 1.0)))
    if params["name"] == "planted-code":
        degree = int(params.get("degree", 1))
        flip = float(params.get("flip", 0.01))
        monos = []
        variables = list(range(n))
        count = int(params.get("terms", max(1, n // 3)))
        for _ in range(count):
            size = int(rng.integers(1, degree + 1))
            mono = tuple(sorted(rng.choice(variables, size=size, replace=False)))
            monos.append(mono)
        poly = F2Polynomial.from_monomials(n, monos)
        noise = np.where(rng.random(1 << n) < flip, -1.0, 1.0)
        values = poly.code() * noise
        return values
    raise PreconditionError(f"unknown cube generator {params['name']!r}")


def make_graph(args, rng) -> np.ndarray:
    if args.input:
        if args.input.endswith(".bin"):
            return load_adjacency_binary(args.input)
        return load_edge_list(args.input)[1]
    params = parse_gen(args.gen)
    n = int(params.get("n", 64))
    if params["name"] == "gnp":
        from .graphs import gnp_random_graph

        return gnp_random_graph(n, float(params.get("p", 0.5)), rng)
    if params["name"] == "complete":
        g = np.ones((n, n))
        np.fill_diagonal(g, 0.0)
        return g
    if params["name"] == "bipartite":
        half = n // 2
        g = np.zeros((n, n))
        g[:half, half:] = 1.0
        g[half:, :half] = 1.0
        return g
    raise PreconditionError(f"unknown graph generator {params['name']!r}")


# --- subcommands -------------------------------------------------------------


def cmd_gowers(args) -> tuple[dict, list]:
    rng = rng_for(args.seed, "gowers")
    f = make_cube_function(args, rng)
    n = cube_dim(f)
    d = 3 if args.d is None else args.d
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


def cmd_decompose(args) -> tuple[dict, list]:
    rng = rng_for(args.seed, "decompose")
    eps = args.eps or 0.25
    if args.atoms == "cuts":
        f = make_graph(args, rng)
        atom_set = CutAtomSet(f.shape[0], seed=args.seed)
    else:
        f = make_cube_function(args, rng)
        nf = norm(f)
        if nf > 1:
            f = f / nf
        if args.atoms.startswith("reed-muller"):
            from .cube import reed_muller_atoms

            degree = int(args.atoms.rsplit("-", 1)[1]) if args.atoms[-1].isdigit() else 1
            atom_set = reed_muller_atoms(cube_dim(f), degree)
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


def cmd_arith_reg(args) -> tuple[dict, list]:
    rng = rng_for(args.seed, "arith-reg")
    eps = args.eps or 0.25
    if args.input:
        if args.n is None:
            raise PreconditionError("--n is required with --input for arith-reg")
        n = args.n
        points = load_subset(args.input, n)
        f = np.zeros(1 << n)
        f[points] = 1.0
    else:
        params = parse_gen(args.gen or "subset:n=10,density=0.5")
        n = int(params.get("n", 10))
        f = (rng.random(1 << n) < float(params.get("density", 0.5))).astype(float)
    report = arithmetic_regularize(f, n, eps)
    # re-verify every regular verdict with a fresh per-coset transform
    ids = coset_ids(n, report.constraints)
    for cid, entry in enumerate(report.entries):
        mask = ids == cid
        centered = np.where(mask, f - entry.density, 0.0)
        bias = coset_bias(centered, int(mask.sum()))
        if abs(bias - entry.max_bias) > 1e-9:
            raise CertificateError("per-coset bias re-check failed")
    if not report.success:
        raise CertificateError(
            f"{report.irregular_count} irregular cosets exceed the budget "
            f"{eps * 2 ** report.codimension}"
        )
    payload = report.to_json()
    rows = [["coset", "representative", "size", "density", "max_bias", "regular"]]
    rows += [
        [i, e.representative, e.size, e.density, e.max_bias, e.regular]
        for i, e in enumerate(report.entries)
    ]
    return payload, rows


def cmd_graph_reg(args) -> tuple[dict, list]:
    rng = rng_for(args.seed, "graph-reg")
    eps = args.eps or 0.25
    g = make_graph(args, rng)
    part = szemeredi_regularize(
        g, eps, args.m or 2, mode=args.mode or "sampled", seed=args.seed
    )
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


def cmd_weak_reg(args) -> tuple[dict, list]:
    rng = rng_for(args.seed, "weak-reg")
    eps = args.eps or 0.25
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
    rows += [[i, json.dumps(sorted(a.a)), json.dumps(sorted(a.b)), c] for i, (a, c) in enumerate(atoms)]
    return payload, rows


def cmd_inverse(args) -> tuple[dict, list]:
    rng = rng_for(args.seed, "inverse")
    f = make_cube_function(args, rng)
    d = 2 if args.d is None else args.d
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


def cmd_sparse_demo(args) -> tuple[dict, list]:
    rng = rng_for(args.seed, "sparse-demo")
    params = parse_gen(args.gen or "sparse:N=4096")
    n_points = int(params.get("N", 4096))
    eps = args.eps or 0.3
    eta = args.eta
    log_n = math.log(n_points)
    density = float(params.get("density", 1.0 / log_n))
    rel = float(params.get("relative", 0.5))
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


COMMANDS = {
    "gowers": cmd_gowers,
    "decompose": cmd_decompose,
    "arith-reg": cmd_arith_reg,
    "graph-reg": cmd_graph_reg,
    "weak-reg": cmd_weak_reg,
    "inverse": cmd_inverse,
    "sparse-demo": cmd_sparse_demo,
}

REPORT_SCHEMA_VERSION = 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="structrand",
        description="structure-vs-randomness decompositions and their certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        source = p.add_mutually_exclusive_group()
        source.add_argument("--input", help="input file (JSON or .bin vector, edge list, subset)")
        source.add_argument("--gen", help="generator spec, e.g. random:n=8 or gnp:n=64,p=0.5")
        p.add_argument("--seed", type=int, default=0, help="64-bit experiment seed")
        p.add_argument("--eps", type=float, default=None)
        p.add_argument("--d", type=int, default=None)
        p.add_argument("--delta", type=float, default=None)
        p.add_argument("--eta", type=float, default=0.2)
        p.add_argument("--m", type=int, default=None, help="requested part count")
        p.add_argument("--n", type=int, default=None, help="cube dimension for subset inputs")
        p.add_argument("--growth", default=None, help="arith-reg | exp-B | linear-C")
        p.add_argument(
            "--mode", default=None, help="regularity check mode: exact | sampled | alternating"
        )
        p.add_argument("--variant", default="strong", help="decompose: weak | orthogonal | strong")
        p.add_argument("--atoms", default="characters", help="decompose: characters | reed-muller-K | cuts")
        p.add_argument("--dot", default=None, help="write the reduced cluster graph here")
        p.add_argument("--out", default=None, help="output path (stdout when omitted)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
    return parser


def run(args) -> str:
    if args.gen is None and args.input is None:
        defaults = {
            "gowers": "random:n=8",
            "decompose": "random:n=8",
            "arith-reg": "subset:n=10,density=0.5",
            "graph-reg": "gnp:n=128,p=0.5",
            "weak-reg": "gnp:n=64,p=0.5",
            "inverse": "planted-code:n=10,degree=1,flip=0.01",
            "sparse-demo": "sparse:N=4096",
        }
        args.gen = defaults[args.command]
    payload, rows = COMMANDS[args.command](args)
    if args.format == "csv":
        buf = _stdio.StringIO()
        writer = csv.writer(buf)
        writer.writerows(rows)
        return buf.getvalue()
    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "command": args.command,
        "config": {
            "gen": args.gen,
            "input": args.input,
            "seed": args.seed,
            "eps": args.eps,
            "d": args.d,
            "delta": args.delta,
            "eta": args.eta,
            "m": args.m,
            "growth": args.growth,
            "mode": args.mode,
            "variant": args.variant,
            "atoms": args.atoms,
        },
        "seed": args.seed,
        "versions": {"structrand": __version__},
        "payload": payload,
    }
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def main(argv=None) -> int:
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
