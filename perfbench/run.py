"""Closed-loop benchmark of the structrand command line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cube-uniformity --seed 1 --seconds 30 --trace 0

One client in one process calls ``structrand.cli.main(argv)`` and starts the
next op only when the previous one has returned.  Workloads (workloads.py)
are fixed op lists cycled in order; every op gets a freshly generated input
(gen.py), handed over as an ``--input`` file, so no input repeats in a run.
Every report is checked against the input by check.py.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs a fixed
number of cycles, each once untraced and once with spans installed
(spans.py), checks that both passes give byte-identical reports, and prints
the per-layer metrics.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  A run record
with every op's generator parameters and exit code is written under
``.bench_work/``.
"""

from __future__ import annotations

import os

# Pinned before numpy loads its BLAS; recorded in the run record.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import check
import gen
import spans
from workloads import WORKLOADS

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SCRIPT = Path(__file__).resolve()

MIN_OPS = 100  # so that at least ten samples lie beyond the p90
SETUP_PROBES = 4  # set-up samples taken in child processes, besides this process
TRACE_CYCLE_SECONDS = 5  # a traced run covers round(--seconds / 5) cycles
REACH_DEADLINE_S = 5.0
REACH_LADDER = {3: range(8, 13), 4: range(6, 9)}
SUBCOMMANDS = ("gowers", "decompose", "arith-reg", "graph-reg", "weak-reg", "inverse",
               "sparse-demo")

# seed-sequence tags keep warm-up, timed and reach inputs apart
TAG_TIMED, TAG_WARM, TAG_REACH = 0, 1, 2

EXTENSIONS = {"vector": "json", "subset": "json", "graph": "txt"}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_cli():
    """Import the CLI from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("structrand.cli")
    if Path(cli.__file__).resolve().parent != (SRC / "structrand").resolve():
        fail(f"imported structrand from {cli.__file__}, not from {SRC}")
    return cli


# --- ops -----------------------------------------------------------------------


def derived_seed(*words) -> int:
    return int(np.random.SeedSequence([int(w) for w in words]).generate_state(1)[0] >> 1)


def prepare(op, index: int, seed: int, tag: int, cycle: int, stem: str = "op"):
    """Generate the op's input, write it, and return (argv, input, params)."""
    # the trailing word keeps the CLI seed apart from the input generator's stream
    argv = [op.command, *op.argv, "--seed", str(derived_seed(seed, tag, cycle, index, 1))]
    if op.make is None:
        return argv + ["--gen", op.gen_spec], None, {"gen": op.gen_spec}
    rng = np.random.default_rng([seed, tag, cycle, index])
    obj, params = op.make(rng)
    path = WORK / f"{stem}{index}.{EXTENSIONS[op.kind]}"
    gen.write_input(path, op.kind, obj)
    return argv + ["--input", str(path.relative_to(ROOT))], obj, params


def call(main, argv, sink):
    """One in-process CLI call: (exit code or error name, stdout text, seconds)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash is a failed op, not the end of the run
            code = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), elapsed


def run_op(main, sink, op, index, seed, cycle, tracer=None) -> dict:
    argv, inp, params = prepare(op, index, seed, TAG_TIMED, cycle)
    span = tracer.open("cli") if tracer else None
    code, text, elapsed = call(main, argv, sink)
    if tracer:
        tracer.close(span)
    problems = []
    if code == 0:
        try:
            problems = check.check_report(op, inp, json.loads(text))
        except json.JSONDecodeError as exc:
            problems = [f"report is not JSON: {exc}"]
    return {
        "op": op.name,
        "command": op.command,
        "cycle": cycle,
        "argv": argv,
        "gen": params,
        "exit": code,
        "seconds": elapsed,
        "report_bytes": len(text.encode()),
        "report_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "problems": problems,
    }


def run_cycles(main, sink, ops, seed, seconds) -> list:
    """Whole cycles through ``ops`` until ``seconds`` of op time and MIN_OPS ops."""
    records, busy, cycle = [], 0.0, 0
    while busy < seconds or len(records) < MIN_OPS:
        for index, op in enumerate(ops):
            records.append(run_op(main, sink, op, index, seed, cycle))
            busy += records[-1]["seconds"]
        cycle += 1
    return records


def traced_cycles(main, sink, ops, seed, cycles):
    """Each cycle runs untraced and then, on the same inputs, with the spans
    installed, so both passes see the same process state; returns
    (untraced records, traced records, tracer)."""
    tracer = spans.Tracer()
    untraced, traced = [], []
    for cycle in range(cycles):
        for index, op in enumerate(ops):
            untraced.append(run_op(main, sink, op, index, seed, cycle))
        undo = spans.install(tracer)
        try:
            for index, op in enumerate(ops):
                tracer.op = len(traced)
                traced.append(run_op(main, sink, op, index, seed, cycle, tracer))
        finally:
            spans.uninstall(undo)
    return untraced, traced, tracer


# --- set-up ------------------------------------------------------------------------


def warm_argvs(ops, seed) -> list:
    """One warm-up op per subcommand: the first op of the list that uses it,
    on an input of its own."""
    argvs, seen = [], set()
    for index, op in enumerate(ops):
        if op.command not in seen:
            seen.add(op.command)
            argvs.append(prepare(op, index, seed, TAG_WARM, 0, stem="warm")[0])
    return argvs


def timed_setup(argvs, sink):
    """Import the package and run each warm-up op once; (cli module, seconds)."""
    start = time.perf_counter()
    cli = import_cli()
    for argv in argvs:
        call(cli.main, argv, sink)
    return cli, time.perf_counter() - start


def probe_setup(path) -> float:
    """Set-up time measured in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, str(SCRIPT), "--setup-probe", str(path)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


# --- reach ladder ---------------------------------------------------------------------


def reach(d: int, seed: int) -> int:
    """Largest n whose ``gowers --d d`` exits 0 in a child process within the
    deadline; the ladder stops at the first rung that fails or is refused."""
    reached = 0
    for n in REACH_LADDER[d]:
        try:
            done = subprocess.run(
                [sys.executable, str(SCRIPT), "--reach-probe", str(d), str(n), str(seed)],
                cwd=ROOT, capture_output=True, timeout=REACH_DEADLINE_S,
            )
        except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped it
            break
        if done.returncode != 0:
            break
        reached = n
    return reached


def reach_probe(d: int, n: int, seed: int) -> int:
    rng = np.random.default_rng([seed, TAG_REACH, d, n])
    path = WORK / f"reach-d{d}-n{n}.json"
    gen.write_input(path, "vector", gen.uniform_cube(rng, n)[0])
    cli = import_cli()
    with open(os.devnull, "w") as sink:
        code, _, _ = call(cli.main, ["gowers", "--d", str(d), "--input", str(path)], sink)
    return code if isinstance(code, int) else 1


# --- metrics ---------------------------------------------------------------------------


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def is_ok(record) -> bool:
    return record["exit"] == 0 and not record["problems"]


def end_to_end(records, setup_samples) -> dict:
    busy = sum(r["seconds"] for r in records)
    latencies = [r["seconds"] for r in records]
    ok = sum(is_ok(r) for r in records)
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "ops_per_s": (ok / busy, "ops/s"),
        "op_p50_s": (percentile(latencies, 50), "s"),
        "op_p90_s": (percentile(latencies, 90), "s"),
        "ok_frac": (ok / len(records), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(untraced, traced, tracer, seed) -> dict:
    """Layer metrics of the traced pass; the reach ladder runs only on a
    workload that loads gowers and reads 0 elsewhere."""
    self_s = spans.self_time_by_name(tracer.spans)
    loads_gowers = any(r["command"] == "gowers" for r in untraced)
    counts = tracer.counts

    def s(name):
        return (self_s.get(name, 0.0), "s")

    def n(name, unit="count"):
        return (counts.get(name, 0), unit)

    def ratio(num, den):
        return (counts[num] / counts[den] if counts.get(den) else 0.0, "ratio")

    out = {
        "cli.self_s": s("cli"),
        "cli.report_bytes": (statistics.mean(r["report_bytes"] for r in traced), "B"),
    }
    for command in SUBCOMMANDS:
        times = [r["seconds"] for r in untraced if r["command"] == command]
        out[f"cli.{command}.p50_s"] = (statistics.median(times) if times else 0.0, "s")
    out.update({
        "io.load_s": s("io.load"),
        "io.load.calls": n("io.load.calls"),
        "io.bytes_read": n("io.bytes_read", "B"),
        "cube.wht.calls": n("cube.wht.calls"),
        "cube.wht.self_s": s("cube.wht"),
        "cube.wht.points": n("cube.wht.points"),
        "cube.char_scan.calls": n("cube.char_scan.calls"),
        "cube.char_scan.self_s": s("cube.char_scan"),
        "cube.rm.self_s": s("cube.rm"),
        "cube.rm.cells": n("cube.rm.cells"),
        "gowers.norm.calls": n("gowers.norm.calls"),
        "gowers.norm.self_s": s("gowers.norm"),
        "gowers.u2_fft.self_s": s("gowers.u2_fft"),
        "gowers.refusals": n("gowers.norm.raised.BudgetExceededError"),
        "gowers.reach_u3_n": (reach(3, seed) if loads_gowers else 0, "n"),
        "gowers.reach_u4_n": (reach(4, seed) if loads_gowers else 0, "n"),
        "inverse.inv99.calls": n("inverse.inv99.calls"),
        "inverse.inv99.self_s": s("inverse.inv99"),
        "inverse.inv100.self_s": s("inverse.inv100"),
        "inverse.recovered_frac": ratio("inverse.recovered", "inverse.calls"),
        "hilbert.strong.self_s": s("hilbert.strong"),
        "hilbert.orth.calls": n("hilbert.orth.calls"),
        "hilbert.orth.self_s": s("hilbert.orth"),
        "hilbert.weak.self_s": s("hilbert.weak"),
        "hilbert.verify_s": s("hilbert.verify"),
        "hilbert.candidates.calls": n("hilbert.candidates.calls"),
        "hilbert.atoms": n("hilbert.atoms"),
        "hilbert.stages": n("hilbert.stages"),
        "hilbert.accept_ratio": ratio("hilbert.atoms", "hilbert.candidates.calls"),
        "graphs.cut_scan.calls": n("graphs.cut_scan.calls"),
        "graphs.cut_scan.self_s": s("graphs.cut_scan"),
        "graphs.cut_scan.exact_frac": ratio("graphs.cut_scan.exact", "graphs.cut_scan.calls"),
        "graphs.pair_check.calls": n("graphs.pair_check.calls"),
        "graphs.pair_check.self_s": s("graphs.pair_check"),
        "graphs.irregular_frac": ratio("graphs.irregular", "graphs.pair_check.calls"),
        "graphs.unrefuted_as_regular": n("graphs.unrefuted"),
        "graphs.partition.self_s": s("graphs.partition"),
        "factors.cond_exp.calls": n("factors.cond_exp.calls"),
        "factors.cond_exp.self_s": s("factors.cond_exp"),
        "factors.cond_exp.points": n("factors.cond_exp.points"),
        "factors.factor.self_s": s("factors.factor"),
        "factors.sparse.self_s": s("factors.sparse"),
        "factors.strong.self_s": s("factors.strong"),
        "factors.joins": n("factors.joins"),
        "factors.verify_s": s("factors.verify"),
        "arithreg.self_s": s("arithreg"),
        "arithreg.codim": ratio("arithreg.codim", "arithreg.calls"),
        "arithreg.cosets": ratio("arithreg.cosets", "arithreg.calls"),
    })
    wall_u = sum(r["seconds"] for r in untraced)
    wall_t = sum(r["seconds"] for r in traced)
    out["trace.overhead_frac"] = (wall_t / wall_u - 1.0, "ratio")
    return out


# --- run record -----------------------------------------------------------------------


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown" when
    the checkout is not a repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_record(args, setup_samples, records) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "load": "closed loop, one client, one process",
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": BLAS_THREADS,
        "git_sha": git_sha(),
        "setup_samples_s": setup_samples,
        "op_samples": len(records),
        "ops": records,
    }


# --- entry ------------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", help=argparse.SUPPRESS)
    parser.add_argument("--reach-probe", nargs=3, type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None and not (args.setup_probe or args.reach_probe):
        parser.error("--workload is required")
    return args


def benchmark(args) -> dict:
    ops = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    warm = warm_argvs(ops, args.seed)
    with open(os.devnull, "w") as sink:
        cli, own_setup = timed_setup(warm, sink)
        setup_json = WORK / "setup.json"
        setup_json.write_text(json.dumps(warm))
        setup_samples = [own_setup] + [probe_setup(setup_json) for _ in range(SETUP_PROBES)]

        if not args.trace:
            records = run_cycles(cli.main, sink, ops, args.seed, args.seconds)
            metrics = end_to_end(records, setup_samples)
            correct = all(not r["problems"] for r in records)
        else:
            records, traced, tracer = traced_cycles(
                cli.main, sink, ops, args.seed, max(1, round(args.seconds / TRACE_CYCLE_SECONDS)))
            tracer.write(WORK / f"spans-{args.workload}.jsonl")
            mismatched = [t["op"] for u, t in zip(records, traced)
                          if u["report_sha256"] != t["report_sha256"]]
            if mismatched:
                print(f"perfbench: traced reports differ from untraced: {mismatched}",
                      file=sys.stderr)
            metrics = per_layer(records, traced, tracer, args.seed)
            correct = not mismatched and all(not r["problems"] for r in records + traced)
            records = records + traced

    record = run_record(args, setup_samples, records)
    (WORK / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    for r in records:
        if r["problems"]:
            print(f"perfbench: {r['op']} cycle {r['cycle']}: {r['problems']}", file=sys.stderr)
    failed = sum(not is_ok(r) for r in records)
    print(f"perfbench: {args.workload} seed {args.seed}: {len(records)} ops, {failed} failed, "
          f"setup samples {[round(s, 3) for s in setup_samples]}", file=sys.stderr)
    return {
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "structrand" / "cli.py").is_file():
        fail(f"no src/structrand/cli.py under {ROOT}; run from the root of a checkout")
    if args.reach_probe:
        return reach_probe(*args.reach_probe)
    if args.setup_probe:
        argvs = json.loads(Path(args.setup_probe).read_text())
        with open(os.devnull, "w") as sink:
            _, seconds = timed_setup(argvs, sink)
        print(json.dumps({"setup_s": seconds}))
        return 0
    print(json.dumps(benchmark(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
