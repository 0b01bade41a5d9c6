"""tools/bench_record.py folds paired perfbench runs into one record."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


METRICS = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]


def write_run(runs, side, workload, pair, p90):
    path = runs / side / workload / f"{pair}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    metrics = {name: {"value": 1.0, "unit": ""} for name in METRICS}
    metrics["op_p90_s"]["value"], metrics["ops_per_s"]["value"] = p90, 1 / p90
    path.write_text("perfbench noise line\n" + json.dumps({"correct": True, "metrics": metrics}))


def test_fold_pairs_medians_and_wins(tmp_path):
    runs = tmp_path / "runs"
    parent = [0.8, 0.7, 0.9, 0.85]
    change = [0.4, 0.75, 0.5, 0.45]
    for i, (p, c) in enumerate(zip(parent, change)):
        write_run(runs, "parent", "energy-increment", f"pair{i:02d}", p)
        write_run(runs, "change", "energy-increment", f"pair{i:02d}", c)
    write_run(runs, "parent", "cube-uniformity", "pair00", 0.1)  # unpaired: left out
    machine = tmp_path / "record.json"
    machine.write_text(json.dumps({"nproc": 1, "cpu": "x", "python": "3", "numpy": "2",
                                   "blas_threads": "1", "seconds": 30.0, "ops": []}))
    out = tmp_path / "BENCH.json"
    assert bench_record.main([str(runs), "--machine", str(machine), "--parent-sha", "a",
                              "--change-sha", "b", "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert list(record["workloads"]) == ["energy-increment"]
    assert record["machine"]["nproc"] == 1 and record["change_sha"] == "b"
    assert record["run"]["seconds"] == 30.0
    p90 = record["workloads"]["energy-increment"]["metrics"]["op_p90_s"]
    assert p90["pairs"] == [[p, c] for p, c in zip(parent, change)]
    assert p90["parent"]["median"] == 0.825 and p90["change"]["median"] == 0.475
    assert p90["change_wins"] == 3
    ops = record["workloads"]["energy-increment"]["metrics"]["ops_per_s"]
    assert ops["change_wins"] == 3
    assert ops["pairs"][1] == [1 / 0.7, 1 / 0.75]


def test_no_pairs_is_an_error(tmp_path, capsys):
    machine = tmp_path / "record.json"
    machine.write_text(json.dumps({k: 1 for k in bench_record.MACHINE_KEYS}))
    argv = [str(tmp_path / "none"), "--machine", str(machine), "--parent-sha", "a",
            "--change-sha", "b", "--out", str(tmp_path / "out.json")]
    assert bench_record.main(argv) == 2
    assert "no paired runs" in capsys.readouterr().err
