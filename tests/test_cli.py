import json

import numpy as np
import pytest

from structrand.cli import main
from structrand.io import save_edge_list, save_vector_binary, save_vector_json


def run_cli(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out


class TestGowersCommand:
    def test_constant_input(self, tmp_path):
        code, out = run_cli(["gowers", "--gen", "constant:n=4,value=1", "--d", "3"], tmp_path)
        assert code == 0
        payload = json.loads(out.read_text())["payload"]
        assert payload["norms"]["U1"] == pytest.approx(1.0)
        assert payload["norms"]["U3"] == pytest.approx(1.0)

    def test_transform_agreement_reported(self, tmp_path):
        code, out = run_cli(["gowers", "--gen", "random:n=8", "--d", "2", "--seed", "42"], tmp_path)
        assert code == 0
        payload = json.loads(out.read_text())["payload"]
        assert abs(payload["norms"]["U2"] - payload["u2_via_transform"]) <= 1e-9

    def test_file_input(self, tmp_path):
        from structrand import F2Polynomial

        f = F2Polynomial.from_monomials(5, [(1,)]).code()
        path = tmp_path / "f.json"
        save_vector_json(path, f)
        code, out = run_cli(["gowers", "--input", str(path), "--d", "2"], tmp_path)
        assert code == 0
        payload = json.loads(out.read_text())["payload"]
        assert payload["norms"]["U2"] == pytest.approx(1.0)

    def test_binary_vector_input(self, tmp_path):
        f = np.random.default_rng(2).uniform(-1.0, 1.0, 64)
        save_vector_json(tmp_path / "f.json", f)
        save_vector_binary(tmp_path / "f.bin", f)
        payloads = []
        for name in ("f.json", "f.bin"):
            code, out = run_cli(["decompose", "--input", str(tmp_path / name)], tmp_path)
            assert code == 0
            payloads.append(json.loads(out.read_text())["payload"])
        assert payloads[0] == payloads[1]


class TestDecomposeCommand:
    def test_deterministic_reports(self, tmp_path):
        args = ["decompose", "--variant", "strong", "--gen", "random:n=6", "--eps", "0.4", "--seed", "9"]
        _, out1 = run_cli(args, tmp_path, "a.json")
        _, out2 = run_cli(args, tmp_path, "b.json")
        assert out1.read_bytes() == out2.read_bytes()

    def test_eps_one_empty_structure(self, tmp_path):
        code, out = run_cli(
            ["decompose", "--variant", "weak", "--gen", "random:n=6", "--eps", "1.0"],
            tmp_path,
        )
        assert code == 0
        payload = json.loads(out.read_text())["payload"]
        assert payload["atoms"] == []

    def test_strong_echoes_growth_preset(self, tmp_path):
        code, out = run_cli(
            ["decompose", "--variant", "strong", "--gen", "random:n=6", "--eps", "0.25"],
            tmp_path,
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["payload"]["stages"] is not None

    def test_csv_format(self, tmp_path):
        code, out = run_cli(
            ["decompose", "--variant", "weak", "--gen", "random:n=5", "--eps", "0.3",
             "--format", "csv"],
            tmp_path,
            "out.csv",
        )
        assert code == 0
        assert out.read_text().splitlines()[0] == "iteration,atom,coefficient"


class TestRegularityCommands:
    def test_arith_reg_coset_indicator(self, tmp_path):
        code, out = run_cli(
            ["arith-reg", "--gen", "subset:n=8,density=0.5", "--eps", "0.25", "--seed", "4"],
            tmp_path,
        )
        assert code == 0
        payload = json.loads(out.read_text())["payload"]
        assert payload["irregular_count"] <= payload["irregular_budget"]

    def test_arith_reg_subset_file(self, tmp_path):
        subset = tmp_path / "set.json"
        subset.write_text(json.dumps([x for x in range(256) if bin(x & 5).count("1") % 2 == 0]))
        code, out = run_cli(
            ["arith-reg", "--input", str(subset), "--n", "8", "--eps", "0.25"], tmp_path
        )
        assert code == 0
        payload = json.loads(out.read_text())["payload"]
        assert payload["codimension"] == 1
        densities = sorted(c["density"] for c in payload["cosets"])
        assert densities == [0.0, 1.0]

    def test_graph_reg_bipartite(self, tmp_path):
        dot = tmp_path / "g.dot"
        code, out = run_cli(
            ["graph-reg", "--gen", "bipartite:n=32", "--eps", "0.3", "--m", "2",
             "--mode", "exact", "--dot", str(dot)],
            tmp_path,
        )
        assert code == 0
        payload = json.loads(out.read_text())["payload"]
        assert payload["irregular_count"] == 0
        densities = {rec["density"] for rec in payload["pairs"].values()}
        assert densities <= {0.0, 1.0}
        assert dot.read_text().startswith("graph reduced")

    def test_graph_reg_edge_list_input(self, tmp_path):
        rng = np.random.default_rng(5)
        from structrand import gnp_random_graph

        g = gnp_random_graph(64, 0.5, rng)
        path = tmp_path / "g.txt"
        save_edge_list(path, g)
        code, out = run_cli(
            ["graph-reg", "--input", str(path), "--eps", "0.3", "--m", "2"], tmp_path
        )
        assert code == 0

    def test_weak_reg(self, tmp_path):
        code, out = run_cli(
            ["weak-reg", "--gen", "gnp:n=64,p=0.5", "--eps", "0.25", "--seed", "7"],
            tmp_path,
        )
        assert code == 0
        payload = json.loads(out.read_text())["payload"]
        assert len(payload["atoms"]) <= 16
        assert payload["residual_cut_correlation"] < 0.25


class TestInverseCommand:
    def test_planted_recovery(self, tmp_path):
        code, out = run_cli(
            ["inverse", "--gen", "planted-code:n=10,degree=1,flip=0.01",
             "--d", "2", "--delta", "0.1", "--seed", "11"],
            tmp_path,
        )
        assert code == 0
        payload = json.loads(out.read_text())["payload"]
        assert payload["recovered"] is not None
        assert payload["recovered"]["correlation"] >= 0.95

    def test_exact_variant(self, tmp_path):
        code, out = run_cli(
            ["inverse", "--gen", "planted-code:n=6,degree=1,flip=0", "--d", "2"],
            tmp_path,
        )
        assert code == 0
        payload = json.loads(out.read_text())["payload"]
        assert payload["variant"] == "exact"
        assert payload["recovered"] is not None


class TestSparseDemoCommand:
    def test_certificate(self, tmp_path):
        code, out = run_cli(
            ["sparse-demo", "--eps", "0.3", "--eta", "0.2", "--seed", "3"], tmp_path
        )
        assert code == 0
        payload = json.loads(out.read_text())["payload"]
        assert payload["f_str_min"] >= -1e-9
        assert payload["f_str_max"] <= 1.2 + 1e-9
        assert payload["mean_preserved_error"] <= 1e-12
        assert payload["majorant_linf"] <= 1.2 + 1e-9


class TestExitCodes:
    def test_precondition_failure(self, tmp_path, capsys):
        code = main(["decompose", "--variant", "weak", "--gen", "random:n=5", "--eps", "1.5"])
        assert code == 2

    def test_missing_input_file(self, tmp_path):
        code = main(["gowers", "--input", str(tmp_path / "nope.json")])
        assert code == 2

    @pytest.mark.parametrize("spec", ["random:n", "random:n=8,x", "gnp:n=abc"])
    def test_malformed_generator(self, spec, capsys):
        command = "graph-reg" if spec.startswith("gnp") else "decompose"
        assert main([command, "--gen", spec]) == 2
        assert "not key=number" in capsys.readouterr().err

    def test_input_and_gen_exclusive(self, tmp_path):
        path = tmp_path / "f.json"
        save_vector_json(path, np.zeros(16))
        with pytest.raises(SystemExit) as exc:
            main(["gowers", "--input", str(path), "--gen", "random:n=4"])
        assert exc.value.code == 2

    def test_budget_exhaustion(self, tmp_path):
        code = main(["gowers", "--gen", "random:n=10", "--d", "3"])
        assert code == 4
