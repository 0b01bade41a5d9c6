import json
import struct

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

    def test_single_point_cube(self, tmp_path):
        code, out = run_cli(["gowers", "--gen", "random:n=0", "--d", "3"], tmp_path)
        assert code == 0
        payload = json.loads(out.read_text())["payload"]
        assert payload["n"] == 0
        assert len(payload["norms"]) == 3
        for value in payload["norms"].values():
            assert value == pytest.approx(payload["sup_norm"], abs=1e-12)

    @pytest.mark.parametrize("route", ["gowers_norm", "gowers_norm_u2_fft", "_u2_power_by_shifts"])
    def test_corrupted_u2_route_fails_identity(self, route, monkeypatch, capsys):
        # every U^2 value is held to an independent computation, so skewing
        # any single route breaks the transform identity
        import structrand.cli as cli

        original = getattr(cli, route)

        def skewed(f, *d):  # U^2 values only; gowers_norm also serves U^1
            return original(f, *d) * (1.01 if d in ((), (2,)) else 1.0)

        monkeypatch.setattr(cli, route, skewed)
        assert main(["gowers", "--gen", "random:n=6", "--d", "2"]) == 3
        assert "identities failed" in capsys.readouterr().err

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

    @pytest.mark.parametrize("command", ["gowers", "graph-reg"])
    @pytest.mark.parametrize(
        "content",
        [b"\x01\x02\x03", struct.pack("<Q", 1 << 62) + b"\x00" * 8, struct.pack("<Q", 0)],
        ids=["short-header", "huge-header", "zero-count"],
    )
    def test_malformed_binary_input(self, tmp_path, capsys, command, content):
        path = tmp_path / "bad.bin"
        path.write_bytes(content)
        assert main([command, "--input", str(path)]) == 2
        assert "binary" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["gowers", "--d", "0"],
            ["gowers", "--d", "-1"],
            ["gowers", "--d", "5"],
            ["inverse", "--d", "0"],
            ["inverse", "--d", "0", "--delta", "0.1"],
        ],
        ids=["gowers-0", "gowers-neg", "gowers-5", "inverse-exact-0", "inverse-noisy-0"],
    )
    def test_out_of_range_d(self, argv, capsys):
        assert main(argv) == 2
        assert "d must" in capsys.readouterr().err

    def test_input_and_gen_exclusive(self, tmp_path):
        path = tmp_path / "f.json"
        save_vector_json(path, np.zeros(16))
        with pytest.raises(SystemExit) as exc:
            main(["gowers", "--input", str(path), "--gen", "random:n=4"])
        assert exc.value.code == 2

    def test_budget_exhaustion(self, tmp_path):
        code = main(["gowers", "--gen", "random:n=14", "--d", "3"])
        assert code == 4

    @pytest.mark.parametrize(
        "argv",
        [
            ["gowers", "--gen", "random:n=14", "--d", "2"],
            ["inverse", "--gen", "random-pm1:n=14", "--d", "2", "--delta", "0.1"],
        ],
        ids=["gowers-u2-shifts", "inverse99-vote"],
    )
    def test_shift_side_budget(self, argv, capsys):
        # both poll all 2^n x 2^n shift pairs, so n = 14 is past the 2^26 cap
        assert main(argv) == 4
        assert "2^28" in capsys.readouterr().err

    def test_empty_cube_vector(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        save_vector_json(path, np.zeros(0))
        assert main(["gowers", "--input", str(path)]) == 2
        assert "length 0" in capsys.readouterr().err
