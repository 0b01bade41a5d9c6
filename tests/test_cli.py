import argparse
import json
import math
import platform
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import structrand
from structrand.cli import COMMANDS, OPTIONS, build_parser, main
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

    def test_d2_vote_beyond_shift_pair_cap(self, tmp_path):
        # the d = 2 vote is tallied by transforms, so it is not charged 2^{2n}
        args = ["inverse", "--gen", "planted-code:n=16,degree=1,flip=0.01", "--d", "2", "--delta", "0.1"]
        code, out = run_cli(args, tmp_path)
        assert code == 0
        recovered = json.loads(out.read_text())["payload"]["recovered"]
        assert recovered is not None
        assert recovered["correlation"] >= 0.9

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

    def test_mean_kept_at_two_million_points(self, tmp_path):
        # |E f_str - E f| reaches 1.0e-12 here from rounding in the two
        # length-N sums alone, which an absolute 1e-12 tolerance refused
        code, out = run_cli(["sparse-demo", "--gen", "sparse:N=2097152", "--seed", "5"], tmp_path)
        assert code == 0
        payload = json.loads(out.read_text())["payload"]
        assert payload["mean_preserved_error"] <= 2 * 2097152 * 2.0**-53 * payload["f_mean"]

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc malloc thresholds")
    def test_rerun_faults_in_no_fresh_memory(self, tmp_path):
        # main keeps freed blocks on the heap, so a second run of one command
        # reuses the pages of the first; under glibc's default thresholds the
        # second run at N = 2^18 faults in about 9000 pages
        import resource

        args = ["sparse-demo", "--gen", "sparse:N=262144", "--seed", "1"]
        assert run_cli(args, tmp_path)[0] == 0
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        assert run_cli(args, tmp_path)[0] == 0
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 1000


EXACT_CHECK_FAULTS = """
import resource
import sys

sys.path.insert(0, sys.argv[1])
import numpy as np
from structrand.cli import keep_freed_memory
from structrand.graphs import gnp_random_graph, regular_pair_check

keep_freed_memory()
g = gnp_random_graph(24, 0.5, np.random.default_rng(0))
regular_pair_check(g, range(12), range(12, 24), 0.05, mode="exact")
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(50):
    regular_pair_check(g, range(12), range(12, 24), 0.05, mode="exact")
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc malloc thresholds")
def test_exact_pair_checks_fault_in_no_fresh_memory():
    # an exact check of a 12 x 12 pair frees three 2^12 x 12 float arrays of
    # 393 KB; under glibc's default thresholds each check faults about 256
    # pages in again.  A fresh process, since the frees of earlier tests
    # raise glibc's own thresholds.
    src = str(Path(structrand.__file__).parents[1])
    run = subprocess.run([sys.executable, "-c", EXACT_CHECK_FAULTS, src], capture_output=True,
                         text=True, check=True)
    assert int(run.stdout) < 50 * 10


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

    @staticmethod
    def adjacency_with(value):
        """A 16-vertex binary adjacency with ``value`` on the edge {0, 1}; read as
        a vector, its first 16 values hold ``value`` at index 1."""
        g = np.zeros((16, 16))
        g[0, 1] = g[1, 0] = value
        return struct.pack("<Q", 16) + g.astype("<f8").tobytes()

    @pytest.mark.parametrize("command", ["gowers", "graph-reg", "weak-reg", "decompose"])
    @pytest.mark.parametrize(
        "content",
        [b"\x01\x02\x03", struct.pack("<Q", 1 << 62) + b"\x00" * 8, struct.pack("<Q", 0),
         adjacency_with(math.nan), adjacency_with(math.inf), adjacency_with(-math.inf)],
        ids=["short-header", "huge-header", "zero-count", "nan-value", "inf-value",
             "minus-inf-value"],
    )
    def test_malformed_binary_input(self, tmp_path, capsys, command, content):
        path = tmp_path / "bad.bin"
        path.write_bytes(content)
        assert main([command, "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert "binary" in err
        if len(content) > 16:  # a value was read: the message names the file
            assert str(path) in err

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
        "argv, code",
        [
            (["graph-reg", "--eps", "0"], 2),
            (["graph-reg", "--m", "0"], 2),
            (["decompose", "--variant", "strong", "--growth", "exp-2", "--eps", "2"], 2),
            (["sparse-demo", "--eps", "2"], 2),
            (["gowers", "--gen", "random:n=-1"], 2),
            (["arith-reg", "--gen", "subset:n=-2"], 2),
            (["graph-reg", "--gen", "gnp:n=-3"], 2),
            (["gowers", "--gen", "random:n=2.5"], 2),
            (["weak-reg", "--gen", "gnp:n=0"], 2),
            (["sparse-demo", "--gen", "sparse:N=0"], 2),
            (["sparse-demo", "--gen", "sparse:N=1"], 2),
            (["graph-reg", "--gen", "gnp:n=64,p=2"], 2),
            (["inverse", "--gen", "planted-code:n=8,flip=2"], 2),
            (["inverse", "--gen", "planted-code:n=8,degree=0"], 2),
            (["inverse", "--gen", "planted-code:n=3,degree=5"], 2),
            (["decompose", "--growth", "exp-abc"], 2),
            (["decompose", "--growth", "linear-abc"], 2),
            (["gowers", "--gen", "random:n=3,foo=2"], 2),
            (["arith-reg", "--gen", "random:n=4"], 2),
            (["gowers", "--gen", "random:n=40"], 4),
            # one part, so no pair check would see the mode
            (["graph-reg", "--gen", "gnp:n=128", "--eps", "0.99", "--m", "1", "--mode", "bogus"], 2),
        ],
        ids=["eps-0", "m-0", "eps-2-strong", "eps-2-sparse", "cube-n-neg", "subset-n-neg",
             "gnp-n-neg", "cube-n-fraction", "gnp-n-0", "sparse-N-0", "sparse-N-1", "gnp-p-2",
             "flip-2", "degree-0", "degree-over-n", "growth-exp-abc", "growth-linear-abc",
             "unknown-key", "subset-from-cube-generator", "cube-cap", "mode-with-one-part"],
    )
    def test_bad_generator_or_option(self, argv, code, capsys):
        # refused before any input of 2^n values is allocated
        assert main(argv) == code
        assert ("precondition failure" if code == 2 else "cube cap") in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["gowers", "--gen", "random:n=14", "--d", "2"],
            ["inverse", "--gen", "random-pm1:n=14", "--d", "3", "--delta", "0.05"],
        ],
        ids=["gowers-u2-shifts", "inverse99-vote"],
    )
    def test_shift_side_budget(self, argv, capsys):
        # both touch all 2^n x 2^n shift pairs, so n = 14 is past the 2^26 cap
        assert main(argv) == 4
        assert "2^28" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, name, content",
        [
            ("graph-reg", "g.txt", ""),
            ("weak-reg", "g.txt", ""),
            ("graph-reg", "g.txt", "0 1\n1 x\n"),
            ("weak-reg", "g.txt", "1 2 3\n"),
            ("gowers", "f.json", "[]"),
            ("gowers", "f.json", '{"values": []}'),
            ("gowers", "f.json", '{"values": [1.0, '),
            ("graph-reg", "g.txt", b"0 1\n\xff\xfe 2\n"),
            ("gowers", "f.json", b'{"values": [1.0], "domain_size": 1\xff}'),
            ("gowers", "f.json", '{"values": [1.0], "domain_size": Infinity}'),
            ("gowers", "f.json", "[" * 100000),
            ("graph-reg", "g.txt", "0 " + "9" * 5000),
            ("gowers", "f.json", '{"values": [1.0, NaN, 0.0, 1.0], "domain_size": 4}'),
            ("gowers", "f.json", '{"values": [1.0, 0.0, Infinity, 1.0], "domain_size": 4}'),
            ("gowers", "f.json", '{"values": [-1e999, 0.0, 0.0, 1.0], "domain_size": 4}'),
        ],
        ids=["empty-edges", "empty-edges-weak", "non-integer", "three-fields",
             "bare-list", "no-domain-size", "truncated-json", "edges-not-utf8",
             "json-not-utf8", "infinite-domain-size", "json-too-deep", "overlong-vertex",
             "nan-value", "infinite-value", "overflowing-value"],
    )
    def test_malformed_text_input(self, tmp_path, capsys, command, name, content):
        path = tmp_path / name
        path.write_bytes(content if isinstance(content, bytes) else content.encode())
        assert main([command, "--input", str(path)]) == 2
        assert "precondition failure" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, content",
        [
            (["arith-reg", "--n", "4"], "[1, 2"),
            (["arith-reg", "--n", "4"], "zz"),
            (["arith-reg", "--n", "4"], '["a"]'),
            (["arith-reg", "--n", "4"], "[99]"),
            (["arith-reg", "--n", "4"], "[-1]"),
            (["arith-reg", "--n", "4"], "1ffff"),
            (["arith-reg", "--n", "-1"], "[]"),
            (["decompose", "--variant", "bogus"], None),
            (["decompose", "--atoms", "reed-muller-abc"], None),
            (["decompose", "--atoms", "reed-mullerz"], None),
            (["decompose", "--atoms", "reed-muller2"], None),
            (["arith-reg", "--n", "4"], b"[1, \xff]"),
            (["arith-reg", "--n", "4"], "[" + "9" * 5000 + "]"),
        ],
        ids=["truncated-json", "bad-hex", "non-integer-point", "point-past-cube",
             "negative-point", "mask-past-cube", "negative-n", "unknown-variant",
             "non-integer-degree", "bad-family-suffix", "no-degree-dash", "not-utf8",
             "overlong-point"],
    )
    def test_malformed_subset_or_option(self, tmp_path, capsys, argv, content):
        if content is not None:
            path = tmp_path / "subset.txt"
            path.write_bytes(content if isinstance(content, bytes) else content.encode())
            argv = argv + ["--input", str(path)]
        assert main(argv) == 2
        assert "precondition failure" in capsys.readouterr().err

    def test_empty_cube_vector(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        save_vector_json(path, np.zeros(0))
        assert main(["gowers", "--input", str(path)]) == 2
        assert "length 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["weak-reg", "--gen", "gnp:n=4097"],
            ["weak-reg", "--gen", "gnp:n=2000000"],
            ["graph-reg", "--gen", "complete:n=4097"],
            ["decompose", "--atoms", "cuts", "--gen", "bipartite:n=2000000"],
        ],
        ids=["gnp-4097", "gnp-2e6", "complete-4097", "bipartite-2e6"],
    )
    def test_graph_cap(self, argv, capsys):
        # refused before the n x n matrix is allocated
        assert main(argv) == 4
        assert "graph cap" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["sparse:N=16777217", "sparse:N=1000000000000"])
    def test_sparse_cap(self, spec, capsys):
        # refused before the N-point majorant is allocated
        assert main(["sparse-demo", "--gen", spec]) == 4
        assert "sparse cap" in capsys.readouterr().err

    @pytest.mark.parametrize("n, code", [(25, 4), (-1, 2)], ids=["past-cube-cap", "negative"])
    def test_arith_reg_input_n(self, tmp_path, capsys, n, code):
        # an --input subset past the cube cap exits 4, as --gen subset:n=25
        # does; a negative n is a precondition failure
        path = tmp_path / "subset.json"
        path.write_text("[]")
        assert main(["arith-reg", "--input", str(path), "--n", str(n)]) == code
        assert ("cube cap" if code == 4 else "precondition failure") in capsys.readouterr().err
        if code == 4:
            assert main(["arith-reg", "--gen", f"subset:n={n}"]) == 4

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_negative_seed(self, command, capsys):
        assert main([command, "--seed", "-1"]) == 2
        assert "--seed must be non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize("vertex", [4096, 3000000])
    def test_edge_list_past_graph_cap(self, tmp_path, capsys, vertex):
        path = tmp_path / "g.txt"
        path.write_text(f"0 1\n0 {vertex}\n")
        assert main(["weak-reg", "--input", str(path)]) == 4
        assert "graph cap" in capsys.readouterr().err


def subparsers():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def settable(parser):
    return {a.dest for a in parser._actions if a.option_strings and a.dest != "help"}


ARGUMENT = {float: "0.5", int: "2", str: "exact"}
UNDECLARED = [
    (command, option)
    for command, (_, _, _, options) in COMMANDS.items()
    for option in OPTIONS
    if option not in options
] + [("sparse-demo", "input")]


class TestCommandTable:
    """The table in cli.py is the only statement of what each command takes."""

    @pytest.mark.parametrize("command, option", UNDECLARED)
    def test_undeclared_option_is_a_usage_error(self, command, option):
        kind = OPTIONS[option][0] if option in OPTIONS else str
        with pytest.raises(SystemExit) as exc:
            main([command, f"--{option}", ARGUMENT[kind]])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["arith-reg", "--gen", "subset:n=4", "--n", "4"],
            ["arith-reg", "--n", "4"],
            ["decompose", "--variant", "weak", "--growth", "exp-2"],
            ["decompose", "--variant", "orthogonal", "--growth", "arith-reg"],
        ],
        ids=["arith-n-with-gen", "arith-n-with-default-gen", "weak-growth", "orthogonal-growth"],
    )
    def test_declared_but_unread_option_refused(self, argv, capsys):
        assert main(argv) == 2
        assert "precondition failure" in capsys.readouterr().err

    def test_config_echoes_effective_options(self, tmp_path):
        parsers = subparsers()
        small = {"graph-reg": "complete:n=32", "weak-reg": "gnp:n=16,p=0.5"}
        for command, (_, _, _, options) in COMMANDS.items():
            argv = [command] + (["--gen", small[command]] if command in small else [])
            code, out = run_cli(argv, tmp_path)
            assert code == 0
            report = json.loads(out.read_text())
            assert report["schema_version"] == 3
            config = report["config"]
            assert set(config) == settable(parsers[command]) - {"out", "format"}
            assert config["gen"] is not None
            for option, default in options.items():
                if option != "growth":
                    assert config[option] == default

    def test_shared_parser_carries_nothing_between_calls(self, tmp_path):
        """The parser is built once per process; each call's report must still
        equal the report of a call on a freshly built parser."""
        calls = [
            ["decompose", "--gen", "random:n=5", "--eps", "0.5", "--variant", "weak", "--seed", "3"],
            ["decompose", "--gen", "random:n=5"],
            ["graph-reg", "--gen", "gnp:n=32,p=0.5", "--mode", "exact", "--eps", "0.4", "--m", "3"],
            ["graph-reg", "--gen", "complete:n=32"],
            ["gowers", "--gen", "random:n=4", "--format", "csv"],
            ["gowers", "--gen", "random:n=4"],
        ]
        shared = []
        for i, argv in enumerate(calls):
            code, out = run_cli(argv, tmp_path, f"shared{i}.out")
            assert code == 0
            shared.append(out.read_text())
        assert build_parser() is build_parser()
        for i, argv in enumerate(calls):
            build_parser.cache_clear()
            code, out = run_cli(argv, tmp_path, f"fresh{i}.out")
            assert code == 0
            assert out.read_text() == shared[i], argv

    def test_strong_split_echoes_growth_preset(self, tmp_path):
        code, out = run_cli(["decompose", "--gen", "random:n=4"], tmp_path)
        assert code == 0
        assert json.loads(out.read_text())["config"]["growth"] == "arith-reg"

    def test_settable_value_count(self):
        assert sum(len(settable(p)) for p in subparsers().values()) == 50

    def test_readme_flag_list_matches_parsers(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        rows = dict(re.findall(r"^\| `([a-z-]+)` \| (.*) \|$", readme, re.MULTILINE))
        assert set(rows) == set(COMMANDS)
        for command, parser in subparsers().items():
            common = {"gen", "seed", "out", "format"} | ({"input"} if command != "sparse-demo" else set())
            assert set(re.findall(r"--([a-z]+)", rows[command])) | common == settable(parser)
