import json
import re
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from structrand import (
    BudgetExceededError,
    F2Polynomial,
    PreconditionError,
    gnp_random_graph,
    szemeredi_regularize,
)
from structrand.io import (
    load_adjacency_binary,
    load_edge_list,
    load_subset,
    load_vector_binary,
    load_vector_json,
    partition_to_dot,
    save_adjacency_binary,
    save_edge_list,
    save_subset_hex,
    save_vector_binary,
    save_vector_json,
    subset_from_hex,
    subset_to_hex,
    vector_from_json,
    vector_to_json,
)
from structrand.graphs import MAX_GRAPH_N

from oracles import EdgeListRefused, naive_edge_list, naive_hex_to_subset, naive_subset_to_hex


class TestVectorFormats:
    def test_json_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        f = rng.standard_normal(32)
        path = tmp_path / "vec.json"
        save_vector_json(path, f)
        assert np.array_equal(load_vector_json(path), f)

    def test_json_shape_check(self):
        with pytest.raises(PreconditionError):
            vector_from_json({"domain_size": 4, "values": [1.0, 2.0]})

    def test_binary_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        f = rng.standard_normal(100)
        path = tmp_path / "vec.bin"
        save_vector_binary(path, f)
        assert np.array_equal(load_vector_binary(path), f)

    def test_binary_layout_little_endian_length_prefixed(self, tmp_path):
        path = tmp_path / "vec.bin"
        save_vector_binary(path, [1.0, -2.0])
        raw = path.read_bytes()
        assert raw[:8] == (2).to_bytes(8, "little")
        assert np.frombuffer(raw[8:], dtype="<f8").tolist() == [1.0, -2.0]

    def test_binary_truncation_detected(self, tmp_path):
        path = tmp_path / "vec.bin"
        save_vector_binary(path, np.ones(10))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(PreconditionError):
            load_vector_binary(path)


class TestSubsets:
    def test_hex_roundtrip(self, tmp_path):
        points = [0, 2, 5, 13]
        assert subset_from_hex(subset_to_hex(points, 4), 4) == points
        path = tmp_path / "set.hex"
        save_subset_hex(path, points, 4)
        assert load_subset(path, 4) == points

    def test_hex_matches_bitwise_oracle(self):
        rng = np.random.default_rng(8)
        for n in range(11):
            size = 1 << n
            for points in ([], list(range(size)), *(
                np.flatnonzero(rng.random(size) < p).tolist() for p in (0.1, 0.5, 0.9)
            )):
                text = subset_to_hex(points, n)
                assert text == naive_subset_to_hex(points, n)
                assert subset_from_hex(text, n) == points
                assert naive_hex_to_subset(text) == points

    @pytest.mark.parametrize(
        "text, n", [("xyz", 3), ("", 3), ("-1", 3), ("1ff", 3), ("2", 0), ("1" + "0" * 16, 6)]
    )
    def test_hex_refusals(self, text, n):
        with pytest.raises(PreconditionError):
            subset_from_hex(text, n)

    @pytest.mark.parametrize("points, n", [([8], 3), ([-1], 3), ([0, 1 << 70], 5), ([1], 0)])
    def test_points_outside_the_cube_refused(self, points, n):
        with pytest.raises(PreconditionError):
            subset_to_hex(points, n)

    def test_hex_roundtrip_is_linear(self):
        # shifting the whole mask once per point grew about 4x per step of n,
        # to some 4 s at n = 19 on a 2-vCPU machine
        n = 20
        points = np.flatnonzero(np.random.default_rng(9).random(1 << n) < 0.5).tolist()
        start = time.perf_counter()
        assert subset_from_hex(subset_to_hex(points, n), n) == points
        assert time.perf_counter() - start < 5.0

    def test_json_points(self, tmp_path):
        path = tmp_path / "set.json"
        path.write_text(json.dumps([1, 4, 7]))
        assert load_subset(path, 3) == [1, 4, 7]


class TestGraphFormats:
    def test_edge_list_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        g = gnp_random_graph(20, 0.3, rng)
        path = tmp_path / "g.txt"
        save_edge_list(path, g)
        n, back = load_edge_list(path, n=20)
        assert n == 20
        assert np.array_equal(back, g)

    def test_adjacency_binary_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        g = gnp_random_graph(12, 0.5, rng)
        path = tmp_path / "g.bin"
        save_adjacency_binary(path, g)
        assert np.array_equal(load_adjacency_binary(path), g)

    def test_dot_export(self):
        rng = np.random.default_rng(4)
        g = gnp_random_graph(64, 0.5, rng)
        part = szemeredi_regularize(g, 0.3, 2, mode="sampled", seed=0)
        dot = partition_to_dot(part)
        assert dot.startswith("graph reduced {")
        assert dot.count(" -- ") == len(part.pair_records)


class TestSpacesAndPolynomials:
    def test_polynomial_sorted_monomials(self):
        poly = F2Polynomial.from_monomials(5, [(3, 1), (0,), ()])
        obj = poly.to_json()
        assert obj["monomials"] == [[], [0], [1, 3]]


TEXT_LOADERS = {
    "subset": lambda path: load_subset(path, 4),
    "edge list": load_edge_list,
    "vector": load_vector_json,
}
# arbitrary bytes, and text over the characters the three formats are made of
LOADER_INPUTS = st.binary(max_size=48) | st.text(
    alphabet='0123456789abcdefx []{},:."\n-+eINaSviludomn_sz#\xff', max_size=48
).map(str.encode)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(raw=LOADER_INPUTS, loader=st.sampled_from(sorted(TEXT_LOADERS)))
def test_fuzzed_text_input_loads_or_is_refused(tmp_path, raw, loader):
    path = tmp_path / "input"
    path.write_bytes(raw)
    try:
        TEXT_LOADERS[loader](path)
    except PreconditionError:
        pass
    except BudgetExceededError as exc:  # an edge list naming a vertex past the graph cap
        assert loader == "edge list" and "graph cap" in str(exc)


# Edge lists built from the pieces the format allows and the ones it refuses.
SPACES = " \t\x0b\x0c\x1c\x85\xa0\u2003\u3000"  # non-newline whitespace, ASCII or not
SMALL = st.integers(0, 12).map(str)
INDICES = st.one_of(
    SMALL, SMALL, SMALL, SMALL,
    st.integers(0, 12).map(lambda k: f"00{k}"),  # leading zeros
    st.sampled_from([
        "\u0663", "\uff10", "\u0967\u0968",  # Unicode decimal digits: 3, 0, 12
        "4096", "5000",  # past the graph cap
        "9" * 19, "9" * 25,  # past int64
        "7".rjust(4300, "0"),  # int()'s digit limit exactly
    ]),
)
OVERLONG = st.sampled_from(["7".rjust(4301, "0"), "9" * 4400])  # past int()'s digit limit
_WS = st.text(alphabet=SPACES, max_size=2)
_GAP = st.text(alphabet=SPACES, min_size=1, max_size=2)
EDGE_LINE = st.tuples(_WS, INDICES, _GAP, INDICES, _WS).map("".join)
SKIPPED_LINE = st.one_of(
    _WS,  # blank
    st.tuples(_WS, st.just("#"), st.text(alphabet="ab 01#\t", max_size=6)).map("".join),
)
REFUSED_LINE = st.one_of(
    st.tuples(_WS, INDICES, _WS).map("".join),  # one field
    st.tuples(INDICES, _GAP, INDICES, _GAP, INDICES).map("".join),  # three fields
    st.tuples(INDICES, _GAP, st.sampled_from(["x", "-1", "+2", "1.0", "1_0", "\xb2"])).map("".join),
    st.tuples(_WS, OVERLONG, _GAP, INDICES).map("".join),
    st.tuples(_WS, INDICES, _GAP, OVERLONG, _WS).map("".join),
)


@st.composite
def edge_texts(draw):
    """Up to eight edge, blank or comment lines, and at most one refused line."""
    lines = draw(st.lists(st.one_of(EDGE_LINE, EDGE_LINE, SKIPPED_LINE), max_size=8))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(REFUSED_LINE))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines), max_size=len(lines)))
    return "".join(line + end for line, end in zip(lines, ends))


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    text=edge_texts(),
    tail=st.sampled_from([b"", b"0 1", b"# end", b"\xff"]),  # last line unterminated, or not UTF-8
    n=st.one_of(st.none(), st.integers(0, 14), st.just(5000)),
)
def test_edge_list_matches_line_by_line_oracle(tmp_path, text, tail, n):
    path = tmp_path / "edges.txt"
    path.write_bytes(text.encode() + tail)
    try:
        expected = naive_edge_list(path, n, cap=MAX_GRAPH_N)
    except EdgeListRefused as refused:
        cls = BudgetExceededError if refused.budget else PreconditionError
        with pytest.raises((PreconditionError, BudgetExceededError)) as info:
            load_edge_list(path, n)
        assert type(info.value) is cls
        message = str(info.value)
        assert refused.detail in message
        assert bool(re.search(r"\bline \d+ ", message)) == refused.detail.startswith("line")
        return
    got_n, got = load_edge_list(path, n)
    assert got_n == expected[0]
    assert np.array_equal(got, expected[1])
