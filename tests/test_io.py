import json

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
