"""File formats: vectors, subsets, graphs, polynomials, reports.

Everything numeric round-trips through JSON except the two binary formats
(length-prefixed little-endian float64 for vectors and adjacency matrices).
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .errors import PreconditionError


# --- vectors -----------------------------------------------------------------


def vector_to_json(values) -> dict:
    values = np.asarray(values, dtype=float)
    return {"domain_size": int(values.size), "values": [float(v) for v in values]}


def vector_from_json(obj) -> np.ndarray:
    values = np.asarray(obj["values"], dtype=float)
    if values.size != int(obj["domain_size"]):
        raise PreconditionError("domain_size disagrees with the value count")
    return values


def save_vector_json(path, values):
    with open(path, "w") as fh:
        json.dump(vector_to_json(values), fh)


def load_vector_json(path) -> np.ndarray:
    with open(path) as fh:
        return vector_from_json(json.load(fh))


def save_vector_binary(path, values):
    values = np.asarray(values, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", values.size))
        fh.write(values.tobytes())


def _load_binary(path, what, cells):
    """(header, float64 payload) of a length-prefixed binary file whose
    payload holds cells(header) values; a short file or a zero header is a
    PreconditionError."""
    with open(path, "rb") as fh:
        raw = fh.read()
    header = struct.unpack_from("<Q", raw)[0] if len(raw) >= 8 else None
    if not header or len(raw) - 8 < 8 * cells(header):
        raise PreconditionError(f"binary {what} file is empty or truncated")
    data = np.frombuffer(raw, dtype="<f8", count=cells(header), offset=8)
    return header, data.astype(float)


def load_vector_binary(path) -> np.ndarray:
    return _load_binary(path, "vector", lambda count: count)[1]


# --- subsets of the cube -----------------------------------------------------


def subset_to_hex(points, n: int) -> str:
    mask = 0
    for p in points:
        if not 0 <= int(p) < 1 << n:
            raise PreconditionError(f"point {p} outside the cube")
        mask |= 1 << int(p)
    return f"{mask:x}"


def subset_from_hex(text: str, n: int) -> list:
    mask = int(text.strip(), 16)
    return [x for x in range(1 << n) if (mask >> x) & 1]


def save_subset_hex(path, points, n):
    with open(path, "w") as fh:
        fh.write(subset_to_hex(points, n) + "\n")


def load_subset(path, n: int) -> list:
    """Subset from a JSON list of points or a hex bitmask file."""
    text = open(path).read()
    stripped = text.strip()
    if stripped.startswith("["):
        return [int(p) for p in json.loads(stripped)]
    return subset_from_hex(stripped, n)


# --- graphs ------------------------------------------------------------------


def save_edge_list(path, g):
    g = np.asarray(g)
    with open(path, "w") as fh:
        for u, v in zip(*np.nonzero(np.triu(g, 1))):
            fh.write(f"{u} {v}\n")


def load_edge_list(path, n: int | None = None):
    """(n, adjacency matrix) from 'u v' lines; n defaults to max index + 1."""
    edges = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            u, v = line.split()
            edges.append((int(u), int(v)))
    if n is None:
        n = 1 + max((max(u, v) for u, v in edges), default=-1)
    from .graphs import graph_from_edges

    return n, graph_from_edges(n, edges)


def save_adjacency_binary(path, g):
    g = np.asarray(g, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", g.shape[0]))
        fh.write(g.tobytes())


def load_adjacency_binary(path) -> np.ndarray:
    n, data = _load_binary(path, "adjacency", lambda n: n * n)
    return data.reshape(n, n)


def partition_to_dot(partition) -> str:
    """The reduced cluster graph in DOT, edges weighted by pair density."""
    lines = ["graph reduced {"]
    for i, part in enumerate(partition.parts):
        lines.append(f'  p{i} [label="V{i + 1} ({len(part)})"];')
    for (i, j), rec in sorted(partition.pair_records.items()):
        lines.append(f'  p{i} -- p{j} [label="{rec.density:.3f}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# --- probability spaces ------------------------------------------------------


def space_to_json(space) -> dict:
    return {"weights": [float(w) for w in space.weights]}


def space_from_json(obj):
    from .factors import FiniteProbabilitySpace

    return FiniteProbabilitySpace(obj["weights"])


def factor_to_json(factor) -> dict:
    return {"labels": [int(v) for v in factor.labels]}


def factor_from_json(obj):
    from .factors import Factor

    return Factor(obj["labels"])
