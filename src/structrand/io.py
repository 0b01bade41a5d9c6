"""File formats: vectors, subsets, graphs, polynomials, reports.

Everything numeric round-trips through JSON except the two binary formats
(length-prefixed little-endian float64 for vectors and adjacency matrices).
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .errors import PreconditionError


def _text_lines(path, what):
    """The lines of a text file; bytes that are not UTF-8 are a PreconditionError."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield from fh
        except UnicodeDecodeError as exc:
            raise PreconditionError(f"{what} file {path} is not UTF-8 text: {exc}") from None


# --- vectors -----------------------------------------------------------------


def vector_to_json(values) -> dict:
    values = np.asarray(values, dtype=float)
    return {"domain_size": int(values.size), "values": [float(v) for v in values]}


def vector_from_json(obj) -> np.ndarray:
    if not isinstance(obj, dict) or not {"values", "domain_size"} <= obj.keys():
        raise PreconditionError("vector JSON needs 'values' and 'domain_size'")
    try:
        values = np.asarray(obj["values"], dtype=float)
        size = int(obj["domain_size"])
    except (TypeError, ValueError, OverflowError) as exc:
        raise PreconditionError(f"malformed vector JSON: {exc}") from None
    if values.ndim != 1 or values.size != size:
        raise PreconditionError("domain_size disagrees with the value count")
    return values


def save_vector_json(path, values):
    with open(path, "w") as fh:
        json.dump(vector_to_json(values), fh)


def load_vector_json(path) -> np.ndarray:
    try:
        obj = json.loads("".join(_text_lines(path, "vector")))
    except (ValueError, RecursionError) as exc:  # also too deep, or past int()'s digit limit
        raise PreconditionError(f"{path} is not JSON: {exc}") from None
    return vector_from_json(obj)


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
    try:
        mask = int(text.strip(), 16)
    except ValueError:
        raise PreconditionError(f"subset mask {text.strip()!r} is not hexadecimal") from None
    if mask < 0 or mask >> (1 << n):
        raise PreconditionError(f"subset mask is wider than the {1 << n} points of the cube")
    return [x for x in range(1 << n) if (mask >> x) & 1]


def save_subset_hex(path, points, n):
    with open(path, "w") as fh:
        fh.write(subset_to_hex(points, n) + "\n")


def load_subset(path, n: int) -> list:
    """Subset from a JSON list of points or a hex bitmask file."""
    stripped = "".join(_text_lines(path, "subset")).strip()
    if not stripped.startswith("["):
        return subset_from_hex(stripped, n)
    try:
        points = json.loads(stripped)
    except (ValueError, RecursionError) as exc:
        raise PreconditionError(f"{path} is not a JSON list: {exc}") from None
    for p in points:
        if type(p) is not int or not 0 <= p < 1 << n:
            raise PreconditionError(f"subset point {p!r} is not an integer in 0..{(1 << n) - 1}")
    return points


# --- graphs ------------------------------------------------------------------


def save_edge_list(path, g):
    g = np.asarray(g)
    with open(path, "w") as fh:
        for u, v in zip(*np.nonzero(np.triu(g, 1))):
            fh.write(f"{u} {v}\n")


def load_edge_list(path, n: int | None = None):
    """(n, adjacency matrix) from 'u v' lines; n defaults to max index + 1."""
    edges = []
    for number, line in enumerate(_text_lines(path, "edge list"), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2 or not all(x.isdecimal() for x in fields):
            raise PreconditionError(f"edge list line {number} is not 'u v': {line!r}")
        try:
            edges.append((int(fields[0]), int(fields[1])))
        except ValueError:  # an index past int()'s digit limit
            raise PreconditionError(f"edge list line {number} has an overlong index") from None
    if n is None:
        n = 1 + max((max(u, v) for u, v in edges), default=-1)
    if n < 1:
        raise PreconditionError("edge list has no vertices")
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
