"""File formats: vectors, subsets, graphs, polynomials, reports.

Everything numeric round-trips through JSON except the two binary formats
(length-prefixed little-endian float64 for vectors and adjacency matrices).
"""

from __future__ import annotations

import json
import re
import struct
import sys

import numpy as np

from .errors import PreconditionError
from .graphs import graph_from_edges


def _read_text(path, what):
    """The text of a file, newlines translated; bytes that are not UTF-8 are a
    PreconditionError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise PreconditionError(f"{what} file {path} is not UTF-8 text: {exc}") from None


def _finite(values, source):
    """The values; a NaN or an infinity among them is a PreconditionError."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise PreconditionError(f"{source} holds {values.flat[bad[0]]} at index {bad[0]}")
    return values


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
        obj = json.loads(_read_text(path, "vector"))
    except (ValueError, RecursionError) as exc:  # also too deep, or past int()'s digit limit
        raise PreconditionError(f"{path} is not JSON: {exc}") from None
    return _finite(vector_from_json(obj), f"vector file {path}")


def save_vector_binary(path, values):
    values = np.asarray(values, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", values.size))
        fh.write(values.tobytes())


def _load_binary(path, what, cells):
    """(header, float64 payload) of a length-prefixed binary file whose
    payload holds cells(header) values; a short file, a zero header or a value
    that is NaN or infinite is a PreconditionError."""
    with open(path, "rb") as fh:
        raw = fh.read()
    header = struct.unpack_from("<Q", raw)[0] if len(raw) >= 8 else None
    if not header or len(raw) - 8 < 8 * cells(header):
        raise PreconditionError(f"binary {what} file is empty or truncated")
    data = np.frombuffer(raw, dtype="<f8", count=cells(header), offset=8)
    return header, _finite(data.astype(float), f"binary {what} file {path}")


def load_vector_binary(path) -> np.ndarray:
    return _load_binary(path, "vector", lambda count: count)[1]


# --- subsets of the cube -----------------------------------------------------


def subset_to_hex(points, n: int) -> str:
    """The bit mask of a sequence of points, bit x for point x, as hex."""
    index = np.asarray(points)
    outside = np.flatnonzero((index < 0) | (index >= 1 << n))
    if outside.size:
        raise PreconditionError(f"point {index[outside[0]]} outside the cube")
    bits = np.zeros(1 << n, dtype=np.uint8)
    bits[index.astype(np.int64)] = 1
    return f"{int.from_bytes(np.packbits(bits, bitorder='little').tobytes(), 'little'):x}"


def subset_from_hex(text: str, n: int) -> list:
    """The sorted points of a hex bit mask, refusing one wider than the cube."""
    try:
        mask = int(text.strip(), 16)
    except ValueError:
        raise PreconditionError(f"subset mask {text.strip()!r} is not hexadecimal") from None
    if mask < 0 or mask >> (1 << n):
        raise PreconditionError(f"subset mask is wider than the {1 << n} points of the cube")
    raw = np.frombuffer(mask.to_bytes(((1 << n) + 7) // 8, "little"), dtype=np.uint8)
    return np.flatnonzero(np.unpackbits(raw, bitorder="little")).tolist()


def save_subset_hex(path, points, n):
    with open(path, "w") as fh:
        fh.write(subset_to_hex(points, n) + "\n")


def load_subset(path, n: int) -> list:
    """Subset from a JSON list of points or a hex bitmask file."""
    stripped = _read_text(path, "subset").strip()
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
    rows, cols = np.nonzero(np.triu(np.asarray(g), 1))
    with open(path, "w") as fh:
        fh.writelines(f"{u} {v}\n" for u, v in zip(rows.tolist(), cols.tolist()))


def _first_bad_line(text):
    """The first line that is not blank, a '#' comment, or two decimal fields
    that int() takes, apart by whitespace other than the newline."""
    limit = sys.get_int_max_str_digits()
    field = rf"\d{{1,{limit}}}" if limit else r"\d+"
    return re.search(rf"^(?![^\S\n]*(?:#|{field}[^\S\n]+{field}[^\S\n]*$|$)).*", text, re.M)


def load_edge_list(path, n: int | None = None):
    """(n, adjacency matrix) from 'u v' lines; n defaults to max index + 1."""
    text = _read_text(path, "edge list")
    if bad := _first_bad_line(text):
        number, line = text.count("\n", 0, bad.start()) + 1, bad.group().strip()
        fields = line.split()
        if len(fields) == 2 and all(x.isdecimal() for x in fields):
            raise PreconditionError(f"edge list line {number} has an overlong index")
        raise PreconditionError(f"edge list line {number} is not 'u v': {line!r}")
    tokens = re.sub(r"^[^\S\n]*#.*", "", text, flags=re.M).split()
    try:
        ends = np.array(tokens, dtype=np.int64)
    except OverflowError:  # past int64, so past the graph cap; exact ints name it
        ends = np.array([int(x) for x in tokens], dtype=object)
    if n is None:
        n = 1 + int(ends.max(initial=-1))
    if n < 1:
        raise PreconditionError("edge list has no vertices")
    return n, graph_from_edges(n, ends)


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
