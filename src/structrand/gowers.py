"""Uniformity norms U^d on F_2^n, dual functions, and the von Neumann bound.

U^d averages the product of f over all d-dimensional parallelepipeds
{x + sum of a subset of h_1..h_d}.  One engine evaluates it on a stack of
functions: multiplicative derivatives f * f_h reduce U^d to U^{d-1},
||f||_{U^d}^(2^d) = E_h ||f * f_h||_{U^{d-1}}^(2^{d-1}), down to the
transform identity ||g||_{U^2}^4 = sum of ghat^4.  The dual functions follow
the same recursion down to D_2 f = the inverse transform of fhat^3.
"""

from __future__ import annotations

import numpy as np

from .cube import (
    cube_dim,
    f2_matrix_rank,
    f2_matvec_table,
    inverse_walsh_hadamard,
    shift,
    walsh_hadamard,
)
from .errors import BudgetExceededError, CertificateError, PreconditionError

MAX_D = 4
# U^d and D_d on F_2^n touch 2^{n * max(d - 1, 1)} cells: one row per
# derivative chain of length d - 2, each transformed once.  The shift-side
# routes (the U^2 check by shifts, the trilinear form, the inverse-99 vote)
# touch 2^{2n}.
BUDGET_BITS = 26
# Derivative rows are materialized this many cells at a time.
BLOCK_CELLS = 1 << 16


def check_budget(what, n, bits):
    """Refuse work on F_2^n that touches 2^bits cells, beyond 2^BUDGET_BITS."""
    if bits > BUDGET_BITS:
        raise BudgetExceededError(
            f"{what} at n={n} touches ~2^{bits} cells, beyond 2^{BUDGET_BITS}"
        )


def _rows(fs, d):
    """fs as a float stack of cube functions, once d and the cost are admissible."""
    rows = np.asarray(fs, dtype=float)
    n = cube_dim(rows)
    if not 1 <= d <= MAX_D:
        raise PreconditionError(f"d must lie in 1..{MAX_D}, got {d}")
    check_budget(f"U^{d}", n, n * max(d - 1, 1))
    return rows


def translate_blocks(rows):
    """Yield the translates of a (count, 2^n) stack, a block of consecutive
    shifts h at a time: block[r, i] is row r translated by the i-th h.

    Each block holds about BLOCK_CELLS cells (at least one translate per
    row), so derivative stacks rows[:, None] * block stay small.
    """
    count, size = rows.shape
    x = np.arange(size)
    step = max(1, BLOCK_CELLS // (count * size))
    for lo in range(0, size, step):
        h = np.arange(lo, min(lo + step, size))
        yield rows[:, x[None, :] ^ h[:, None]]


def _u_power(rows, d):
    """||g||_{U^d}^(2^d) of every row g of a (count, 2^n) stack."""
    if d == 1:
        m = rows.mean(axis=-1)
        return m * m
    if d == 2:
        sq = walsh_hadamard(rows) ** 2
        return np.sum(sq * sq, axis=-1)
    count, size = rows.shape
    out = np.zeros(count)
    for shifted in translate_blocks(rows):
        ders = (rows[:, None, :] * shifted).reshape(-1, size)
        out += _u_power(ders, d - 1).reshape(count, -1).sum(axis=1)
    return out / size


def _dual(rows, d):
    """D_d g of every row g: the parallelepiped average with the vertex x left out."""
    if d == 1:
        return np.repeat(rows.mean(axis=-1, keepdims=True), rows.shape[-1], axis=-1)
    if d == 2:
        spec = walsh_hadamard(rows)
        return inverse_walsh_hadamard(spec * spec * spec)
    size = rows.shape[-1]
    out = np.zeros(rows.shape)
    # D_d g(x) = E_h g(x + h) D_{d-1}(g * g_h)(x)
    for shifted in translate_blocks(rows):
        ders = (rows[:, None, :] * shifted).reshape(-1, size)
        out += (shifted * _dual(ders, d - 1).reshape(shifted.shape)).sum(axis=1)
    return out / size


def _u2_power_by_shifts(f):
    """||f||_{U^2}^4 on the shift side, E_h (E_x f f_h)^2, without a transform.

    Only the CLI's transform-identity check uses it: it is the second,
    independent computation that the transform-based engine is compared with.
    """
    n = cube_dim(f)
    check_budget("U^2 by shifts", n, 2 * n)
    return sum(float((f * shift(f, h)).mean()) ** 2 for h in range(f.size)) / f.size


def _u_power_direct(f, d):
    """||f||_{U^d}^(2^d) straight from the parallelepiped average.

    The literal reference the tests hold the engine to.  Vectorizes over as
    many shift axes as fit in a 2^20 grid and loops the rest, so the full
    (x, h_1..h_d) average is evaluated literally.
    """
    size = f.size
    if d == 1:
        m = float(f.mean())
        return m * m
    n = size.bit_length() - 1
    inner = max(1, min(d, 20 // max(n, 1) - 1))
    outer_count = d - inner
    grids = []
    for a in range(inner):
        shape = [1] * (inner + 1)
        shape[a] = size
        grids.append(np.arange(size).reshape(shape))
    grid_x = np.arange(size).reshape([1] * inner + [size])
    total = 0.0
    for outer in np.ndindex(*([size] * outer_count)):
        acc = np.ones((size,) * (inner + 1))
        for vertex in range(1 << d):
            offset = 0
            for j in range(outer_count):
                if (vertex >> j) & 1:
                    offset ^= outer[j]
            idx = grid_x ^ offset
            for a in range(inner):
                if (vertex >> (outer_count + a)) & 1:
                    idx = idx ^ grids[a]
            acc = acc * f[idx]
        total += float(acc.mean())
    return total / size**outer_count


def gowers_norm(f, d: int) -> float:
    """The uniformity norm ||f||_{U^d} on F_2^n, for 1 <= d <= MAX_D.

    Refused with BudgetExceededError when the 2^{n * max(d - 1, 1)} cells
    it touches exceed 2^BUDGET_BITS.
    """
    power = _u_power(_rows(np.reshape(f, (1, -1)), d), d)[0]
    return float(max(power, 0.0) ** (1.0 / (1 << d)))


def gowers_norm_u2_fft(f) -> float:
    """U^2 through the Fourier side: (sum of fhat^4)^(1/4)."""
    spec = walsh_hadamard(np.asarray(f, dtype=float))
    return float(np.sum(spec**4) ** 0.25)


def gowers_norm_batch(fs, d: int) -> np.ndarray:
    """U^d of every row of a (count, 2^n) matrix.

    Row-for-row equal to :func:`gowers_norm`; exists because sweeps over whole
    code families would otherwise pay the Python dispatch cost per function.
    """
    if np.ndim(fs) != 2:
        raise PreconditionError("expected one function per row")
    power = np.maximum(_u_power(_rows(fs, d), d), 0.0)
    return power ** (1.0 / (1 << d))


def dual_function(f, d: int) -> np.ndarray:
    """Df(x): average of the product of f over all parallelepiped vertices but x.

    Satisfies <f, Df> = ||f||_{U^d}^(2^d) under the averaging inner product.
    """
    return _dual(_rows(np.reshape(f, (1, -1)), d), d)[0]


def gvn_defect(f, g, h, t1, t2):
    """The trilinear form |E f(x) g(x+T1 r) h(x+T2 r)| and its U^2 bound.

    T1, T2 and T1 - T2 must all be invertible over F_2 (checked by rank); the
    returned pair (lhs, bound) always satisfies lhs <= bound + 1e-9.
    """
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    h = np.asarray(h, dtype=float)
    n = cube_dim(f)
    check_budget("the trilinear form", n, 2 * n)
    if g.shape != f.shape or h.shape != f.shape:
        raise PreconditionError("f, g, h must share a domain")
    for name, arr in (("f", f), ("g", g), ("h", h)):
        if np.any(np.abs(arr) > 1.0 + 1e-12):
            raise PreconditionError(f"{name} must take values in [-1, 1]")
    t1 = np.asarray(t1)
    t2 = np.asarray(t2)
    if t1.shape != (n, n) or t2.shape != (n, n):
        raise PreconditionError("T1, T2 must be n x n 0/1 matrices")
    diff = (t1 ^ t2) if t1.dtype.kind in "iub" else (t1 + t2) % 2
    for name, mat in (("T1", t1), ("T2", t2), ("T1-T2", diff)):
        if f2_matrix_rank(mat) != n:
            raise PreconditionError(f"{name} is singular over F_2")
    table1 = f2_matvec_table(t1)
    table2 = f2_matvec_table(t2)
    size = f.size
    x = np.arange(size)
    total = 0.0
    for r in range(size):
        total += float(np.dot(f, g[x ^ int(table1[r])] * h[x ^ int(table2[r])]))
    lhs = abs(total) / (size * size)
    bound = gowers_norm(f, 2)
    if lhs > bound + 1e-9:
        raise CertificateError(
            f"von Neumann bound violated: {lhs} > {bound} + 1e-9"
        )
    return lhs, bound
