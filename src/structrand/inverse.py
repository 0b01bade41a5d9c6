"""Recovering polynomial structure from near-maximal uniformity norms.

Three levels: exact recovery when U^d is 1, noisy recovery when U^d is close
to 1 (derivative codes, then a majority-vote integration of the derivative
polynomials), and brute-force correlation search over a code enumeration.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .cube import (
    F2Polynomial,
    cube_dim,
    ensure_pm_one,
    inverse_walsh_hadamard,
    parity,
    reed_muller_atoms,
    walsh_hadamard,
)
from .errors import CertificateError, PreconditionError
from .gowers import _blocks, _derivatives, check_budget, gowers_norm

logger = logging.getLogger(__name__)

NORM_ONE_TOL = 1e-9

# Largest admissible delta per d for the noisy recovery.  The caps are chosen
# so that every derivative poll clears the 3/4 majority threshold whenever the
# shift passes the ||f f_h|| gate: at the cap, d=2 gives agreement exactly 3/4
# and d=3 gives (1 + 0.75^2)/2 ~ 0.78.  Enumeration of code means at small n
# (see rigidity_gap) confirms the decision margins these rely on.
INVERSE99_DELTA_CAP = {2: 0.25, 3: 1.0 / 16.0}

# Majority fraction below which a vote is declared ambiguous.
VOTE_THRESHOLD = 0.75


def inverse_100(f, d: int):
    """Exact inverse: a polynomial P of degree < d with f = (-1)^P, or None.

    Requires f to be +-1-valued and 1 <= d <= 3.  When ||f||_{U^d} is 1 the
    derivative codes f * f_h all have degree < d - 1, and integrating them
    amounts to reading off the ANF of the bit table of f itself, which is what
    the Moebius butterfly does; the degree bound is then re-checked.
    """
    f = ensure_pm_one(f)
    if not 1 <= d <= 3:
        raise PreconditionError("d must lie in 1..3")
    if gowers_norm(f, d) < 1.0 - NORM_ONE_TOL:
        return None
    bits = ((1.0 - f) / 2.0).round().astype(np.int64)
    poly = F2Polynomial.from_truth_table(bits)
    if poly.degree > d - 1:
        raise CertificateError(
            f"norm within tolerance of 1 but ANF degree is {poly.degree} > {d - 1}"
        )
    if not np.array_equal(poly.code(), f):
        raise CertificateError("recovered polynomial does not reproduce f")
    return poly


@dataclass
class Inverse99Recovery:
    """Successful noisy recovery: sign * (-1)^poly correlates with f."""

    poly: F2Polynomial
    sign: int
    correlation: float
    good_shift_fraction: float
    min_vote_fraction: float
    derivative_degree: int

    def to_json(self) -> dict:
        return {
            "polynomial": self.poly.to_json(),
            "sign": self.sign,
            "correlation": self.correlation,
            "good_shift_fraction": self.good_shift_fraction,
            "min_vote_fraction": self.min_vote_fraction,
            "derivative_degree": self.derivative_degree,
        }


def _derivative_fits(f, d):
    """Gate level and best degree-(d-2) fit P_h of every derivative f * f_h.

    Returns arrays over all shifts h: the level, and the fit as a character
    mask xi plus the signed correlation of f * f_h with e_xi.  For d = 2 the
    level is |E_x f(x) f(x+h)|, read off the autocorrelation (the inverse
    transform of fhat^2), and xi = 0.  For d = 3 the derivatives are
    transformed a block of shifts at a time: the level is
    ||f * f_h||_{U^2} = (sum of ghat^4)^(1/4) and xi the strongest character.
    """
    if d == 2:
        auto = inverse_walsh_hadamard(walsh_hadamard(f) ** 2)
        return np.abs(auto), np.zeros(f.size, dtype=np.int64), auto
    parts = []
    for _, ders in _derivatives(f[None, :]):
        spec = walsh_hadamard(ders)
        xi = np.argmax(np.abs(spec), axis=-1)
        sq = spec * spec
        parts.append((np.sum(sq * sq, axis=-1) ** 0.25, xi, spec[np.arange(xi.size), xi]))
    return tuple(np.concatenate(column) for column in zip(*parts))


def _vote_tallies(kept_set, h1, bit_arr, xi_arr, d):
    """(2, 2^n) integer tallies of the vote: row 0 counts the kept pairs
    h1 + h2 = k, row 1 those whose vote P_{h1}(0) + P_{h2}(h1) is 1.

    For d = 2 xi is zero, so the rows are the XOR convolutions K * K and
    2 B * (K - B) of the kept indicator K and B = K * bit, taken through the
    transform; every value there is a multiple of 2^-2n with at most 2n + 1
    significant bits, so rounding back to integers is exact.  For d = 3 the
    vote carries parity(xi[h2] & h1) and a block of k is gathered at a time.
    """
    size = kept_set.size
    if d == 2:
        k_hat, b_hat = walsh_hadamard(np.stack((kept_set, kept_set * bit_arr)))
        conv = size * inverse_walsh_hadamard(
            np.stack((k_hat * k_hat, 2.0 * b_hat * (k_hat - b_hat)))
        )
        tallies = np.rint(conv)
        if not np.array_equal(tallies, conv):
            raise CertificateError("vote tallies by transform are not integers")
        return tallies.astype(np.int64)
    tallies = np.zeros((2, size), dtype=np.int64)
    for k in _blocks(size, h1.size):
        h2 = h1[None, :] ^ k[:, None]
        ok = kept_set[h2]
        votes = bit_arr[h1] ^ bit_arr[h2] ^ parity(xi_arr[h2] & h1)
        tallies[:, k] = ok.sum(axis=1), (votes & ok).sum(axis=1)
    return tallies


def inverse_99(f, d: int, delta: float):
    """Noisy inverse: recover a degree-(d-1) polynomial from U^d >= 1 - delta.

    Stages: (1) gate on the norm; (2) collect the shifts h whose derivative
    f * f_h has U^{d-1} at least 1 - sqrt(delta) and fit each one with a
    degree-(d-2) polynomial P_h; (3) integrate by majority vote, defining
    Q(k) from P_{h1}(0) + P_{h2}(h1) over every pair h1 + h2 = k of good
    shifts; (4) check deg Q <= d - 1 and attach the best global sign.

    Returns an :class:`Inverse99Recovery` or None; every failure is logged
    with its stage, and ambiguous majority votes are never silently resolved.
    """
    f = ensure_pm_one(f)
    if d not in (2, 3):
        raise PreconditionError("d must be 2 or 3")
    cap = INVERSE99_DELTA_CAP[d]
    if not 0 <= delta <= cap:
        raise PreconditionError(f"delta must lie in [0, {cap}] for d={d}")
    n = cube_dim(f)
    # d = 3 fits and polls every pair of shifts; d = 2 works by transforms
    check_budget(f"inverse_99 (d={d})", n, n * (d - 1))
    size = f.size

    level, xi_arr, corr = _derivative_fits(f, d)
    # ||f||_{U^d}^(2^d) = E_h ||f * f_h||_{U^(d-1)}^(2^(d-1)): the levels' mean power
    u = float(np.mean(level ** (1 << (d - 1)))) ** (1.0 / (1 << d))
    if u < 1.0 - delta - NORM_ONE_TOL:
        logger.info("inverse_99 gate: ||f||_U%d = %.6f < 1 - %.4f", d, u, delta)
        return None

    shift_gate = 1.0 - float(np.sqrt(delta)) - NORM_ONE_TOL
    bit_arr = (corr < 0).astype(np.int64)
    good = level >= shift_gate
    frac = np.count_nonzero(good) / size
    if frac < 0.5:
        logger.info("inverse_99: only %.3f of shifts pass the derivative gate", frac)
        return None

    kept_set = good & ((1.0 + np.abs(corr)) / 2.0 >= VOTE_THRESHOLD)
    h1 = np.flatnonzero(kept_set)
    if h1.size / size < 0.5:
        logger.info("inverse_99: derivative majorities below %.2f", VOTE_THRESHOLD)
        return None

    counts, ones = _vote_tallies(kept_set, h1, bit_arr, xi_arr, d)
    fractions = np.maximum(ones, counts - ones) / np.maximum(counts, 1)
    bad = np.flatnonzero(fractions < VOTE_THRESHOLD)  # an empty k reads 0
    if bad.size:
        k = int(bad[0])
        if counts[k]:
            logger.info("inverse_99: ambiguous vote at k=%d (majority %.3f)", k, fractions[k])
        else:
            logger.info("inverse_99: no good shift pair sums to %d", k)
        return None
    q_bits = (2 * ones > counts).astype(np.int64)

    poly = F2Polynomial.from_truth_table(q_bits)
    if poly.degree > d - 1:
        logger.info("inverse_99: integrated table has degree %d", poly.degree)
        return None
    code = poly.code()
    ip = float((f * code).mean())
    sign = 1 if ip >= 0 else -1
    return Inverse99Recovery(
        poly=poly,
        sign=sign,
        correlation=abs(ip),
        good_shift_fraction=h1.size / size,
        min_vote_fraction=float(fractions.min()),
        derivative_degree=d - 2,
    )


def rigidity_check(poly: F2Polynomial) -> float:
    """Mean of the code (-1)^P; near-1 means forces P to vanish identically."""
    return float(poly.code().mean())


def rigidity_gap(n: int, k: int):
    """Enumerate all degree-<=k codes on F_2^n and locate the rigidity gap.

    Returns (gap, runner_up_mean, runner_up_poly): no code other than the
    all-ones one has mean above 1 - gap.
    """
    atoms = reed_muller_atoms(n, k)
    means = atoms.matrix.mean(axis=1)
    order = np.argsort(-means)
    top = int(order[0])
    if atoms.polynomial(top).monomials != ():
        raise CertificateError("enumeration did not rank the all-ones code first")
    runner = int(order[1])
    gap = 1.0 - float(means[runner])
    return gap, float(means[runner]), atoms.polynomial(runner)


def correlation_search(f, d: int):
    """Exhaustive argmax of <f, g> over all codes of degree <= d - 1.

    Enumeration-budget bound; returns (polynomial, correlation) with the
    correlation signed for the returned code (codes come in +- pairs, so the
    best signed value equals the best absolute one).
    """
    f = np.asarray(f, dtype=float)
    n = cube_dim(f)
    atoms = reed_muller_atoms(n, d - 1)
    corr = atoms.correlations(f)
    best = int(np.argmax(corr))
    return atoms.polynomial(best), float(corr[best])
