"""Finite probability spaces, factors, and energy-increment decompositions.

A factor is a finite measurable partition, held as a label per point; joining
factors intersects their atoms.  Conditional expectation replaces a function
by its weighted atom averages and is the orthogonal projection onto the
factor-measurable functions, which is what drives every argument here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .errors import (
    CertificateError,
    MajorantViolationError,
    PreconditionError,
)
from .hilbert import EPS_TOL, RECON_TOL, GrowthFunction, _check_eps, _iteration_budget, run_stages


class FiniteProbabilitySpace:
    """Point weights summing to one; the uniform constructor covers most uses."""

    def __init__(self, weights):
        w = np.asarray(weights, dtype=float)
        if np.any(w < 0):
            raise PreconditionError("weights must be non-negative")
        if abs(w.sum() - 1.0) > 1e-12:
            raise PreconditionError(f"weights sum to {w.sum()}, not 1")
        self._adopt(w)

    def _adopt(self, w):
        self.weights = w
        self.size = w.size
        live = w > 0
        self._live = None if live.all() else live

    @classmethod
    def uniform(cls, n: int):
        return cls(np.full(n, 1.0 / n))

    @classmethod
    def quotient(cls, space, factor):
        """The atoms of ``factor`` as points, weighted by their masses under
        ``space``.  The masses sum to one only up to rounding, which ``space``
        has already been checked against, so they are not checked again."""
        quotient = cls.__new__(cls)
        quotient._adopt(factor.masses(space))
        return quotient

    def integral(self, f) -> float:
        return float(np.dot(self.weights, np.asarray(f, dtype=float)))

    def inner(self, f, g) -> float:
        return float(np.dot(self.weights, np.asarray(f) * np.asarray(g)))

    def l1(self, f) -> float:
        return self.integral(np.abs(np.asarray(f, dtype=float)))

    def l2(self, f) -> float:
        return math.sqrt(max(self.inner(f, f), 0.0))

    def linf(self, f) -> float:
        """max |f| over the points of positive weight (0 when there are none)."""
        f = np.asarray(f, dtype=float)
        if self._live is not None:
            f = f[self._live]
        return float(np.max(np.abs(f))) if f.size else 0.0


class Factor:
    """A partition of the points, as an atom label per point.

    Labels are canonicalized to 0..num_atoms-1 in the order of the given
    values.  Integer labels in [0, N) on N points are ranked by counting
    (the count array is no longer than the labels; labels holding every value
    up to their largest are already ranked); any other labels are sorted.
    """

    def __init__(self, labels):
        labels = np.asarray(labels)
        if labels.dtype == np.bool_:
            labels = labels.view(np.uint8)  # so that indexing by labels gathers
        n = labels.size
        if labels.ndim == 1 and labels.dtype.kind in "iu" and (
            n == 0 or (labels.min() >= 0 and labels.max() < n)
        ):
            # 0/1 labels (indicators, the trivial factor) need no count
            small = n and labels.max() <= 1
            present = np.array([labels.min() == 0, True]) if small else np.bincount(labels) > 0
            inverse = labels.astype(np.int64) if present.all() else (np.cumsum(present) - 1)[labels]
        else:
            _, inverse = np.unique(labels, return_inverse=True)
        self.labels = inverse.astype(np.int64, copy=False)
        self.num_atoms = int(self.labels.max()) + 1 if self.labels.size else 0

    @classmethod
    def trivial(cls, n: int):
        return cls(np.zeros(n, dtype=np.uint8))

    @classmethod
    def discrete(cls, n: int):
        return cls(np.arange(n, dtype=np.int64))

    @classmethod
    def from_indicator(cls, mask):
        return cls(np.asarray(mask, dtype=bool))

    def atoms(self):
        return [np.flatnonzero(self.labels == a) for a in range(self.num_atoms)]

    def masses(self, space: FiniteProbabilitySpace) -> np.ndarray:
        """The measure of every atom under ``space``."""
        if self.labels.size != space.size:
            raise PreconditionError("the factor and the space live on different ground sets")
        return np.bincount(self.labels, weights=space.weights, minlength=self.num_atoms)

    def join(self, other: "Factor") -> "Factor":
        if self.labels.size != other.labels.size:
            raise PreconditionError("factors live on different ground sets")
        paired = self.labels * (other.labels.max() + 1) + other.labels
        return Factor(paired)

    def refines(self, other: "Factor") -> bool:
        """True when every atom of self sits inside one atom of other."""
        return self.join(other).num_atoms == self.num_atoms

    def __eq__(self, other):
        return isinstance(other, Factor) and np.array_equal(self.labels, other.labels)


class FactorFamily:
    """The structure stock: an indexed finite collection of factors, fixed
    at construction."""

    def __init__(self, members):
        self.members, self._table = tuple(members), None

    def __len__(self):
        return len(self.members)

    def __getitem__(self, i) -> Factor:
        return self.members[i]

    def table(self, size: int, base: Factor | None = None) -> "AtomTable":
        """The atom table of the members' common refinement on ``size`` points,
        kept until a scan on another number of points; with a ``base`` of more
        than one atom, of base joined with the members, built afresh."""
        if base is not None and base.num_atoms > 1:
            return AtomTable(self.members, size, base)
        if self._table is None or self._table.factor.labels.size != size:
            self._table = AtomTable(self.members, size)
        return self._table

    def projections(self, space, f) -> np.ndarray:
        """||E(f | Y)||_2 for every member Y, in member order, from the atom
        sums of one weighted copy of f over the stock's common refinement."""
        table = self.table(space.size)
        weighted = space.weights * np.asarray(f, dtype=float)
        return table.levels(table.quotient(space), table.sums(weighted))


class AtomTable:
    """The common refinement J of a base factor and some members on one
    ground set, as an atom table.

    J's atoms are the nonempty intersections of one atom of each factor.  The
    table keeps J as a factor on the points (``factor``) and each factor as a
    factor on the atoms of J (``base``, trivial when none is given, and
    ``members``).  Every factor they generate is a union of atoms of J, so
    conditioning on it reads only J's atom sums: it is conditioning on the
    quotient space whose points are the atoms of J, weighted by their masses.
    """

    def __init__(self, members, size: int, base: Factor | None = None):
        factors = list(members) if base is None else [base, *members]
        # mixed-radix codes, lexicographic in the label tuple (so J's labels
        # are those of joining the factors in turn), ranked by counting
        # whenever the radix would pass N
        code, radix = np.zeros(size, dtype=np.int64), 1
        for y in factors:
            if y.labels.size != size:
                raise PreconditionError("factors live on different ground sets")
            if radix * y.num_atoms > size:
                ranked = Factor(code)
                code, radix = ranked.labels, ranked.num_atoms
            code *= y.num_atoms
            code += y.labels
            radix *= y.num_atoms
        self.factor = Factor(code)
        rep = np.empty(self.factor.num_atoms, dtype=np.int64)  # one point of every atom
        rep[self.factor.labels] = np.arange(size)
        on_atoms = [Factor(y.labels[rep]) for y in factors]
        self.base = Factor.trivial(self.factor.num_atoms) if base is None else on_atoms.pop(0)
        self.members = on_atoms
        self._quotient = (None, None)

    def quotient(self, space) -> FiniteProbabilitySpace:
        """The atoms of J weighted by their masses, kept for the last space."""
        counted_on, quotient = self._quotient
        if counted_on is not space:
            quotient = FiniteProbabilitySpace.quotient(space, self.factor)
            self._quotient = (space, quotient)
        return quotient

    def sums(self, weighted) -> np.ndarray:
        """J's atom sums of ``weighted`` = weights * f: f on the quotient space,
        weighted by the masses."""
        return np.bincount(self.factor.labels, weights=weighted, minlength=self.factor.num_atoms)

    def levels(self, quotient, sums) -> np.ndarray:
        """||E(f | Y)||_2 for every member Y, from J's atom ``sums`` of weights * f."""
        return np.sqrt([_atom_averages(quotient, sums, y)[1] for y in self.members])

    def lift(self, factor: Factor) -> Factor:
        """A factor on the atoms of J as a factor on the points."""
        return Factor(factor.labels[self.factor.labels])


def _atom_averages(space, weighted, factor: Factor):
    """Atom averages of f from ``weighted`` = weights * f (0 on atoms of
    measure zero), and ||E(f | factor)||_2^2 = sum over atoms of sum^2/mass."""
    masses = factor.masses(space)
    sums = np.bincount(factor.labels, weights=weighted, minlength=factor.num_atoms)
    averages = np.divide(sums, masses, out=np.zeros_like(sums), where=masses > 0)
    return averages, float(np.dot(averages, sums))


def conditional_expectation(space: FiniteProbabilitySpace, f, factor: Factor):
    """Weighted atom averages of f, constant on each atom of the factor."""
    averages, _ = _atom_averages(space, space.weights * np.asarray(f, dtype=float), factor)
    return averages[factor.labels]


def projection_norm(space, f, factor: Factor) -> float:
    """||E(f | factor)||_2."""
    return math.sqrt(_atom_averages(space, space.weights * np.asarray(f, dtype=float), factor)[1])


def majorant_level(space, weighted_nu, eta, factor, members) -> float:
    """||E(nu | factor)||_inf (the largest |atom average|, as every atom of
    positive mass holds a point of positive weight) from the atom sums of
    ``weighted_nu`` = weights * nu, raising MajorantViolationError naming the
    stock members behind the factor when it exceeds 1 + eta.  A refinement
    passes J's quotient space and J's atom sums of weights * nu."""
    level = float(np.max(np.abs(_atom_averages(space, weighted_nu, factor)[0]), initial=0.0))
    if level > 1.0 + eta + EPS_TOL:
        message = f"majorant conditional expectation reaches {level:.6f} > 1 + {eta}"
        raise MajorantViolationError(message, members=members, linf=level)
    return level


class Refinement:
    """A factor refined by joining stock members, with f_str = E(f | factor)
    and its ``energy``; the ``kept_`` fields hold the committed stages, which
    the current stage refines further.  It works on the atom table of the
    starting factor joined with the stock: ``factor`` lives on the atoms of
    J, the atom sums of weights * f over J are taken once, and the energy,
    every stock scan of the residual (J's sums of weights * f less masses
    times f_str) and every majorant check are read off them; f_str is
    gathered to the points once per factor.  Under a majorant (nu, eta) the
    stock (up front) and every factor used are checked by ``majorant_level``,
    which caps the energy by (1 + eta)^2; ``majorant_linf`` is the largest
    level found."""

    def __init__(self, space, f, family, factor, majorant=None):
        self.table = family.table(space.size, factor)
        self.quotient = self.table.quotient(space)
        self.sums = self.table.sums(space.weights * f)
        self.energy_cap = 1.0 if majorant is None else (1.0 + majorant[1]) ** 2
        self.factor, self.majorant, self.majorant_linf = self.table.base, None, None
        if majorant is not None:  # the stock first, so violations surface before any work
            nu_sums = self.table.sums(space.weights * np.asarray(majorant[0], dtype=float))
            self.majorant = (nu_sums, majorant[1])
            levels = (
                majorant_level(self.quotient, *self.majorant, y, (i,))
                for i, y in enumerate(self.table.members)
            )
            self.majorant_linf = max(levels, default=None)
        self._check_majorant(())
        self._condition()
        self.keep()

    def _condition(self):
        averages, self.energy = _atom_averages(self.quotient, self.sums, self.factor)
        self.atom_str = averages[self.factor.labels]  # f_str on the atoms of J
        self.f_str = self.atom_str[self.table.factor.labels]

    def _check_majorant(self, members):
        if self.majorant is not None:
            level = majorant_level(self.quotient, *self.majorant, self.factor, members)
            self.majorant_linf = max(level, self.majorant_linf or 0.0)

    def _best(self, threshold):
        """The member f - f_str projects onto furthest (lowest on ties) if that
        projection exceeds ``threshold``, else None; ``levels`` keeps the scan."""
        residual = self.sums - self.quotient.weights * self.atom_str
        self.levels = self.table.levels(self.quotient, residual)
        if self.levels.size and self.levels.max() > threshold + EPS_TOL:
            return int(np.argmax(self.levels))
        return None

    def grow(self, threshold):
        """Join the member the residual projects onto furthest while that
        projection exceeds ``threshold``; returns (stage record fields,
        energy gained by the stage)."""
        budget = _iteration_budget(threshold, self.energy_cap)
        while (idx := self._best(threshold)) is not None:
            if len(self.members) >= budget:
                raise CertificateError("energy argument violated: join budget exceeded")
            self.members.append(idx)
            self.factor = self.factor.join(self.table.members[idx])
            self._check_majorant(tuple(self.members))
            self._condition()
            if self.energy > self.energy_cap + EPS_TOL:
                raise CertificateError(
                    f"projected energy {self.energy} exceeded the cap {self.energy_cap}"
                )
            self.trace.append({"member": idx, "energy": self.energy})
        gain = self.energy - self.kept_energy
        members = list(self.members)
        return {"joins": len(members), "energy_gain": gain, "members": members}, gain

    def clears(self, threshold) -> bool:
        return self._best(threshold) is not None

    def keep(self):
        self.kept_factor, self.kept_f_str, self.kept_energy = self.factor, self.f_str, self.energy
        self.members, self.trace = [], []


@dataclass
class FactorDecomposition:
    """Certified three-part factor split f = f_str + f_psd + f_err.

    ``pseudo_found`` is the largest stock projection of f_psd in the scan that
    ended the split, and ``trace`` the per-join records of its last stage.
    """

    factor: Factor
    member_indices: list
    f_str: np.ndarray
    f_psd: np.ndarray
    f_err: np.ndarray
    growth_m: int | None
    complexity: int
    pseudorandomness_eps: float
    pseudo_found: float
    error_norm: float
    stage_index: int
    stages: list = field(default_factory=list)
    majorant_linf: float | None = None
    trace: list = field(default_factory=list)

    def reconstruct(self):
        return self.f_str + self.f_psd + self.f_err

    def to_json_dict(self) -> dict:
        return {
            "member_indices": list(self.member_indices),
            "complexity": self.complexity,
            "growth_M": self.growth_m,
            "pseudorandomness_eps": self.pseudorandomness_eps,
            "pseudo_found": self.pseudo_found,
            "error_norm": self.error_norm,
            "stage_index": self.stage_index,
            "stages": self.stages,
            "majorant_linf": self.majorant_linf,
            "atom_count": self.factor.num_atoms,
        }

    def verify(self, space, f, family: FactorFamily, base: Factor | None = None) -> None:
        """Re-derive every certified claim for a split that started from
        ``base`` (the trivial factor by default)."""
        f = np.asarray(f, dtype=float)
        parts = ([] if base is None else [base]) + [family[i] for i in self.member_indices]
        # with nothing to join, the factor must be trivial: one atom
        matches = reduce(Factor.join, parts) == self.factor if parts else self.factor.num_atoms == 1
        if not matches:
            raise CertificateError("factor is not the base joined with the recorded members")
        if space.l2(f - self.reconstruct()) > RECON_TOL:
            raise CertificateError("reconstruction failed")
        expected = conditional_expectation(space, f, self.factor)
        if space.l2(self.f_str - expected) > RECON_TOL:
            raise CertificateError("f_str is not E(f | factor)")
        if space.l2(self.f_err) > self.error_norm + EPS_TOL:
            raise CertificateError("f_err exceeds the certified bound")
        worst = float(family.projections(space, self.f_psd).max(initial=0.0))
        if worst > self.pseudorandomness_eps + EPS_TOL:
            raise CertificateError(
                f"f_psd projects at {worst}, above {self.pseudorandomness_eps}"
            )


def weak_factor_decompose(
    space,
    f,
    base: Factor,
    family: FactorFamily,
    eps: float,
) -> FactorDecomposition:
    """Join stock factors onto ``base`` until the residual projects small.

    f_str = E(f | base joined with the selections), f_psd = f - f_str with
    every stock projection of f_psd at most eps, and f_err = 0.  Requires
    ||f||_2 <= 1 and finishes within 1/eps^2 steps.
    """
    f = np.asarray(f, dtype=float)
    _check_eps(eps)
    if space.l2(f) > 1.0 + EPS_TOL:
        raise PreconditionError("||f||_2 must be at most 1")
    split = Refinement(space, f, family, base)
    fields, _ = split.grow(eps)
    return FactorDecomposition(
        factor=split.table.lift(split.factor),
        member_indices=split.members,
        f_str=split.f_str,
        f_psd=f - split.f_str,
        f_err=np.zeros_like(f),
        growth_m=None,
        complexity=len(split.members),
        pseudorandomness_eps=eps,
        # the scan that ended the split ran on this same residual
        pseudo_found=float(split.levels.max(initial=0.0)),
        error_norm=0.0,
        stage_index=1,
        stages=[{"threshold": eps, **fields}],
        trace=split.trace,
    )


def strong_factor_decompose(
    space,
    f,
    family: FactorFamily,
    eps: float,
    growth: GrowthFunction,
    *,
    majorant=None,
    complexity_cap: int = 10**6,
) -> FactorDecomposition:
    """Three-part factor split with growth-controlled pseudorandomness.

    Stage i refines the factor at threshold 1/F(M_{i-1}) along the sequence
    M_0 = 1, M_i = F(M_{i-1})^2 until a stage gains at most eps^2 of energy;
    f_str is the conditional expectation before that stage, f_err the gain of
    the stage (norm <= eps), f_psd the final residual, 1/F(M)-pseudorandom
    with M the reported sequence value.  Requires F(M) >= 2M, and ||f||_2 <= 1
    unless a majorant (nu, eta) is given (see ``Refinement``).
    """
    f = np.asarray(f, dtype=float)
    if majorant is None and space.l2(f) > 1.0 + EPS_TOL:
        raise PreconditionError("||f||_2 must be at most 1 without a majorant")
    refinement = Refinement(space, f, family, Factor.trivial(space.size), majorant)

    def doubling(m):
        value = growth(m)
        if value < 2 * m:
            raise PreconditionError(f"growth must satisfy F(M) >= 2M, got F({m}) = {value}")
        return value

    stages, threshold, growth_m = run_stages(
        eps,
        doubling,
        lambda width: width * width,
        refinement,
        complexity_cap=complexity_cap,
        energy_cap=refinement.energy_cap,
    )
    return FactorDecomposition(
        factor=refinement.table.lift(refinement.kept_factor),
        member_indices=[i for s in stages[:-1] for i in s["members"]],
        f_str=refinement.kept_f_str,
        f_psd=f - refinement.f_str,
        f_err=refinement.f_str - refinement.kept_f_str,
        growth_m=growth_m,
        complexity=sum(s["joins"] for s in stages[:-1]),
        pseudorandomness_eps=threshold,
        # the scan that ended the last stage ran on this same residual
        pseudo_found=float(refinement.levels.max(initial=0.0)),
        error_norm=eps,
        stage_index=len(stages),
        stages=stages,
        majorant_linf=refinement.majorant_linf,
        trace=refinement.trace,
    )


def sparse_decompose(
    space,
    f,
    nu,
    family: FactorFamily,
    eps: float,
    growth: GrowthFunction,
    eta: float,
) -> FactorDecomposition:
    """Structure theorem under a pseudorandom majorant instead of boundedness.

    Requires 0 <= f <= nu pointwise.  Every stock member and every factor
    actually conditioned on is checked to satisfy ||E(nu | Y)||_inf <= 1 + eta
    (raising MajorantViolationError naming the factor otherwise), which caps
    projected energies by (1 + eta)^2 and gives the dense conclusions back:
    f_str lands in [0, 1 + eta] pointwise and keeps the integral of f.
    """
    f = np.asarray(f, dtype=float)
    nu = np.asarray(nu, dtype=float)
    if eta < 0:
        raise PreconditionError("eta must be non-negative")
    if np.any(nu < -1e-12):
        raise PreconditionError("the majorant must be non-negative")
    if np.any((f < -1e-12) | (f > nu + 1e-9)):
        raise PreconditionError("need 0 <= f <= nu pointwise")
    dec = strong_factor_decompose(space, f, family, eps, growth, majorant=(nu, eta))
    if np.any(dec.f_str < -1e-9) or np.any(dec.f_str > 1.0 + eta + 1e-9):
        raise CertificateError("f_str escaped [0, 1 + eta]")
    # E(f | Y) keeps the integral exactly; each of the two length-N weighted
    # sums compared here rounds off by up to about N * 2^-53 * E|f|
    mean_tol = max(1e-12, 2 * space.size * 2.0**-53 * space.l1(f))
    if abs(space.integral(dec.f_str) - space.integral(f)) > mean_tol:
        raise CertificateError("conditional expectation failed to keep the mean")
    return dec


def level_set_factor(g, eps: float, alpha: float = 0.0) -> Factor:
    """Partition by the level sets g in [(k + alpha) eps, (k + 1 + alpha) eps).

    Oscillation of g inside each atom is below eps, so projections onto this
    factor retain correlation with g up to an eps loss.
    """
    if eps <= 0:
        raise PreconditionError("eps must be positive")
    if not 0 <= alpha < 1:
        raise PreconditionError("alpha must lie in [0, 1)")
    g = np.asarray(g, dtype=float)
    return Factor(np.floor(g / eps - alpha).astype(np.int64))


def interval_factor(n: int, start: int, stop: int) -> Factor:
    """The two-atom factor {[start, stop), complement} on n points."""
    if not 0 <= start < stop <= n:
        raise PreconditionError("need 0 <= start < stop <= n")
    mask = np.zeros(n, dtype=bool)
    mask[start:stop] = True
    return Factor.from_indicator(mask)


def dyadic_interval_family(n: int, min_length: int) -> FactorFamily:
    """All dyadic-interval factors of length >= min_length (proper subsets)."""
    members = []
    length = n
    while length >= max(1, min_length):
        if length < n:
            for start in range(0, n, length):
                members.append(interval_factor(n, start, min(start + length, n)))
        length //= 2
    return FactorFamily(members=members)
