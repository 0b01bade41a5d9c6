"""Greedy decompositions in a finite inner-product space.

Vectors are numpy arrays of any shape; the inner product throughout is the
averaging one, ``<f, g> = mean(f * g)``, so anything with entries in [-1, 1]
has norm at most 1.  An :class:`AtomSet` supplies the stock of "basic
structured" directions (all of norm <= 1) together with a violating-atom
search; the decomposition routines are generic over it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BudgetExceededError,
    CertificateError,
    DimensionMismatchError,
    PreconditionError,
)

# Fixed comparison tolerance for eps-threshold tests.
EPS_TOL = 1e-9
# Correlations below this are treated as exactly zero (no usable energy).
MIN_CORR = 1e-12
# Reconstruction / orthogonality tolerance the certificates promise.
RECON_TOL = 1e-10
# Wall-clock allowance for all stages of one strong split.
STAGE_TIME_S = 300.0


def inner_product(f, g) -> float:
    """Averaging inner product ``mean(f * g)`` of two same-shaped arrays."""
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    if f.shape != g.shape:
        raise DimensionMismatchError(f"shape mismatch: {f.shape} vs {g.shape}")
    return float(np.dot(f.ravel(), g.ravel()) / f.size)


def norm(f) -> float:
    """Norm induced by :func:`inner_product`."""
    return math.sqrt(max(inner_product(f, f), 0.0))


@dataclass
class CorrelationScan:
    """Outcome of scanning an atom family against a fixed vector.

    ``lower`` is the best |<f, v>| actually found, ``upper`` a certified upper
    bound over the whole family.  For exact scans the two coincide.
    ``ranking`` holds the (key, <f, atom>) pairs the search produced, best
    first and at most the family's ``max_candidates`` of them.
    """

    lower: float
    upper: float
    exact: bool
    witness: object = None
    ranking: list = field(default_factory=list)

    def candidates(self, eps: float) -> list:
        """The ranked pairs with |<f, atom>| >= eps - EPS_TOL, best first."""
        thresh = max(eps - EPS_TOL, MIN_CORR)
        return [(key, ip) for key, ip in self.ranking if abs(ip) >= thresh]


class AtomSet:
    """A finite family of structured directions, each of norm at most 1.

    ``scan`` is the one search a family implements: it returns the
    pseudorandomness level of f against the family together with the atoms
    correlating with f most strongly, and ``candidates`` filters that ranking.
    Families with a correlation table (``correlations``, the <f, atom> over
    integer keys) inherit ``scan``; ``atom_vector`` gives the dense values of
    one atom.  ``exact`` declares whether an empty search certifies that no
    violating atom exists; heuristic sets must leave it False.
    """

    exact: bool = True
    name: str = "atoms"
    max_candidates: int = 64

    def atom_vector(self, key) -> np.ndarray:
        raise NotImplementedError

    def correlations(self, f) -> np.ndarray:
        """<f, atom> for every atom, indexed by its integer key."""
        raise NotImplementedError

    def candidates(self, f, eps: float) -> list:
        """(key, <f, atom>) pairs with |<f, atom>| >= eps - EPS_TOL, best first."""
        return self.scan(f).candidates(eps)

    def scan(self, f) -> CorrelationScan:
        corr = self.correlations(f)
        mags = np.abs(corr)
        best = int(np.argmax(mags))
        # rank by (-|c|, key) only entries from the k-th largest up: no full sort
        k = min(self.max_candidates, mags.size)
        floor = max(float(np.partition(mags, mags.size - k)[mags.size - k]), MIN_CORR)
        idx = np.flatnonzero(mags >= floor)
        idx = idx[np.lexsort((idx, -mags[idx]))][:k]
        ranking = list(zip(idx.tolist(), corr[idx].tolist()))
        level = float(mags[best])
        return CorrelationScan(lower=level, upper=level, exact=True, witness=best, ranking=ranking)

    def key_json(self, key):
        """JSON-serializable description of an atom key."""
        return key


class DenseAtomSet(AtomSet):
    """Atoms held as rows of an explicit matrix; scans are exhaustive."""

    def __init__(self, matrix, name="dense"):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2:
            raise ValueError("expected one atom per row")
        sq = np.einsum("ij,ij->i", matrix, matrix) / matrix.shape[1]
        if np.any(sq > 1.0 + 1e-9):
            raise PreconditionError("atom norms must not exceed 1")
        self.matrix = matrix
        self.name = name

    def __len__(self):
        return self.matrix.shape[0]

    def atom_vector(self, key):
        return self.matrix[key]

    def correlations(self, f):
        f = np.asarray(f, dtype=float).ravel()
        if f.size != self.matrix.shape[1]:
            raise DimensionMismatchError("vector does not match atom dimension")
        return self.matrix @ f / f.size


class GrowthFunction:
    """A growth function trading structured complexity against pseudorandomness.

    Wraps a map F on positive integers with F(M) > M enforced at every query
    (raising otherwise).  Presets cover the linear, exponential and
    eps**(-1/4) * 2**M families.
    """

    def __init__(self, name, fn):
        self.name = name
        self._fn = fn

    def __call__(self, m: int) -> float:
        try:
            value = float(self._fn(m))
        except OverflowError:
            return math.inf
        if not value > m:
            raise PreconditionError(
                f"growth function {self.name} must satisfy F(M) > M, got F({m}) = {value}"
            )
        return value

    def __repr__(self):
        return f"GrowthFunction({self.name})"

    @classmethod
    def linear(cls, factor, offset=0.0):
        if factor <= 1 and offset <= 0:
            raise PreconditionError("linear growth needs factor > 1 or a positive offset")
        label = f"linear-{factor:g}" + (f"+{offset:g}" if offset else "")
        return cls(label, lambda m: factor * m + offset)

    @classmethod
    def exponential(cls, base=2.0):
        if base <= 1:
            raise PreconditionError("exponential growth needs base > 1")
        return cls(f"exp-{base:g}", lambda m: base**m)

    @classmethod
    def arithmetic_regularity(cls, eps):
        _check_eps(eps)
        scale = eps ** (-0.25)
        return cls(f"arith-reg({eps:g})", lambda m: scale * 2.0**m)


@dataclass
class Decomposition:
    """A certified split f = f_str + f_psd + f_err.

    ``atoms`` lists (key, coefficient) pairs in selection order;
    ``complexity_m`` and ``coeff_bound_k`` are the certified caps on their
    number and magnitude.  ``pseudorandomness_eps`` is the level claimed for
    f_psd and ``scan`` the search of f_psd that ended the split (definitive
    when exact); ``error_norm`` bounds ||f_err||.
    """

    atoms: list
    f_str: np.ndarray
    f_psd: np.ndarray
    f_err: np.ndarray
    complexity_m: int
    coeff_bound_k: float
    pseudorandomness_eps: float
    scan: CorrelationScan
    error_norm: float
    iterations: int
    trace: list = field(default_factory=list)
    stages: list | None = None
    growth_m: int | None = None

    @property
    def pseudo_exact(self) -> bool:
        return self.scan.exact

    @property
    def pseudo_found(self) -> float:
        return self.scan.lower

    def reconstruct(self) -> np.ndarray:
        return self.f_str + self.f_psd + self.f_err

    def max_coefficient(self) -> float:
        return max((abs(c) for _, c in self.atoms), default=0.0)

    def to_json_dict(self, atom_set: AtomSet | None = None) -> dict:
        describe = atom_set.key_json if atom_set is not None else (lambda k: k)
        return {
            "atoms": [{"atom": describe(k), "coefficient": c} for k, c in self.atoms],
            "complexity_M": self.complexity_m,
            "coeff_bound_K": self.coeff_bound_k,
            "max_coefficient": self.max_coefficient(),
            "pseudorandomness_eps": self.pseudorandomness_eps,
            "pseudo_exact": self.pseudo_exact,
            "pseudo_found": self.pseudo_found,
            "error_norm": self.error_norm,
            "norm_str": norm(self.f_str),
            "norm_psd": norm(self.f_psd),
            "norm_err": norm(self.f_err),
            "iterations": self.iterations,
            "trace": self.trace,
            "stages": self.stages,
            "growth_M": self.growth_m,
        }

    def verify(self, f, atom_set: AtomSet) -> None:
        """Re-derive every certified claim; raise CertificateError on any gap."""
        f = np.asarray(f, dtype=float)
        if norm(f - self.reconstruct()) > RECON_TOL:
            raise CertificateError("reconstruction f_str + f_psd + f_err != f")
        if len(self.atoms) > self.complexity_m:
            raise CertificateError("more atoms than the certified complexity")
        if self.atoms and self.max_coefficient() > self.coeff_bound_k + EPS_TOL:
            raise CertificateError("coefficient exceeds the certified bound")
        if norm(self.f_err) > self.error_norm + EPS_TOL:
            raise CertificateError("f_err larger than the certified error norm")
        combo = np.zeros_like(f, dtype=float)
        for key, c in self.atoms:
            combo = combo + c * atom_set.atom_vector(key)
        if norm(self.f_str - combo) > RECON_TOL:
            raise CertificateError("f_str is not the recorded atom combination")
        scan = atom_set.scan(self.f_psd)
        if scan.lower > self.pseudorandomness_eps + EPS_TOL:
            raise CertificateError(
                f"f_psd correlates at {scan.lower}, above the certified "
                f"{self.pseudorandomness_eps}"
            )


def _check_eps(eps):
    if not 0 < eps <= 1:
        raise PreconditionError(f"eps must lie in (0, 1], got {eps}")


def _unit_vector(f) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    n = norm(f)
    if n > 1.0 + EPS_TOL:
        raise PreconditionError(f"||f|| = {n} exceeds 1")
    return f


def _iteration_budget(eps, energy_cap=1.0):
    # floor(energy_cap/eps^2), guarded against float dust in 1/eps**2.
    return int(math.floor((energy_cap / (eps * eps)) * (1.0 + 1e-12) + 1e-12))


def weak_decompose(f, atom_set: AtomSet, eps: float) -> Decomposition:
    """Greedy energy-decrement split f = f_str + f_psd with zero error term.

    Each accepted atom removes at least eps^2 of energy from the residual, so
    at most floor(1/eps^2) iterations occur; f_str ends up built from that many
    atoms with coefficients bounded by 1/eps, and f_psd is eps-pseudorandom
    (certified by the final scan, definitive for exact atom sets).
    """
    _check_eps(eps)
    f = _unit_vector(f)
    budget = _iteration_budget(eps)
    f_psd = f.copy()
    f_str = np.zeros_like(f)
    atoms = []
    trace = []
    scan = atom_set.scan(f_psd)
    while found := scan.candidates(eps):
        key, ip = found[0]
        v = atom_set.atom_vector(key)
        c = ip / inner_product(v, v)
        if abs(c) > 1.0 / eps + EPS_TOL:
            raise CertificateError("projection coefficient exceeds 1/eps")
        if len(atoms) >= budget:
            raise CertificateError("energy argument violated: budget exceeded")
        f_psd = f_psd - c * v
        f_str = f_str + c * v
        atoms.append((key, c))
        trace.append(
            {"atom": atom_set.key_json(key), "coefficient": c, "energy": inner_product(f_psd, f_psd)}
        )
        scan = atom_set.scan(f_psd)
    return Decomposition(
        atoms=atoms,
        f_str=f_str,
        f_psd=f_psd,
        f_err=np.zeros_like(f),
        complexity_m=budget,
        coeff_bound_k=1.0 / eps,
        pseudorandomness_eps=eps,
        scan=scan,
        error_norm=0.0,
        iterations=len(atoms),
        trace=trace,
    )


# Atoms whose component orthogonal to the current span is shorter than this
# are rejected (cannot happen for exact searches; the selected atom always
# makes a definite angle with the span).
SPAN_REJECT_TOL = 1e-8


class Span:
    """A stage's projection f_str of ``target`` onto the span of the atoms it
    selects, whose orthonormal basis is the rows of ``basis``; f_psd is
    target - f_str, and ``atoms`` expands f_str over the raw atoms.  Each stage
    projects the residual of the committed ones (``kept_str``, ``kept_atoms``).
    ``last`` is the scan of f_psd, run again only when f_psd moves."""

    def __init__(self, f, atom_set: AtomSet, complexity_cap=math.inf):
        self.atom_set, self.complexity_cap = atom_set, complexity_cap
        self.kept_str, self.kept_atoms = np.zeros_like(f), []
        self.f_str, self.f_psd, self.atoms = np.zeros_like(f), np.array(f, dtype=float), []
        self.last = atom_set.scan(self.f_psd)
        self.keep()

    def grow(self, threshold):
        """Select atoms correlating with f_psd at ``threshold`` until none is
        left; returns (stage record fields, energy moved by the stage)."""
        while self._select(threshold):
            pass
        if self.keys:
            gram = self.raw @ self.raw.T / self.target.size
            rhs = self.raw @ self.target.ravel() / self.target.size
            try:
                coeffs = np.linalg.solve(gram, rhs)
            except np.linalg.LinAlgError:
                coeffs = np.linalg.lstsq(gram, rhs, rcond=None)[0]
            self.atoms = list(zip(self.keys, (float(c) for c in coeffs)))
        if len(self.kept_atoms) + len(self.atoms) > self.complexity_cap:
            raise BudgetExceededError(
                "total structured complexity exceeded the cap", partial={"atoms": self.kept_atoms}
            )
        drop = inner_product(self.target, self.target) - inner_product(self.f_psd, self.f_psd)
        return {"atoms": len(self.atoms), "energy_drop": drop}, drop

    def _select(self, threshold) -> bool:
        """Add the first candidate outside the span; False when there is none."""
        atom_set, size = self.atom_set, self.target.size
        for key, _ in self.last.candidates(threshold):
            v = np.asarray(atom_set.atom_vector(key), dtype=float).ravel()
            u = v - self.basis.T @ (self.basis @ v / size)
            u = u - self.basis.T @ (self.basis @ u / size)  # a second pass keeps it tight
            nu = norm(u)
            if nu >= SPAN_REJECT_TOL:
                break
            if atom_set.exact:
                raise CertificateError("exact search proposed an atom inside the current span")
        else:
            return False
        k = len(self.keys)
        if k >= _iteration_budget(threshold):
            raise CertificateError("energy argument violated: budget exceeded")
        if k == self._rows.shape[1]:  # double the capacity: O(1) amortized copies per atom
            grown = np.empty((2, 2 * k or 1, size))
            grown[:, :k] = self._rows
            self._rows = grown
        self._rows[0, k], self._rows[1, k] = v, u / nu
        self.raw, self.basis = self._rows[0, : k + 1], self._rows[1, : k + 1]
        self.keys.append(key)
        q = self.basis[-1].reshape(self.target.shape)
        self.f_str = self.f_str + inner_product(self.target, q) * q
        self.f_psd = self.target - self.f_str
        energy = inner_product(self.f_psd, self.f_psd)
        self.trace.append({"atom": atom_set.key_json(key), "energy": energy})
        self.last = atom_set.scan(self.f_psd)
        return True

    def clears(self, threshold) -> bool:
        return bool(self.last.candidates(threshold))

    def keep(self):
        """Commit the stage and restart on its residual with an empty span."""
        self.kept_str = self.kept_str + self.f_str
        self.kept_atoms.extend(self.atoms)
        self.target = self.f_psd
        self._rows = np.empty((2, 0, self.target.size))  # raw atoms, basis; grown in _select
        self.raw, self.basis = self._rows[0], self._rows[1]
        self.keys, self.atoms, self.trace = [], [], []
        self.f_str = np.zeros_like(self.target)


def orthogonal_weak_decompose(f, atom_set: AtomSet, eps: float) -> Decomposition:
    """Energy-decrement split with f_str an orthogonal projection of f.

    Selected atoms are orthonormalized incrementally; f_str is the projection
    of f onto their span, so <f_str, f_psd> = 0 and Pythagoras holds exactly
    (to arithmetic tolerance).  Coefficients over the raw atoms are recovered
    from the Gram system and recorded with their empirical bound.
    """
    _check_eps(eps)
    f = _unit_vector(f)
    span = Span(f, atom_set)
    span.grow(eps)
    return Decomposition(
        atoms=span.atoms,
        f_str=span.f_str,
        f_psd=span.f_psd,
        f_err=np.zeros_like(f),
        complexity_m=_iteration_budget(eps),
        coeff_bound_k=max((abs(c) for _, c in span.atoms), default=0.0),
        pseudorandomness_eps=eps,
        scan=span.last,
        error_norm=0.0,
        iterations=len(span.atoms),
        trace=span.trace,
    )


def run_stages(eps, growth, schedule, structure, *, complexity_cap, energy_cap=1.0):
    """The pigeonhole stage loop shared by the strong splits.

    Stage i works at threshold 1/W_i with W_i = ceil(F(M_{i-1})) along
    M_0 = 1, M_i = schedule(W_i).  ``structure.grow(threshold)`` adds
    structure until no candidate clears the threshold and returns (fields for
    the stage record, energy the stage moved); ``structure.clears(threshold)``
    tells whether some candidate clears it; ``structure.keep()`` commits the
    stage.  A stage whose M lies beyond ``complexity_cap`` may terminate but
    must not build, so a candidate clearing its threshold raises
    BudgetExceededError.  The first stage moving at most eps^2 ends the run
    uncommitted; the energy is at most ``energy_cap``, so one does within
    floor(energy_cap/eps^2) + 1 stages.
    Returns (stage records, the last threshold, the M before it).
    """
    _check_eps(eps)
    m_prev = 1
    stages = []
    started = time.monotonic()
    for index in range(1, _iteration_budget(eps, energy_cap) + 2):
        width = growth(m_prev)
        width = width if math.isinf(width) else int(math.ceil(width - 1e-9))
        threshold = MIN_CORR if math.isinf(width) else 1.0 / width
        m_next = schedule(width)
        over_cap = math.isinf(m_next) or m_next > complexity_cap
        if over_cap and structure.clears(threshold):
            raise BudgetExceededError(
                f"stage {index} needs structure beyond the complexity cap "
                f"(M = {m_next} > {complexity_cap})",
                partial={"stages": stages},
            )
        fields, moved = structure.grow(threshold)
        stages.append(
            {
                "stage": index,
                "M": None if math.isinf(m_next) else int(m_next),
                "threshold": threshold,
                **fields,
            }
        )
        if moved <= eps * eps + 1e-12:
            return stages, threshold, m_prev
        structure.keep()
        m_prev = m_next
        if time.monotonic() - started > STAGE_TIME_S:
            raise BudgetExceededError(
                f"stage wall clock exceeded {STAGE_TIME_S}s", partial={"stages": stages}
            )
    raise CertificateError("pigeonhole failed: no stage moved at most eps^2 of energy")


def strong_decompose(
    f,
    atom_set: AtomSet,
    eps: float,
    growth: GrowthFunction,
    *,
    complexity_cap: int = 10**6,
) -> Decomposition:
    """Three-part split with pseudorandomness quality set by a growth function.

    Runs orthogonal stages at thresholds 1/M_i along M_0 = 1, M_i = F(M_{i-1})
    until some stage removes at most eps^2 of energy; that stage's structured
    part becomes f_err (norm <= eps), everything before it f_str, and the
    final residual f_psd, which is 1/F(M)-pseudorandom for the reported
    M = M_{i-1}.  The pigeonhole guarantees the stopping stage appears within
    floor(1/eps^2) + 1 stages.

    The complexity cap applies to structure actually built: a stage whose
    threshold sits beyond the cap is still allowed to *terminate* immediately
    (its scan finds nothing), but selecting an atom there raises
    BudgetExceededError, as does exceeding the stage wall clock.
    """
    f = _unit_vector(f)
    span = Span(f, atom_set, complexity_cap)
    stages, threshold, growth_m = run_stages(
        eps, growth, lambda width: width, span, complexity_cap=complexity_cap
    )
    return Decomposition(
        atoms=list(span.kept_atoms),
        f_str=span.kept_str,
        f_psd=span.f_psd,
        f_err=span.f_str,
        complexity_m=max(len(span.kept_atoms), 1),
        coeff_bound_k=max((abs(c) for _, c in span.kept_atoms), default=0.0),
        pseudorandomness_eps=threshold,
        scan=span.last,
        error_norm=eps,
        iterations=sum(s["atoms"] for s in stages),
        trace=span.trace,
        stages=stages,
        growth_m=growth_m,
    )
