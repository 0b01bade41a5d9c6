"""structrand: splitting arbitrary objects into structure, randomness, and error.

Greedy energy-decrement decompositions in finite inner-product spaces and
their conditional-expectation analogues on finite probability spaces,
instantiated to Fourier and Reed-Muller structure on the Hamming cube, cut
structure on graphs (regularity lemmas), Gowers uniformity norms, and the
near-maximal inverse theorems.
"""

__version__ = "0.1.0"

from .arithreg import CosetEntry, CosetReport, arithmetic_regularize
from .cube import (
    CharacterAtomSet,
    F2Polynomial,
    ReedMullerAtomSet,
    character,
    character_atoms,
    inverse_walsh_hadamard,
    mobius_transform,
    reed_muller_atoms,
    shift,
    walsh_hadamard,
)
from .errors import (
    BudgetExceededError,
    CertificateError,
    DimensionMismatchError,
    MajorantViolationError,
    PreconditionError,
)
from .factors import (
    Factor,
    FactorDecomposition,
    FactorFamily,
    FiniteProbabilitySpace,
    conditional_expectation,
    dyadic_interval_family,
    interval_factor,
    level_set_factor,
    projection_norm,
    sparse_decompose,
    strong_factor_decompose,
    weak_factor_decompose,
)
from .gowers import (
    dual_function,
    gowers_norm,
    gowers_norm_batch,
    gowers_norm_u2_fft,
    gvn_defect,
)
from .graphs import (
    CutAtom,
    CutAtomSet,
    RegularityPartition,
    edge_density,
    gnp_random_graph,
    graph_from_edges,
    regular_pair_check,
    szemeredi_regularize,
    weak_regularize,
)
from .hilbert import (
    AtomSet,
    CorrelationScan,
    Decomposition,
    DenseAtomSet,
    GrowthFunction,
    inner_product,
    norm,
    orthogonal_weak_decompose,
    strong_decompose,
    weak_decompose,
)
from .inverse import (
    Inverse99Recovery,
    correlation_search,
    inverse_99,
    inverse_100,
    rigidity_check,
    rigidity_gap,
)
