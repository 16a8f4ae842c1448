"""Dense grid-free linear 3-uniform hypergraphs from parabolas over F_p.

Three constructions on the parabolas y = x^2 and y = x^2 + 1 (the full
two-parabola instance, a seeded random thinning, and a quadratic-residue
thinning), detectors for the forbidden 3x3 grid and related min-degree-2
configurations, exact covering-lemma arithmetic, and a character-sum
census auditing the closed-form secant counts.
"""

__version__ = "0.1.0"

from .ffield import (
    InvalidPrimeError,
    check_prime,
    chi_table,
    legendre,
    min_sqrt_table,
)
from .geometry import (
    line_parabola_intersections,
    pascal_collinear,
    secant_line,
)
from .hypergraph import (
    FormatError,
    Hypergraph3,
    VertexInfo,
    VertexMap,
    decode,
    decode_with_provenance,
    density,
    degrees,
    encode,
    is_linear,
    linear_witness,
    min_degree,
)
from .construct import (
    ConstructionReport,
    build_base,
    build_qr,
    build_random,
    count_two_point_secants,
    density_ratio,
)
from .detect import (
    CoreWitness,
    GridWitness,
    find_grid,
    find_prism,
    find_small_two_core,
    two_core,
)
from .lemma import (
    CoverageResult,
    LemmaInstance,
    analyze,
    best_subset,
    coverage,
    delta_check,
    expected_coverage,
    half_family_expectation,
    lemma_bound,
)
from .charsum import (
    ReciprocityResult,
    SecantCensus,
    closed_form_N,
    delta_sum_check,
    gauss_sum_check,
    reciprocity_check,
    secant_census,
)

__all__ = [
    "__version__",
    "InvalidPrimeError",
    "check_prime",
    "legendre",
    "chi_table",
    "min_sqrt_table",
    "secant_line",
    "line_parabola_intersections",
    "pascal_collinear",
    "Hypergraph3",
    "VertexInfo",
    "VertexMap",
    "FormatError",
    "is_linear",
    "linear_witness",
    "density",
    "degrees",
    "min_degree",
    "encode",
    "decode",
    "decode_with_provenance",
    "ConstructionReport",
    "build_base",
    "build_random",
    "build_qr",
    "count_two_point_secants",
    "density_ratio",
    "GridWitness",
    "CoreWitness",
    "find_grid",
    "find_prism",
    "two_core",
    "find_small_two_core",
    "LemmaInstance",
    "CoverageResult",
    "expected_coverage",
    "half_family_expectation",
    "lemma_bound",
    "coverage",
    "best_subset",
    "delta_check",
    "analyze",
    "SecantCensus",
    "ReciprocityResult",
    "gauss_sum_check",
    "delta_sum_check",
    "secant_census",
    "closed_form_N",
    "reciprocity_check",
]
