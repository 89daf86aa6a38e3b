"""pcplab: exact prime-field algebra, vanishing ideals, and toy PCP verifiers.

Layers, bottom to top: field arithmetic and exact linear algebra; capped
multivariate polynomials with symbolic line restriction; point varieties with
low-degree extension, generating sets of the vanishing ideal, and vanishing
certificates; query-counted oracles with keyed corruption; the two-query
low-degree test and local corrector; the 7-query zero-on-variety verifier;
the 24-query 3-coloring PCP; and an experiment harness with a CLI.
"""

from .field import Field
from .linalg import IncrementalRank, Matrix, NoSolutionError
from .poly import (
    DegreeCapError,
    FactoredPoly,
    MultiPoly,
    UniPoly,
    distance,
    monomials_exact,
    monomials_upto,
    random_poly,
)
from .variety import (
    Certificate,
    GrobnerSet,
    NoCertificateError,
    SpecError,
    Variety,
    ball1_variety,
    certificate_factors,
    cube_variety,
    explicit_variety,
    grobner_generating_set,
    make_variety,
    power_variety,
    product,
    vanishes_on,
    vanishing_certificate,
)
from .oracles import (
    CorruptionSpec,
    LinesOracle,
    OracleBudgetError,
    PointOracle,
    corrupt,
    honest_oracles,
    materialize,
)
from .ldt import REJECT, Verdict, ldt_check, local_correct
from .zerotest import (
    ZeroProof,
    ZeroRandomness,
    enumerate_randomness,
    randomness_space_size,
    zero_prove,
    zero_verify,
)
from .pcp import (
    Graph,
    PcpInstance,
    PcpProof,
    PcpRandomness,
    best_effort_coloring,
    claim_polynomials,
    implied_proof_size,
    pcp_prove,
    pcp_verify,
    proper_3_coloring,
    validate_coloring,
)
from .harness import (
    ConfigError,
    CountingRng,
    ExperimentConfig,
    PCP_ADVERSARIES,
    PRESETS,
    RateEstimate,
    ZEROTEST_ADVERSARIES,
    preset,
    randomness_budget,
    report_bytes,
    run_experiment,
    sweep_to_csv,
    trial_seed,
    wilson,
)

__version__ = "0.1.0"
