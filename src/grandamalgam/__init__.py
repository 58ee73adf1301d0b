"""Grand Wiener amalgam norms on sampled functions.

Weighted, grand, and generalized grand amalgam norms of cell-centered grid
functions; the centered Hardy-Littlewood maximal operator; and a harness of
executable checks for the embedding, invariance, and (un)boundedness
properties of these norms at desk scale.
"""

from .gridfn import (
    BoxDomain,
    EmptyIndicatorWarning,
    GridFunction,
    Weight,
    build,
    constant,
    indicator,
    modulate,
    pointwise_abs,
    pointwise_product,
    read_grid_csv,
    scale,
    translate,
    unit_weight,
    weight_from,
    write_grid_csv,
)
from .norms import (
    EpsGrid,
    GrandParams,
    NormReport,
    Variant,
    grand_norm,
    sup_eps_factor,
    weighted_lp_norm,
)
from .amalgam import (
    AmalgamSpec,
    ClassicalSpace,
    ControlFunction,
    GrandSpace,
    WindowSpec,
    amalgam_norm,
    amalgam_norms,
    control_function,
    lattice_weight,
    mixed_norm_family,
)
from .maximal import (
    MaximalResult,
    RadiusSet,
    maximal_fast,
    maximal_naive,
    maximal_tail_profile,
)
from .reporting import CheckResult, Verdict
from .verify import Corpus, CorpusEntry, build_corpus, run_all_checks

__version__ = "0.1.0"
