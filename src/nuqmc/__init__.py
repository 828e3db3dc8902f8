"""Point sets and sequences with small star-discrepancy for non-uniform
measures on [0,1]^d, with the combinatorial rounding machinery behind them
and a cubature harness for discontinuous integrands."""

from .measures import (
    AnchoredBox,
    BoxMeasure,
    DiscreteMeasure,
    OmegaRegion,
    PointSet,
    PowerCdf,
    PiecewiseLinearCdf,
    ProductMeasure,
    RestrictionMeasure,
    UniformCdf,
    measure_from_config,
    uniform_measure,
    validate,
)
from .discrepancy import (
    BudgetExceededError,
    DiscrepancyReport,
    bracket_star_discrepancy,
    discrete_discrepancy,
    exact_star_discrepancy,
    local_star_discrepancy,
)
from .balancing import Hypergraph, RoundingResult, beck_fiala_round, edge_error
from .dyadic import build_scheme, max_prefix_error, prefix_cells, round_array
from .selection import CellDecomposition, SelectionResult, decompose, select_subset
from .pipeline import (
    ConstructionConfig,
    SequenceState,
    alexander_bound,
    construct_point_set,
    inverse_size,
    next_point,
    prefix_certificate_envelope,
    take_sequence,
)
from .integration import (
    Integrand,
    IntegrationReport,
    benchmark,
    integrate,
    omega_discrepancy,
    reference_integral,
)

__version__ = "0.1.0"
