"""Falsification adaptive sets for linear IV models.

The package enumerates every just-identified specification an instrument set
admits (one identifying instrument, any subset of the others as controls),
screens them by first-stage F, and reports the interval the surviving
estimates span, together with a population oracle and the falsification
frontier for known models.
"""

from .data import Dataset, load_csv, write_csv
from .dgp import ErrorLaw, SimulationConfig, derive_seed, simulate
from .errors import FaskitError
from .estimators import (
    PairwiseTsls,
    SpecEstimate,
    TslsResult,
    just_id_iv,
    tsls,
    tsls_matrix,
    tsls_pairwise_report,
)
from .fas import (
    FasResult,
    FrontierPoint,
    Mode,
    PopulationModel,
    RelevanceSelection,
    fas_by_mode,
    fas_estimate,
    fas_from_estimates,
    fas_frontier,
    frontier,
    identified_set,
    population_fas,
    population_fas_by_mode,
    population_frontier,
    population_spec_moments,
    select_relevant,
    specs_for_mode,
)
from .linalg import RegressionFit, ols, partial_out, partial_out_columns, residualize
from .specs import (
    JustIdSpec,
    TransformedInstrument,
    enumerate_specs,
    spec_count,
    transform_instrument,
)

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "ErrorLaw",
    "FasResult",
    "FaskitError",
    "FrontierPoint",
    "JustIdSpec",
    "Mode",
    "PairwiseTsls",
    "PopulationModel",
    "RegressionFit",
    "RelevanceSelection",
    "SimulationConfig",
    "SpecEstimate",
    "TransformedInstrument",
    "TslsResult",
    "derive_seed",
    "enumerate_specs",
    "fas_by_mode",
    "fas_estimate",
    "fas_from_estimates",
    "fas_frontier",
    "frontier",
    "identified_set",
    "just_id_iv",
    "load_csv",
    "ols",
    "partial_out",
    "partial_out_columns",
    "population_fas",
    "population_fas_by_mode",
    "population_frontier",
    "population_spec_moments",
    "residualize",
    "select_relevant",
    "simulate",
    "spec_count",
    "specs_for_mode",
    "transform_instrument",
    "tsls",
    "tsls_matrix",
    "tsls_pairwise_report",
    "write_csv",
]
