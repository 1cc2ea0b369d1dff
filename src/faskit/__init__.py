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
    SpecTable,
    TslsResult,
    tsls,
    tsls_pairwise_report,
)
from .fas import (
    FasResult,
    Frontier,
    Mode,
    PopulationModel,
    estimate_specs,
    fas_by_mode,
    fas_estimate,
    fas_from_estimates,
    fas_frontier,
    frontier,
    identified_set,
    population_fas,
    population_fas_by_mode,
    population_spec_moments,
    specs_for_mode,
)
from .linalg import partial_out
from .specs import JustIdSpec, enumerate_specs, spec_count

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "ErrorLaw",
    "FasResult",
    "FaskitError",
    "Frontier",
    "JustIdSpec",
    "Mode",
    "PairwiseTsls",
    "PopulationModel",
    "SimulationConfig",
    "SpecTable",
    "TslsResult",
    "derive_seed",
    "enumerate_specs",
    "estimate_specs",
    "fas_by_mode",
    "fas_estimate",
    "fas_from_estimates",
    "fas_frontier",
    "frontier",
    "identified_set",
    "load_csv",
    "partial_out",
    "population_fas",
    "population_fas_by_mode",
    "population_spec_moments",
    "simulate",
    "spec_count",
    "specs_for_mode",
    "tsls",
    "tsls_pairwise_report",
    "write_csv",
]
