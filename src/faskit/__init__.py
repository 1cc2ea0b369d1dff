"""Falsification adaptive sets for linear IV models.

The package enumerates every just-identified specification an instrument set
admits (one identifying instrument, any subset of the others as controls),
screens them by first-stage F, and reports the interval the surviving
estimates span, together with a population oracle and the falsification
frontier for known models.

The names below load their submodule on first use (PEP 562), so that
``import faskit`` imports no numpy: ``python -m faskit.cli`` and the
``faskit`` script then reach the top of :mod:`faskit.cli`, which picks the
BLAS thread count, before anything has loaded numpy.
"""

import importlib

__version__ = "0.1.0"

# each public name, and the submodule that defines it
_SOURCES = {
    "Dataset": "data",
    "ErrorLaw": "dgp",
    "FasResult": "fas",
    "FaskitError": "errors",
    "Frontier": "fas",
    "JustIdSpec": "specs",
    "Mode": "fas",
    "PairwiseTsls": "estimators",
    "PopulationModel": "fas",
    "SimulationConfig": "dgp",
    "SpecTable": "estimators",
    "TslsResult": "estimators",
    "derive_seed": "dgp",
    "enumerate_specs": "specs",
    "estimate_specs": "fas",
    "fas_by_mode": "fas",
    "fas_estimate": "fas",
    "fas_from_estimates": "fas",
    "fas_frontier": "fas",
    "frontier": "fas",
    "identified_set": "fas",
    "load_csv": "data",
    "partial_out": "linalg",
    "population_fas": "fas",
    "population_fas_by_mode": "fas",
    "population_spec_moments": "fas",
    "simulate": "dgp",
    "spec_count": "specs",
    "specs_for_mode": "fas",
    "tsls": "estimators",
    "tsls_pairwise_report": "estimators",
    "write_csv": "data",
}

__all__ = list(_SOURCES)


def __getattr__(name: str):
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
