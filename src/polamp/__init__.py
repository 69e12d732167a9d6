"""Generalized photon-polarization amplitudes, operators and simulation.

Transition amplitudes between arbitrary polarization measurement contexts
(plane angle + relative phase), direction-dependent 2x2 Hermitian
observables with their eigenvectors and expectation values, standard-limit
reductions, an exact + Monte Carlo analyzer-chain simulator, and a
verification layer that checks every closed form against independent
oracles.
"""

import importlib

from .directions import (
    DEFAULT_STAGE_CAP,
    DEFAULT_TOLERANCE,
    Branch,
    BranchLabel,
    Direction,
    minus,
    plus,
)
from .amplitudes import (
    StateVector2,
    amplitude,
    chain,
    probability,
    state_vector,
)
from .operators import (
    Observable2,
    eigenvector_states,
    expectation,
    expectation_closed,
    observable_matrix,
    polarization_operator,
)
from .limits import standard_amplitudes, standard_operator, standard_states

#: The public names of the modules whose import loads numpy, by module. Each
#: is looked up there on every access (PEP 562) and never cached here, so
#: ``import polamp`` loads no numpy and a function swapped in its module
#: (as the benchmark tracer does) is what ``polamp.<name>`` returns.
_LAZY = {
    "MeasurementScenario": "simulate",
    "OutcomeDistribution": "simulate",
    "SampleReport": "simulate",
    "StageCapError": "simulate",
    "exact_distribution": "simulate",
    "sample": "simulate",
    "ScenarioError": "scenario",
    "ScenarioFile": "scenario",
    "load_scenario_file": "scenario",
    "parse_scenario": "scenario",
    "ErrataRecord": "verify",
    "SuiteResult": "verify",
    "VerifyReport": "verify",
    "run_all": "verify",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TOLERANCE",
    "DEFAULT_STAGE_CAP",
    "Branch",
    "BranchLabel",
    "Direction",
    "ErrataRecord",
    "MeasurementScenario",
    "Observable2",
    "OutcomeDistribution",
    "SampleReport",
    "ScenarioError",
    "ScenarioFile",
    "StageCapError",
    "StateVector2",
    "SuiteResult",
    "VerifyReport",
    "amplitude",
    "chain",
    "eigenvector_states",
    "exact_distribution",
    "expectation",
    "expectation_closed",
    "load_scenario_file",
    "minus",
    "observable_matrix",
    "parse_scenario",
    "plus",
    "polarization_operator",
    "probability",
    "run_all",
    "sample",
    "standard_amplitudes",
    "standard_operator",
    "standard_states",
    "state_vector",
]
