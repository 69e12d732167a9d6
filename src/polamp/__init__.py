"""Generalized photon-polarization amplitudes, operators and simulation.

Transition amplitudes between arbitrary polarization measurement contexts
(plane angle + relative phase), direction-dependent 2x2 Hermitian
observables with their eigenvectors and expectation values, standard-limit
reductions, an exact + Monte Carlo analyzer-chain simulator, and a
verification layer that checks every closed form against independent
oracles.
"""

from .directions import (
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
from .simulate import (
    DEFAULT_STAGE_CAP,
    MeasurementScenario,
    OutcomeDistribution,
    SampleReport,
    StageCapError,
    exact_distribution,
    sample,
)
from .scenario import ScenarioError, ScenarioFile, load_scenario_file, parse_scenario
from .verify import ErrataRecord, SuiteResult, VerifyReport, run_all

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
