"""Three-qubit absorption refrigerator with spectrally filtered reservoirs.

The package is organized in layers:

- :mod:`qfridge.matrixcore` -- dense complex-matrix helpers and validation
- :mod:`qfridge.spectrum` -- Hamiltonian, exact eigensystem, transition channels
- :mod:`qfridge.reservoirs` -- dissipators and their thermal rates, filter masks, backgrounds, units
- :mod:`qfridge.dynamics` -- dissipator action, generator, steady-state solvers
- :mod:`qfridge.thermo` -- heat currents, efficiency, entropy production, stages
- :mod:`qfridge.cli` -- scenario configs, sweeps, filter scans, CSV emission
"""

from .matrixcore import (
    DensityMatrix,
    DensityMatrixError,
    RankAmbiguityWarning,
    dagger,
    dm_validate,
    null_space,
)
from .spectrum import (
    EigenSystem,
    SystemParams,
    TransitionChannel,
    DegenerateChannelsError,
    build_hamiltonian,
    channel_commutator_check,
    channel_frequency,
    eigensystem,
    transition_channels,
)
from .reservoirs import (
    COOLING_FILTERS,
    HIGH_EFFICIENCY_FILTER,
    REVIVAL_FILTER,
    BackgroundSpec,
    Dissipator,
    FilterConfig,
    MarkovValidityWarning,
    ReservoirSet,
    ReservoirSpec,
    background_rates,
    channel_rates,
    cycle_match_check,
    mean_photon_number,
    natural_from_ghz,
    natural_from_kelvin,
    select_channels,
)
from .dynamics import (
    Generator,
    PropagationResult,
    SolverFailure,
    SteadyState,
    apply_dissipator,
    branch_weights,
    build_generator,
    build_population_matrix,
    invariant_components,
    propagate,
    steady_state_branches_analytic,
    steady_state_vacuum_background_analytic,
    steady_states_numeric,
)
from .thermo import (
    CoolingVerdict,
    CurrentTriple,
    HeatCurrentReport,
    StageLabel,
    build_report,
    classify_stage,
    cooling_predicate,
    currents_cycle_analytic,
    currents_vacuum_background_analytic,
    efficiency,
    entropy_production,
    heat_current,
    heat_currents,
)

__version__ = "0.1.0"
