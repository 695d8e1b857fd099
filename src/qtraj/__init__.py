"""qtraj: stochastic trajectories for locally monitored qubit reservoirs.

Multi-qubit systems coupled to balanced local decay/excitation reservoirs lose
entanglement fast when unmonitored -- but suitable local monitoring (Pauli-mix
photodetection or a correlated homodyne scheme) turns every trajectory into a
sequence of local unitaries: entanglement survives per trajectory and the
initial state is recoverable from the measurement record, degrading gracefully
with detector efficiency.
"""

from .diffusive import (
    PROTECTING_U,
    CurrentSample,
    check_noise_correlation,
    combine_currents,
    current_expectations,
    homodyne_currents,
    noise_factor,
    run_diffusive_trajectory,
    run_protecting_unitary_trajectory,
    step_diffusive,
    step_protecting_unitary,
)
from .entangle import concurrence, concurrence_signed, fidelity_to_pure, trace_distance
from .jumps import (
    JumpEvent,
    JumpOperator,
    TrajectoryRecord,
    UnravelingTransform,
    canonical_jumps,
    jump_probabilities,
    no_jump_operator,
    protecting_jumps,
    protecting_transform,
    run_jump_trajectory,
    step_jump,
    trajectory_seed,
    transform_jumps,
)
from .master import (
    LindbladModel,
    TimeSeries,
    analytic_bell_state,
    analytic_concurrence,
    disentanglement_time,
    integrate_master,
    lindblad_rhs,
)
from .qcore import (
    InvariantViolation,
    bell_state,
    computational_ket,
    density,
    dissipator,
    embed,
    hermitian_eigenvalues,
    pauli_matrix,
    validate_density_matrix,
)
from .recovery import (
    apply_frame,
    frame_from_events,
    recover,
    recover_unitary,
    unitarity_defect,
)
from .reservoir import (
    AdiabaticityWarning,
    DriveParams,
    balancing_drive,
    engineered_pump_rate,
    thermal_occupation,
)
from .runner import (
    ConfigError,
    EnsembleStatistics,
    ExperimentConfig,
    emit_csv,
    figure3,
    parse_csv,
    run_ensemble,
)

__version__ = "0.1.0"
