"""Adaptive variational preparation of thermal (Gibbs) states.

Exact statevector simulation of two ansatz-growth strategies that minimize
the quadratic objective ``-Tr(T rho) + Tr(rho^2)/2`` for a normalized
thermal target T, with exact adjoint gradients checked against the
parameter-shift rule.
"""

from .adapt import (
    AdaptTrace,
    Ansatz,
    NumericalFailure,
    PoolOperator,
    RestartOutcome,
    adapt_qaoa_run,
    adapt_vqe_run,
    baseline_qaoa_run,
    build_qaoa_pool,
    build_vqe_pool,
    cnot_count,
    optimize_fixed_ansatz,
    restart_postselect,
    singlet_reference_state,
    vqe_reference_state,
)
from .models import (
    GibbsTarget,
    HermitianOperator,
    entangling_hamiltonian,
    gibbs_state,
    ising_hamiltonian,
    joint_problem_hamiltonian,
    max_fidelity_bound,
    truncated_target,
    xy_hamiltonian,
)
from .objective import (
    ObjectiveContext,
    auxiliary_objective,
    candidate_gradient,
    objective,
    shift_gradient,
    sum_generator_gradient,
)
from .simcore import (
    DensityMatrix,
    PauliString,
    StateVector,
    fidelity,
    partial_trace_ancilla,
    pauli_rotation,
    purity,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptTrace",
    "Ansatz",
    "DensityMatrix",
    "GibbsTarget",
    "HermitianOperator",
    "NumericalFailure",
    "ObjectiveContext",
    "PauliString",
    "PoolOperator",
    "RestartOutcome",
    "StateVector",
    "adapt_qaoa_run",
    "adapt_vqe_run",
    "auxiliary_objective",
    "baseline_qaoa_run",
    "build_qaoa_pool",
    "build_vqe_pool",
    "candidate_gradient",
    "cnot_count",
    "entangling_hamiltonian",
    "fidelity",
    "gibbs_state",
    "ising_hamiltonian",
    "joint_problem_hamiltonian",
    "max_fidelity_bound",
    "objective",
    "optimize_fixed_ansatz",
    "partial_trace_ancilla",
    "pauli_rotation",
    "purity",
    "restart_postselect",
    "shift_gradient",
    "singlet_reference_state",
    "sum_generator_gradient",
    "truncated_target",
    "vqe_reference_state",
    "xy_hamiltonian",
]
