"""Adaptive variational preparation of thermal (Gibbs) states.

Exact statevector simulation of two ansatz-growth strategies that minimize
the quadratic objective ``-Tr(T rho) + Tr(rho^2)/2`` for a normalized
thermal target T, with exact adjoint gradients checked against the
parameter-shift rule (:func:`shift_rule_gradient`).

One ADAPT-VQE restart on a two-site Ising chain at beta = 1 with one
ancilla qubit, grown until the pool-gradient norm drops below ``epsilon``:

>>> from gibbsprep import (ObjectiveContext, VqeSettings, adapt_vqe_run,
...     gibbs_state, ising_hamiltonian, max_fidelity_bound)
>>> target = gibbs_state(ising_hamiltonian(2), beta=1.0)
>>> ctx = ObjectiveContext(target, n_data=2, n_ancilla=1)
>>> settings = VqeSettings(epsilon=1e-3)
>>> ansatz, trace = adapt_vqe_run(settings, ctx, target, seed=7)
>>> trace.termination, len(ansatz.generators)
('threshold', 2)
>>> round(trace.final_fidelity, 3), round(max_fidelity_bound(target, n_ancilla=1), 3)
(0.965, 0.982)
"""

from .adapt import (
    AdaptTrace,
    Ansatz,
    NumericalFailure,
    PoolOperator,
    QaoaSettings,
    RestartOutcome,
    VqeSettings,
    adapt_qaoa_run,
    adapt_vqe_run,
    baseline_qaoa_run,
    cnot_count,
    optimize_fixed_ansatz,
    restart_postselect,
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
    objective,
    shift_rule_gradient,
)
from .simcore import (
    DensityMatrix,
    PauliString,
    StateVector,
    fidelity,
    partial_trace_ancilla,
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
    "QaoaSettings",
    "RestartOutcome",
    "StateVector",
    "VqeSettings",
    "adapt_qaoa_run",
    "adapt_vqe_run",
    "auxiliary_objective",
    "baseline_qaoa_run",
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
    "restart_postselect",
    "shift_rule_gradient",
    "truncated_target",
    "xy_hamiltonian",
]
