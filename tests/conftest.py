"""Shared fixtures, independent dense oracles, and gradient helpers.

The kron-based builders here deliberately avoid the package's own
permutation-table machinery so that tests cross-check two implementations.
Little-endian convention: qubit 0 is the least-significant bit, so the
highest qubit is the first factor in the Kronecker product. The gradient
helpers are central differences and the shift-rule candidate gradient;
``replayed_objective`` scores a persisted trace's replayed state.
"""

import numpy as np
import pytest

from gibbsprep import (
    Ansatz,
    DensityMatrix,
    ObjectiveContext,
    StateVector,
    gibbs_state,
    objective,
    partial_trace_ancilla,
    shift_rule_gradient,
    truncated_target,
)
from gibbsprep.harness import MODEL_BUILDERS, replay_state

PAULI_MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def dense_pauli(n_qubits, support, letters):
    """Dense matrix of a Pauli word via explicit Kronecker products."""
    by_qubit = dict(zip(support, letters))
    out = np.eye(1, dtype=complex)
    for q in reversed(range(n_qubits)):
        out = np.kron(out, PAULI_MATS[by_qubit.get(q, "I")])
    return out


def dense_operator(op):
    """Dense matrix of a HermitianOperator, built independently."""
    total = np.zeros((op.dim, op.dim), dtype=complex)
    for c, p in op.terms:
        total += c * dense_pauli(op.n_qubits, p.support, p.letters)
    return total


def dense_exponential(matrix, t):
    """``exp(i t M)`` of a Hermitian matrix from its eigendecomposition."""
    values, vectors = np.linalg.eigh(matrix)
    return (vectors * np.exp(1j * t * values)) @ vectors.conj().T


def basis_state(n_data, n_ancilla, index=0):
    """The computational basis state ``|index>`` on the joint register."""
    amps = np.zeros(1 << (n_data + n_ancilla), dtype=complex)
    amps[index] = 1.0
    return StateVector(n_data, n_ancilla, amps)


def random_state(n_data, n_ancilla, rng):
    dim = 1 << (n_data + n_ancilla)
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return StateVector(n_data, n_ancilla, amps / np.linalg.norm(amps))


def purity(rho):
    """Tr(rho^2) of a DensityMatrix, as the trace of the matrix product."""
    return float(np.trace(rho.entries @ rho.entries).real)


def without_wall_ms(trace):
    """A trace dict with each record's ``wall_ms`` dropped.

    Takes ``AdaptTrace.to_dict()`` or a persisted trace payload; what is left
    is a function of the seed alone, so determinism checks compare it.
    """
    records = [{k: v for k, v in r.items() if k != "wall_ms"} for r in trace["records"]]
    return {**trace, "records": records}


def replayed_objective(payload):
    """The objective of a persisted trace's replayed state, against the target it names."""
    n_data, n_ancilla = (payload["metadata"][k] for k in ("n_data", "n_ancilla"))
    hamiltonian = MODEL_BUILDERS[payload["model"]](n_data)
    beta = 1.0 / payload["beta_inv"]
    if payload["truncation"] == "exact":
        target = gibbs_state(hamiltonian, beta)
    else:
        target = truncated_target(hamiltonian, beta, int(payload["truncation"]))
    state = replay_state(payload, n_data, n_ancilla)
    ctx = ObjectiveContext(target, n_data, n_ancilla)
    return objective(partial_trace_ancilla(state), ctx)


def central_difference(prepare, params, ctx, h=1e-5):
    """Central-difference gradient of C(prepare(params)), step ``h`` per entry."""
    params = np.asarray(params, dtype=float)

    def value_at(x):
        return objective(partial_trace_ancilla(prepare(x)), ctx)

    grad = np.zeros(params.size)
    for i in range(params.size):
        plus, minus = params.copy(), params.copy()
        plus[i] += h
        minus[i] -= h
        grad[i] = (value_at(plus) - value_at(minus)) / (2 * h)
    return grad


def candidate_gradient(state, op, ctx):
    """The shift-rule gradient for appending the pool operator ``op`` to ``state``.

    The last entry of ``shift_rule_gradient`` for the one-gate ansatz on
    ``state`` at theta = 0; the pool scan's entry for ``op``.
    """
    one_gate = Ansatz(
        flavor="vqe",
        n_data=state.n_data,
        n_ancilla=state.n_ancilla,
        reference=state,
        reference_spec={"kind": "given"},
        generators=[op],
    )
    return shift_rule_gradient(one_gate, np.zeros(1), ctx)[-1]


def random_density(dim, rng):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    a = g @ g.conj().T
    return DensityMatrix(a / a.trace())


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
