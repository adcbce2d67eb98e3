"""Objective, auxiliary two-state form, and shift-rule oracle tests.

Finite differences appear here only as oracles. The production gradient
path is the adjoint engine of ``gibbsprep.adapt``; the exact two-point
shift rule (``shift_rule_gradient``) is the oracle it is checked against.
"""

import numpy as np
import pytest

from gibbsprep import (
    Ansatz,
    GibbsTarget,
    HermitianOperator,
    ObjectiveContext,
    PauliString,
    PoolOperator,
    StateVector,
    auxiliary_objective,
    entangling_hamiltonian,
    gibbs_state,
    ising_hamiltonian,
    objective,
    partial_trace_ancilla,
    shift_rule_gradient,
    xy_hamiltonian,
)
from gibbsprep.adapt import CostGate, register_pool, singlet_reference_state
from conftest import (
    basis_state,
    candidate_gradient,
    central_difference,
    dense_exponential,
    dense_operator,
    purity,
    random_density,
    random_state,
)


def make_ctx(n_data=2, n_ancilla=2, beta=1.0, model=ising_hamiltonian):
    return ObjectiveContext(gibbs_state(model(n_data), beta), n_data, n_ancilla)


def purification(target, n_data):
    """Exact purification of an exact target on n_ancilla = n_data qubits."""
    values, vectors = np.linalg.eigh(target.matrix)
    dim = 1 << n_data
    amps = np.zeros(dim * dim, dtype=complex)
    for a in range(dim):
        amps[a * dim : (a + 1) * dim] = np.sqrt(max(values[a], 0.0)) * vectors[:, a]
    return StateVector(n_data, n_data, amps)


def pauli_chain(reference, paulis):
    """A ``vqe`` ansatz of one rotation per word on ``reference``."""
    return Ansatz(
        flavor="vqe",
        n_data=reference.n_data,
        n_ancilla=reference.n_ancilla,
        reference=reference,
        reference_spec={"kind": "given"},
        generators=[PoolOperator.from_pauli(p) for p in paulis],
    )


def pauli_gradient(state, p, ctx):
    """Candidate gradient of appending ``exp(i theta P)`` to ``state``."""
    return candidate_gradient(state, PoolOperator.from_pauli(p), ctx)


def entangler_gradient(state, h_ad, ctx):
    """Candidate gradient of appending ``exp(i alpha H_AD)`` to ``state``."""
    return candidate_gradient(
        state, PoolOperator.from_entangler(h_ad, state.n_data), ctx
    )


class TestObjective:
    def test_value_at_target(self):
        ctx = make_ctx(beta=0.7)
        rho = ctx.target.as_density_matrix()
        expected = -0.5 * purity(rho)
        assert abs(objective(rho, ctx) - expected) < 1e-12

    def test_infinite_temperature_pure_state(self, rng):
        ctx = make_ctx(beta=0.0)
        state = random_state(2, 0, rng)
        amps = np.kron(np.array([1.0, 0, 0, 0]), state.amplitudes)
        rho = partial_trace_ancilla(StateVector(2, 2, amps))
        assert abs(objective(rho, ctx) - (-0.25 + 0.5)) < 1e-12

    def test_frobenius_identity(self, rng):
        ctx = make_ctx(beta=1.3)
        rho_g = ctx.target.matrix
        c_min = objective(ctx.target.as_density_matrix(), ctx)
        for _ in range(200):
            rho = random_density(4, rng)
            lhs = objective(rho, ctx) - c_min
            rhs = 0.5 * np.linalg.norm(rho.entries - rho_g) ** 2
            assert abs(lhs - rhs) < 1e-10

    def test_dimension_mismatch(self, rng):
        ctx = make_ctx()
        with pytest.raises(ValueError):
            objective(random_density(8, rng), ctx)


    def test_context_refuses_a_target_of_another_register(self):
        target = gibbs_state(ising_hamiltonian(2), 1.0)
        with pytest.raises(ValueError, match="does not match 2\\^3 data qubits"):
            ObjectiveContext(target, 3, 1)


class TestAuxiliaryObjective:
    def test_equal_arguments_identity(self, rng):
        ctx = make_ctx()
        state = random_state(2, 2, rng)
        rho = partial_trace_ancilla(state)
        lhs = auxiliary_objective(state, state, ctx)
        assert abs(lhs - (objective(rho, ctx) + 0.5 * purity(rho))) < 1e-12

    def test_maximally_mixed_phi_side(self, rng):
        ctx = make_ctx()
        theta = random_state(2, 2, rng)
        phi = singlet_reference_state(2)
        rho_theta = partial_trace_ancilla(theta).entries
        cross = np.einsum("ij,ji->", ctx.target.matrix, rho_theta).real
        assert abs(auxiliary_objective(theta, phi, ctx) - (-cross + 0.25)) < 1e-12

    def test_matches_dense_oracle(self, rng):
        ctx = make_ctx()
        theta = random_state(2, 2, rng)
        phi = random_state(2, 2, rng)

        def reduce_dense(amps):
            full = np.outer(amps, amps.conj())
            out = np.zeros((4, 4), dtype=complex)
            for a in range(4):
                out += full[4 * a : 4 * a + 4, 4 * a : 4 * a + 4]
            return out

        rt = reduce_dense(theta.amplitudes)
        rp = reduce_dense(phi.amplitudes)
        expected = (-np.trace(ctx.target.matrix @ rt) + np.trace(rt @ rp)).real
        assert abs(auxiliary_objective(theta, phi, ctx) - expected) < 1e-12

    def test_shape_mismatch(self, rng):
        ctx = make_ctx()
        with pytest.raises(ValueError):
            auxiliary_objective(random_state(2, 2, rng), random_state(3, 1, rng), ctx)


class TestShiftGradient:
    def test_matches_finite_difference(self, rng):
        ctx = make_ctx()
        reference = random_state(2, 2, rng)
        paulis = [
            PauliString((0, 2), "XY"),
            PauliString((1,), "Z"),
            PauliString((1, 3), "ZX"),
        ]
        ansatz = pauli_chain(reference, paulis)
        params = rng.uniform(-np.pi, np.pi, 3)
        exact = shift_rule_gradient(ansatz, params, ctx)
        approx = central_difference(ansatz.prepare, params, ctx)
        assert np.abs(exact - approx).max() < 1e-6

    def test_phase_only_parameter_has_zero_gradient(self):
        ctx = make_ctx()
        reference = basis_state(2, 2, index=0b0101)
        ansatz = pauli_chain(reference, [PauliString((3,), "Z")])
        grad = shift_rule_gradient(ansatz, np.array([0.4]), ctx)
        assert abs(grad[0]) < 1e-14


class TestCandidateGradient:
    """The oracle's last entry for one appended gate at theta = 0."""

    def test_zero_at_exact_target_purification(self):
        ctx = make_ctx(beta=0.9)
        state = purification(ctx.target, 2)
        for op in register_pool(2, 2, False):
            assert abs(candidate_gradient(state, op, ctx)) < 1e-12

    def test_ancilla_only_rotation_cannot_change_data(self, rng):
        ctx = make_ctx()
        data = random_state(2, 0, rng)
        anc = random_state(2, 0, rng)
        amps = np.kron(anc.amplitudes, data.amplitudes)
        state = StateVector(2, 2, amps)
        for p in (PauliString((2, 3), "XY"), PauliString((3,), "Y")):
            assert abs(pauli_gradient(state, p, ctx)) < 1e-13

    def test_matches_finite_difference(self, rng):
        ctx = make_ctx(model=xy_hamiltonian, beta=0.6)
        for _ in range(10):
            state = random_state(2, 2, rng)
            q = sorted(rng.choice(4, size=2, replace=False))
            p = PauliString((int(q[0]), int(q[1])), "XZ")
            exact = pauli_gradient(state, p, ctx)
            approx = central_difference(pauli_chain(state, [p]).prepare, [0.0], ctx)
            assert abs(exact - approx[0]) < 1e-6

    def test_linear_in_target_matrix(self, rng):
        t1 = gibbs_state(ising_hamiltonian(2), 0.5)
        t2 = gibbs_state(xy_hamiltonian(2), 1.5)
        lam = 0.3
        combo_matrix = lam * t1.matrix + (1 - lam) * t2.matrix
        combo = GibbsTarget(
            mode="exact",
            matrix=combo_matrix,
            eigenvalues=np.sort(np.linalg.eigvalsh(combo_matrix))[::-1],
        )
        state = random_state(2, 2, rng)
        p = PauliString((0, 2), "XX")
        ctxs = [
            ObjectiveContext(t, 2, 2) for t in (t1, t2, combo)
        ]
        g1, g2, gc = (pauli_gradient(state, p, c) for c in ctxs)
        assert abs(gc - (lam * g1 + (1 - lam) * g2)) < 1e-12


class TestSumGeneratorGradient:
    """One gate whose generator is a sum of commuting words: the pair entangler."""

    def test_zero_at_entangler_ground_with_flat_target(self):
        ctx = make_ctx(beta=0.0)
        state = singlet_reference_state(2)
        h_ad = entangling_hamiltonian(2)
        assert abs(entangler_gradient(state, h_ad, ctx)) < 1e-13

    def test_matches_finite_difference_along_alpha(self, rng):
        ctx = make_ctx(beta=0.8)
        h_ad = entangling_hamiltonian(2)
        state = random_state(2, 2, rng)

        def prepare(params):
            unitary = dense_exponential(dense_operator(h_ad), float(params[0]))
            return state.with_amplitudes(unitary @ state.amplitudes)

        exact = entangler_gradient(state, h_ad, ctx)
        approx = central_difference(prepare, [0.0], ctx)
        assert abs(exact - approx[0]) < 1e-6

    def test_single_pair_equals_term_sum(self, rng):
        h = HermitianOperator(1, ((-1.0, PauliString((0,), "Z")),))
        ctx = ObjectiveContext(gibbs_state(h, 1.0), 1, 1)
        h_ad = entangling_hamiltonian(1)
        state = random_state(1, 1, rng)
        total = entangler_gradient(state, h_ad, ctx)
        per_term = sum(
            c * pauli_gradient(state, p, ctx) for c, p in h_ad.terms
        )
        assert abs(total - per_term) < 1e-14

    def test_rejects_noncommuting_terms(self):
        """A non-commuting generator cannot enter the oracle.

        The entangler refuses one when it is built; a cost gate holds any
        ``H``, and refuses when the oracle reads its terms.
        """
        with pytest.raises(ValueError):
            PoolOperator.from_entangler(xy_hamiltonian(4), 2)
        with pytest.raises(ValueError, match="commute"):
            CostGate(xy_hamiltonian(3)).terms


class TestInvariants:
    def test_global_phase_invariance(self, rng):
        ctx = make_ctx()
        state = random_state(2, 2, rng)
        rotated = state.with_amplitudes(np.exp(1j * 0.821) * state.amplitudes)
        p = PauliString((1, 2), "XZ")
        assert (
            abs(pauli_gradient(state, p, ctx) - pauli_gradient(rotated, p, ctx))
            < 1e-13
        )
        rho_a = partial_trace_ancilla(state)
        rho_b = partial_trace_ancilla(rotated)
        assert abs(objective(rho_a, ctx) - objective(rho_b, ctx)) < 1e-13

    def test_shift_rule_exactness_random_ensemble(self, rng):
        # 100 random (ansatz, index) pairs on 4-qubit registers
        worst = 0.0
        for _ in range(100):
            beta = rng.uniform(0.3, 2.5)
            model = ising_hamiltonian if rng.integers(2) else xy_hamiltonian
            ctx = ObjectiveContext(gibbs_state(model(2), beta), 2, 2)
            reference = random_state(2, 2, rng)
            n_gates = int(rng.integers(1, 5))
            paulis = []
            for _ in range(n_gates):
                w = int(rng.integers(1, 3))
                support = tuple(
                    sorted(int(q) for q in rng.choice(4, size=w, replace=False))
                )
                letters = "".join(rng.choice(list("XYZ")) for _ in range(w))
                paulis.append(PauliString(support, letters))
            ansatz = pauli_chain(reference, paulis)
            params = rng.uniform(-np.pi, np.pi, n_gates)
            index = int(rng.integers(n_gates))
            dev = abs(
                shift_rule_gradient(ansatz, params, ctx)[index]
                - central_difference(ansatz.prepare, params, ctx)[index]
            )
            worst = max(worst, dev)
        assert worst < 1e-6
