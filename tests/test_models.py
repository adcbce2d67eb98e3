"""Hamiltonian builders, thermal targets, surrogates, bounds."""

import math

import numpy as np
import pytest

from gibbsprep import (
    HermitianOperator,
    PauliString,
    StateVector,
    entangling_hamiltonian,
    fidelity,
    gibbs_state,
    ising_hamiltonian,
    joint_problem_hamiltonian,
    max_fidelity_bound,
    partial_trace_ancilla,
    truncated_target,
    xy_hamiltonian,
)
from gibbsprep.adapt import singlet_reference_state

from conftest import dense_operator, dense_pauli


class TestHermitianOperator:
    def test_dense_matches_kron_oracle(self, rng):
        terms = tuple(
            (float(rng.normal()), PauliString(support, letters))
            for support, letters in [((0, 2), "XY"), ((1,), "Z"), ((0, 1, 3), "ZXZ")]
        )
        op = HermitianOperator(4, terms)
        assert np.allclose(op.matrix, dense_operator(op), atol=1e-13)

    def test_eigensystem_reconstructs(self):
        op = xy_hamiltonian(3)
        w, v = op.eigensystem
        rebuilt = (v * w) @ v.conj().T
        scale = np.linalg.norm(op.matrix)
        assert np.linalg.norm(op.matrix - rebuilt) <= 1e-9 * scale

    def test_equal_operators_share_one_eigensystem(self):
        # Built apart, as a model and a cost gate's data-register copy are.
        first = xy_hamiltonian(3)
        second = HermitianOperator(3, tuple(first.terms))
        assert second is not first and second == first
        assert second.eigensystem is first.eigensystem
        assert "matrix" not in second.__dict__  # the second builds nothing
        assert xy_hamiltonian(2).eigensystem is not first.eigensystem

    def test_rejects_nonfinite_and_out_of_range(self):
        with pytest.raises(ValueError):
            HermitianOperator(2, ((np.inf, PauliString((0,), "X")),))
        with pytest.raises(ValueError):
            HermitianOperator(2, ((1.0, PauliString((3,), "X")),))

    def test_terms_commute(self):
        assert ising_hamiltonian(4).terms_commute
        assert entangling_hamiltonian(3).terms_commute
        assert not xy_hamiltonian(4).terms_commute


class TestIsing:
    def test_rejects_small_chain(self):
        with pytest.raises(ValueError):
            ising_hamiltonian(1)

    def test_two_sites_aggregate(self):
        h = ising_hamiltonian(2)
        assert len(h.terms) == 2
        assert all(c == -1.0 for c, _ in h.terms)
        assert np.allclose(h.matrix, -2.0 * dense_pauli(2, (0, 1), "ZZ"))

    def test_four_site_spectrum_by_enumeration(self):
        h = ising_hamiltonian(4)
        energies = []
        for z in range(16):
            s = [1 - 2 * ((z >> q) & 1) for q in range(4)]
            energies.append(-sum(s[i] * s[(i + 1) % 4] for i in range(4)))
        w, _ = h.eigensystem
        assert np.allclose(np.sort(w), np.sort(energies), atol=1e-12)
        assert sorted(energies).count(-4) == 2
        assert sorted(energies).count(0) == 12
        assert sorted(energies).count(4) == 2


class TestXY:
    def test_two_sites(self):
        h = xy_hamiltonian(2)
        assert len(h.terms) == 4
        expected = -2.0 * (
            dense_pauli(2, (0, 1), "XX") + dense_pauli(2, (0, 1), "YY")
        )
        assert np.allclose(h.matrix, expected)
        w, _ = h.eigensystem
        assert np.allclose(np.sort(w), [-4, 0, 0, 4], atol=1e-12)

    def test_no_diagonal_element(self):
        h = xy_hamiltonian(4)
        zero = np.zeros(16)
        zero[0] = 1.0
        assert abs(zero @ h.matrix @ zero) < 1e-14

    def test_commutes_with_total_z(self):
        h = xy_hamiltonian(3)
        total_z = sum(dense_pauli(3, (q,), "Z") for q in range(3))
        comm = h.matrix @ total_z - total_z @ h.matrix
        assert np.linalg.norm(comm) < 1e-12


class TestEntangler:
    def test_ground_energy_and_uniqueness(self):
        h = entangling_hamiltonian(2)
        w, _ = h.eigensystem
        assert abs(w[0] + 6.0) < 1e-12
        assert w[1] - w[0] > 1.0  # unique ground state, clear gap

    def test_ground_state_is_singlet_product(self):
        h = entangling_hamiltonian(2)
        s = singlet_reference_state(2).amplitudes
        assert np.allclose(h.matrix @ s, -6.0 * s, atol=1e-12)
        w, v = h.eigensystem
        assert abs(abs(np.vdot(v[:, 0], s)) - 1.0) < 1e-12

    def test_traceless(self):
        assert abs(entangling_hamiltonian(3).matrix.trace()) < 1e-12

    def test_joint_problem_hamiltonian(self):
        h = ising_hamiltonian(2)
        joint = joint_problem_hamiltonian(h)
        assert joint.n_qubits == 4
        expected = np.kron(np.eye(4), h.matrix) + np.kron(h.matrix, np.eye(4))
        assert np.allclose(joint.matrix, expected, atol=1e-12)


class TestGibbsState:
    def test_infinite_temperature(self):
        target = gibbs_state(ising_hamiltonian(3), 0.0)
        assert np.allclose(target.matrix, np.eye(8) / 8, atol=1e-14)

    def test_single_qubit_closed_form(self):
        h = HermitianOperator(1, ((-1.0, PauliString((0,), "Z")),))
        target = gibbs_state(h, 1.0)
        z = 2 * np.cosh(1.0)
        assert np.allclose(
            target.matrix, np.diag([np.e / z, np.exp(-1) / z]), atol=1e-12
        )

    def test_low_temperature_ground_projector(self):
        target = gibbs_state(ising_hamiltonian(4), 50.0)
        expected = np.zeros((16, 16))
        expected[0, 0] = 0.5
        expected[15, 15] = 0.5
        assert np.abs(target.matrix - expected).max() < 1e-10

    def test_commutes_with_hamiltonian(self, rng):
        for _ in range(10):
            terms = tuple(
                (float(rng.normal()), PauliString((int(q),), str(c)))
                for q, c in zip(rng.integers(0, 3, 4), rng.choice(list("XYZ"), 4))
            )
            h = HermitianOperator(3, terms)
            target = gibbs_state(h, rng.uniform(0.1, 3.0))
            comm = target.matrix @ h.matrix - h.matrix @ target.matrix
            assert np.linalg.norm(comm) <= 1e-9

    def test_spectrum_positive_descending_normalized(self):
        target = gibbs_state(xy_hamiltonian(4), 2.0)
        assert target.eigenvalues[-1] > 0
        assert np.all(np.diff(target.eigenvalues) <= 0)
        assert abs(target.eigenvalues.sum() - 1.0) < 1e-12

    def test_rejects_negative_beta(self):
        with pytest.raises(ValueError):
            gibbs_state(ising_hamiltonian(2), -0.5)


class TestTruncatedTarget:
    def test_order_zero_is_maximally_mixed(self):
        t = truncated_target(xy_hamiltonian(3), 2.5, 0)
        assert np.allclose(t.matrix, np.eye(8) / 8, atol=1e-14)

    def test_single_qubit_order_one(self):
        h = HermitianOperator(1, ((-1.0, PauliString((0,), "Z")),))
        t = truncated_target(h, 1.0, 1)
        assert np.allclose(t.matrix, np.diag([1.0, 0.0]), atol=1e-14)

    def test_converges_to_exact(self):
        # remainder decays at the factorial rate until the float noise floor
        h = ising_hamiltonian(4)
        exact = gibbs_state(h, 1.0)
        errs = np.array(
            [
                np.linalg.norm(truncated_target(h, 1.0, m).matrix - exact.matrix)
                for m in range(41)
            ]
        )
        a = 1.0 * np.abs(np.linalg.eigvalsh(dense_operator(h))).max()
        for m in range(41):
            if errs[m] <= 1e-12:
                continue
            rate = np.exp(a) * a ** (m + 1) / math.factorial(m + 1)
            assert errs[m] <= rate
            if m < 40 and errs[m + 1] > 1e-12:
                assert errs[m + 1] <= errs[m]
        assert errs[40] <= 1e-12

    def test_converges_at_large_beta_norm(self):
        # beta * ||H||_2 = 20: still decreasing by m = 40
        h = ising_hamiltonian(4)
        exact = gibbs_state(h, 5.0)
        errs = [
            np.linalg.norm(truncated_target(h, 5.0, m).matrix - exact.matrix)
            for m in (10, 20, 30, 40)
        ]
        assert errs[1] < errs[0] and errs[2] < errs[1] and errs[3] < errs[2]

    def test_negative_spectrum_is_flagged_not_fatal(self):
        t = truncated_target(ising_hamiltonian(4), 1.0, 5)
        assert t.has_negative_eigenvalues
        with pytest.raises(ValueError):
            t.as_density_matrix()

    def test_nonpositive_trace_raises(self):
        h = HermitianOperator(
            2,
            (
                (1.0, PauliString((0,), "Z")),
                (1.0, PauliString((1,), "Z")),
                (1.0, PauliString((0, 1), "ZZ")),
            ),
        )
        with pytest.raises(ValueError, match="raise the truncation order"):
            truncated_target(h, 3.0, 3)


class TestFidelityBound:
    def test_full_rank_reaches_one(self):
        target = gibbs_state(ising_hamiltonian(3), 1.0)
        assert abs(max_fidelity_bound(target, 3) - 1.0) < 1e-12
        assert abs(max_fidelity_bound(target, 5) - 1.0) < 1e-12

    def test_flat_spectrum(self):
        target = gibbs_state(xy_hamiltonian(3), 0.0)
        assert abs(max_fidelity_bound(target, 1) - 2 / 8) < 1e-12

    def test_nondecreasing_in_ancillas(self):
        target = gibbs_state(ising_hamiltonian(4), 0.7)
        bounds = [max_fidelity_bound(target, k) for k in range(5)]
        assert all(b2 >= b1 for b1, b2 in zip(bounds, bounds[1:]))
        assert abs(bounds[4] - 1.0) < 1e-12

    def test_randomized_candidates_do_not_exceed(self, rng):
        target = gibbs_state(ising_hamiltonian(2), 1.0)
        sigma = target.as_density_matrix()
        bound = max_fidelity_bound(target, 1)
        for _ in range(2000):
            amps = rng.normal(size=8) + 1j * rng.normal(size=8)
            amps /= np.linalg.norm(amps)
            rho = partial_trace_ancilla(StateVector(2, 1, amps))
            assert fidelity(rho, sigma) <= bound + 1e-6

    def test_requires_exact_mode(self):
        t = truncated_target(ising_hamiltonian(2), 1.0, 2)
        with pytest.raises(ValueError):
            max_fidelity_bound(t, 1)

