"""Kernel tests: Pauli action, rotations, traces, metrics."""

import numpy as np
import pytest

from gibbsprep import (
    DensityMatrix,
    HermitianOperator,
    PauliString,
    StateVector,
    fidelity,
    partial_trace_ancilla,
)
from gibbsprep import simcore
from gibbsprep.simcore import bell_frame, pauli_action_tables, pauli_rotation

from conftest import (
    basis_state,
    dense_exponential,
    dense_operator,
    dense_pauli,
    purity,
    random_state,
)


def random_pauli(n_qubits, rng, max_weight=2):
    weight = int(rng.integers(1, max_weight + 1))
    support = tuple(sorted(rng.choice(n_qubits, size=weight, replace=False)))
    letters = "".join(rng.choice(list("XYZ")) for _ in support)
    return PauliString(support, letters)


def apply_pauli(state, p):
    """``P |psi>`` from the package's gather tables, as raw amplitudes."""
    source, phase = pauli_action_tables(state.n_total, p.support, p.letters)
    return phase * state.amplitudes[source]


class TestPauliString:
    def test_validation(self):
        with pytest.raises(ValueError):
            PauliString((), "")
        with pytest.raises(ValueError):
            PauliString((1, 0), "XX")
        with pytest.raises(ValueError):
            PauliString((0, 0), "XX")
        with pytest.raises(ValueError):
            PauliString((0,), "A")
        with pytest.raises(ValueError):
            PauliString((0, 1), "X")
        with pytest.raises(ValueError, match="non-negative"):
            PauliString((-1,), "X")

    def test_ordering_is_lexicographic(self):
        a = PauliString((0,), "X")
        b = PauliString((0,), "Z")
        c = PauliString((0, 1), "XX")
        d = PauliString((1,), "X")
        assert a < b < c < d
        assert sorted([d, c, b, a]) == [a, b, c, d]

    def test_label_roundtrip(self):
        p = PauliString((0, 3, 7), "XYZ")
        assert p.label == "X0Y3Z7"
        assert PauliString((1, 3), "XZ").label == "X1Z3"

    def test_commutes_with(self):
        zz = PauliString((0, 1), "ZZ")
        xx = PauliString((0, 1), "XX")
        xi = PauliString((0,), "X")
        assert zz.commutes_with(xx)  # two clashes
        assert not zz.commutes_with(xi)  # one clash
        assert xi.commutes_with(PauliString((1,), "Z"))  # disjoint


class TestApplyPauli:
    def test_z_on_zero(self):
        state = basis_state(1, 1)
        out = apply_pauli(state, PauliString((0,), "Z"))
        assert np.allclose(out, state.amplitudes)

    def test_x_flips(self):
        state = basis_state(1, 1)
        out = apply_pauli(state, PauliString((0,), "X"))
        expected = np.zeros(4, dtype=complex)
        expected[1] = 1.0
        assert np.allclose(out, expected)

    def test_xy_on_00(self):
        state = basis_state(2, 0)
        out = apply_pauli(state, PauliString((0, 1), "XY"))
        expected = np.zeros(4, dtype=complex)
        expected[3] = 1j  # X|0> = |1>, Y|0> = i|1>
        assert np.allclose(out, expected)

    def test_out_of_range(self):
        state = basis_state(1, 1)
        with pytest.raises(IndexError):
            apply_pauli(state, PauliString((2,), "X"))

    def test_matches_dense_oracle(self, rng):
        for _ in range(30):
            state = random_state(2, 2, rng)
            p = random_pauli(4, rng)
            out = apply_pauli(state, p)
            expected = dense_pauli(4, p.support, p.letters) @ state.amplitudes
            assert np.allclose(out, expected, atol=1e-13)

    def test_involution(self, rng):
        state = random_state(2, 1, rng)
        p = random_pauli(3, rng)
        back = apply_pauli(state.with_amplitudes(apply_pauli(state, p)), p)
        assert np.allclose(back, state.amplitudes, atol=1e-14)


class TestPauliRotation:
    def test_theta_zero_is_identity(self, rng):
        state = random_state(2, 1, rng)
        out = pauli_rotation(state, PauliString((0, 2), "XY"), 0.0)
        assert np.array_equal(out.amplitudes, state.amplitudes)

    def test_half_pi_gives_i_pauli(self, rng):
        state = random_state(2, 1, rng)
        p = PauliString((1, 2), "YZ")
        out = pauli_rotation(state, p, np.pi / 2)
        expected = 1j * apply_pauli(state, p)
        assert np.allclose(out.amplitudes, expected, atol=1e-14)

    def test_pi_gives_global_minus(self, rng):
        state = random_state(2, 1, rng)
        out = pauli_rotation(state, PauliString((0,), "X"), np.pi)
        assert np.allclose(out.amplitudes, -state.amplitudes, atol=1e-14)
        before = partial_trace_ancilla(state).entries
        after = partial_trace_ancilla(out).entries
        assert np.allclose(before, after, atol=1e-14)

    def test_rotate_raw_matches_dense_oracle(self, rng):
        from gibbsprep.simcore import pauli_action_tables, pauli_rotate_raw

        src, ph = pauli_action_tables(4, (0, 2), "XY")
        theta = 0.613
        vec = rng.normal(size=16) + 1j * rng.normal(size=16)
        dense = np.cos(theta) * np.eye(16) + 1j * np.sin(theta) * dense_pauli(
            4, (0, 2), "XY"
        )
        assert np.allclose(
            pauli_rotate_raw(vec, src, ph, theta), dense @ vec, atol=1e-14, rtol=0
        )

    def test_matches_hermitian_exponential(self, rng):
        # cos/sin closed form vs a dense eigendecomposition, 100 random pairs
        for _ in range(100):
            state = random_state(2, 2, rng)
            p = random_pauli(4, rng)
            theta = rng.uniform(-np.pi, np.pi)
            op = HermitianOperator(4, ((1.0, p),))
            a = pauli_rotation(state, p, theta)
            b = dense_exponential(dense_operator(op), theta) @ state.amplitudes
            assert np.abs(a.amplitudes - b).max() < 1e-12


class TestPartialTrace:
    def test_product_state_is_pure(self, rng):
        phi = rng.normal(size=4) + 1j * rng.normal(size=4)
        phi /= np.linalg.norm(phi)
        chi = rng.normal(size=2) + 1j * rng.normal(size=2)
        chi /= np.linalg.norm(chi)
        amps = np.kron(chi, phi)  # ancilla bits are the high bits
        state = StateVector(2, 1, amps)
        rho = partial_trace_ancilla(state)
        assert abs(purity(rho) - 1.0) < 1e-12
        assert np.allclose(rho.entries, np.outer(phi, phi.conj()), atol=1e-12)

    def test_bell_pair_gives_maximally_mixed(self):
        amps = np.zeros(4, dtype=complex)
        amps[0b00] = 1 / np.sqrt(2)
        amps[0b11] = 1 / np.sqrt(2)
        rho = partial_trace_ancilla(StateVector(1, 1, amps))
        assert np.allclose(rho.entries, np.eye(2) / 2, atol=1e-14)

    def test_matches_dense_kron_oracle(self, rng):
        state = random_state(2, 2, rng)
        rho = partial_trace_ancilla(state).entries
        full = np.outer(state.amplitudes, state.amplitudes.conj())
        expected = np.zeros((4, 4), dtype=complex)
        for a in range(4):
            expected += full[4 * a : 4 * a + 4, 4 * a : 4 * a + 4]
        assert np.allclose(rho, expected, atol=1e-13)

    def test_trace_is_one(self, rng):
        for _ in range(20):
            state = random_state(3, 2, rng)
            assert abs(partial_trace_ancilla(state).entries.trace() - 1.0) < 1e-12


class TestMetrics:
    def test_purity_examples(self, rng):
        state = random_state(2, 0, rng)
        rho = partial_trace_ancilla(state)
        assert abs(purity(rho) - 1.0) < 1e-12
        assert abs(purity(DensityMatrix(np.eye(8) / 8)) - 0.125) < 1e-14
        assert abs(purity(DensityMatrix(np.diag([0.75, 0.25]))) - 0.625) < 1e-14

    def test_fidelity_self_is_one(self, rng):
        from conftest import random_density

        rho = random_density(4, rng)
        assert abs(fidelity(rho, rho) - 1.0) < 1e-9

    def test_fidelity_self_never_exceeds_one_at_low_rank(self, rng):
        # rank 2 in dimension 8: rounding-noise eigenvalues must not count
        for _ in range(200):
            rho = partial_trace_ancilla(random_state(3, 1, rng))
            assert fidelity(rho, rho) <= 1.0 + 1e-12

    def test_fidelity_pure_states_overlap(self, rng):
        a = random_state(2, 0, rng)
        b = random_state(2, 0, rng)
        rho = partial_trace_ancilla(a)
        sigma = partial_trace_ancilla(b)
        overlap = abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2
        assert abs(fidelity(rho, sigma) - overlap) < 1e-8

    def test_fidelity_commuting_case(self):
        rho = DensityMatrix(np.diag([0.5, 0.5]))
        sigma = DensityMatrix(np.diag([0.9, 0.1]))
        expected = (np.sqrt(0.45) + np.sqrt(0.05)) ** 2  # exactly 0.8
        assert abs(fidelity(rho, sigma) - expected) < 1e-12
        assert abs(expected - 0.8) < 1e-15

    def test_fidelity_symmetric(self, rng):
        from conftest import random_density

        for _ in range(20):
            rho = random_density(4, rng)
            sigma = random_density(4, rng)
            assert abs(fidelity(rho, sigma) - fidelity(sigma, rho)) < 1e-9

    def test_fidelity_clamps_rounding_below_zero(self):
        # An eigenvalue within the floor is rounding: the root clamps it to 0.
        sigma = DensityMatrix(np.diag([0.6, 0.4 + 5e-10, -5e-10, 0.0]))
        root = np.sqrt([0.6, 0.4 + 5e-10, 0.0, 0.0])
        assert np.abs(sigma.sqrt - np.diag(root)).max() <= 1e-15
        rho = DensityMatrix(np.diag([0.6, 0.4, 0.0, 0.0]))
        assert abs(fidelity(rho, sigma) - 1.0) < 1e-9
        assert abs(fidelity(sigma, sigma) - 1.0) < 1e-9

    def test_fidelity_with_cached_root_matches_eigh_reference(self, rng):
        """Each sigma serves several rho: all but the first call read its cached root."""
        from conftest import random_density

        def reference(rho, sigma):
            values, vectors = np.linalg.eigh(sigma.entries)
            root = (vectors * np.sqrt(np.clip(values, 0.0, None))) @ vectors.conj().T
            inner = np.linalg.eigvalsh(root @ rho.entries @ root)
            cutoff = inner.size * np.finfo(np.float64).eps * inner[-1]
            return np.sqrt(inner[inner > cutoff]).sum() ** 2

        def draw(kind):
            if kind == "full":
                return random_density(4, rng)
            # Rank 2 and rank 1: reduced states of two data qubits.
            n_ancilla = 1 if kind == "rank2" else 0
            return partial_trace_ancilla(random_state(2, n_ancilla, rng))

        for sigma_kind in ("full", "rank2", "pure"):
            sigma = draw(sigma_kind)
            for rho_kind in ("full", "rank2", "pure", "full"):
                rho = draw(rho_kind)
                assert abs(fidelity(rho, sigma) - reference(rho, sigma)) <= 1e-12
            assert "sqrt" in sigma.__dict__

    def test_fidelity_within_the_ceiling_is_clamped_to_one(self):
        # Trace 1 + 8e-11, within the 1e-10 a density matrix is allowed:
        # F(rho, rho) computes to about 1 + 1.6e-10.
        rho = DensityMatrix(np.eye(2) * (0.5 + 4e-11))
        assert fidelity(rho, rho) == 1.0

    def test_fidelity_above_the_ceiling_raises(self, monkeypatch):
        rho = DensityMatrix(np.eye(2) * (0.5 + 4e-11))
        monkeypatch.setattr(simcore, "FIDELITY_CEILING", 1.0 + 1e-11)
        with pytest.raises(ValueError, match="fidelity .* above"):
            fidelity(rho, rho)

    def test_fidelity_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity(DensityMatrix(np.eye(2) / 2), DensityMatrix(np.eye(4) / 4))


class TestInvariants:
    def test_norm_conserved_over_random_compositions(self, rng):
        state = random_state(2, 2, rng)
        for _ in range(1000):
            if rng.integers(2) == 0:
                state = state.with_amplitudes(apply_pauli(state, random_pauli(4, rng)))
            else:
                state = pauli_rotation(
                    state, random_pauli(4, rng), rng.uniform(-np.pi, np.pi)
                )
            assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-10

    def test_state_validation(self):
        with pytest.raises(ValueError):
            StateVector(1, 1, np.ones(4))
        with pytest.raises(ValueError):
            StateVector(1, 1, np.ones(8) / np.sqrt(8))

    def test_density_validation(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([0.5, 0.6]))
        with pytest.raises(ValueError):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))
        with pytest.raises(ValueError, match="must be square"):
            DensityMatrix(np.ones((2, 4)) / 2)
        with pytest.raises(ValueError, match="purity"):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_density_refuses_negative_spectrum(self):
        # Refused where it is built, so no consumer sees a non-state.
        with pytest.raises(ValueError, match="eigenvalue -0.1.* below -1e-09"):
            DensityMatrix(np.diag([0.6, 0.3, 0.2, -0.1]))

    def test_nan_fails_every_check(self):
        with pytest.raises(ValueError, match="state norm"):
            StateVector(1, 1, [np.nan] * 4)
        with pytest.raises(ValueError, match="not Hermitian"):
            DensityMatrix(np.full((2, 2), np.nan))

    def test_bell_frame_needs_a_pair(self):
        with pytest.raises(ValueError, match="at least one data/ancilla pair"):
            bell_frame(0)
