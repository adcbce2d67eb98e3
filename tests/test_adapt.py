"""Pools, reference states, ansatz gradients, growth loops, gate accounting."""

import numpy as np
import pytest

from gibbsprep import adapt
from gibbsprep import (
    Ansatz,
    HermitianOperator,
    NumericalFailure,
    ObjectiveContext,
    PauliString,
    adapt_qaoa_run,
    adapt_vqe_run,
    baseline_qaoa_run,
    cnot_count,
    entangling_hamiltonian,
    fidelity,
    gibbs_state,
    ising_hamiltonian,
    joint_problem_hamiltonian,
    max_fidelity_bound,
    objective,
    optimize_fixed_ansatz,
    partial_trace_ancilla,
    restart_postselect,
    shift_rule_gradient,
    xy_hamiltonian,
)
from gibbsprep.adapt import (
    DEFAULT_QAOA_RESTARTS,
    DEFAULT_VQE_RESTARTS,
    ENTANGLER_LABEL,
    GROWTH_RUNS,
    MAX_QAOA_LAYERS,
    STALL_IMPROVEMENT,
    STALL_LIMIT,
    TIE_TOLERANCE,
    AdaptTrace,
    IterationRecord,
    PoolOperator,
    QaoaSettings,
    VqeSettings,
    _apply_gate,
    ansatz_value_and_gradient,
    build_qaoa_pool,
    build_vqe_pool,
    reference_from_angles,
    register_pool,
    singlet_reference_state,
    vqe_reference_state,
)
from gibbsprep.simcore import pauli_rotation

from conftest import (
    basis_state,
    candidate_gradient,
    central_difference,
    dense_exponential,
    dense_operator,
    dense_pauli,
    purity,
    random_state,
    without_wall_ms,
)


def single_qubit_target(beta=1.0):
    h = HermitianOperator(1, ((-1.0, PauliString((0,), "Z")),))
    return gibbs_state(h, beta)


def make_vqe_ansatz(n_data, n_ancilla, paulis, params, rng):
    reference = random_state(n_data, n_ancilla, rng)
    return Ansatz(
        flavor="vqe",
        n_data=n_data,
        n_ancilla=n_ancilla,
        reference=reference,
        reference_spec={"kind": "fixed"},
        generators=[PoolOperator.from_pauli(p) for p in paulis],
        parameters=np.asarray(params, dtype=float),
    )


class TestPools:
    def test_vqe_pool_sizes(self):
        assert len(build_vqe_pool(2)) == 15
        assert len(build_vqe_pool(4)) == 3 * 4 + 9 * 6
        assert len(build_vqe_pool(8)) == 276

    def test_vqe_pool_sorted_unique_low_weight(self):
        pool = build_vqe_pool(4)
        assert register_pool(2, 2, False) == pool
        words = [op.pauli for op in pool]
        assert words == sorted(words)
        assert len(set(words)) == len(words)
        assert all(op.pauli.weight in (1, 2) for op in pool)

    def test_vqe_pool_rejects_single_qubit(self):
        with pytest.raises(ValueError):
            build_vqe_pool(1)

    def test_qaoa_pool_sizes(self):
        assert len(build_qaoa_pool(6, entangling_hamiltonian(6))) == 325
        assert len(build_qaoa_pool(1, entangling_hamiltonian(1))) == 10

    def test_qaoa_pool_structure(self):
        n = 3
        pool = build_qaoa_pool(n, entangling_hamiltonian(n))
        assert register_pool(n, n, True) == pool
        assert pool[-1].kind == "sum_entangler"
        for op in pool[:-1]:
            d, a = op.pauli.support
            assert d < n <= a  # one data and one ancilla index each
        words = [op.pauli for op in pool[:-1]]
        assert words == sorted(words) and len(set(words)) == len(words)


class TestReferenceStates:
    def test_zero_angles_give_unentangled_zero_state(self):
        state = reference_from_angles(2, 2, np.zeros(4))
        expected = np.zeros(16)
        expected[0] = 1.0
        assert np.allclose(state.amplitudes, expected)
        assert abs(purity(partial_trace_ancilla(state)) - 1.0) < 1e-12

    def test_single_qubit_rotation_form(self):
        alpha = 0.73
        state = reference_from_angles(1, 1, np.array([alpha, 0.0]))
        assert np.allclose(
            state.amplitudes, [np.cos(alpha), np.sin(alpha), 0, 0], atol=1e-14
        )

    def test_seeded_draw_lands_in_purity_window(self):
        for seed in range(10):
            state, angles = vqe_reference_state(2, 2, np.random.default_rng(seed))
            p = purity(partial_trace_ancilla(state))
            assert 0.25 + 1e-6 < p < 1 - 1e-6
            assert np.all((0 <= angles) & (angles < 2 * np.pi))

    def test_seeded_draw_deterministic(self):
        a, ang_a = vqe_reference_state(3, 2, np.random.default_rng(42))
        b, ang_b = vqe_reference_state(3, 2, np.random.default_rng(42))
        assert np.array_equal(a.amplitudes, b.amplitudes)
        assert np.array_equal(ang_a, ang_b)

    @pytest.mark.parametrize("n_data, n_ancilla", [(2, 1), (2, 2), (3, 2), (2, 3)])
    def test_entangled_reference_matches_dense_circuit(self, n_data, n_ancilla, rng):
        n = n_data + n_ancilla
        angles = rng.uniform(0, 2 * np.pi, n)
        psi = np.zeros(1 << n, dtype=complex)
        psi[0] = 1.0
        for q, alpha in enumerate(angles):
            psi = dense_exponential(dense_pauli(n, (q,), "Y"), -alpha) @ psi
        identity = np.eye(1 << n)
        for a in range(n_data, n):
            for d in range(n_data):
                # CNOT = (1 + Z_a)/2 + (1 - Z_a) X_d / 2
                z_a = dense_pauli(n, (a,), "Z")
                flip = dense_pauli(n, (d,), "X")
                psi = ((identity + z_a) / 2 + (identity - z_a) @ flip / 2) @ psi
        state = reference_from_angles(n_data, n_ancilla, angles)
        assert np.abs(state.amplitudes - psi).max() <= 1e-14

    @pytest.mark.parametrize(
        "n_data, n_ancilla", [(2, 1), (2, 2), (3, 1), (3, 3), (4, 2), (5, 5)]
    )
    def test_product_reference_equals_rotation_sequence_bitwise(
        self, n_data, n_ancilla, rng
    ):
        # One Y rotation per qubit by pauli_rotation, then the CNOTs gathered one
        # index at a time: the product form reproduces these bits, not only 1e-14.
        n = n_data + n_ancilla
        mask = (1 << n_data) - 1
        for _ in range(20):
            angles = rng.uniform(0, 2 * np.pi, n)
            state = basis_state(n_data, n_ancilla)
            for q, alpha in enumerate(angles):
                state = pauli_rotation(state, PauliString((q,), "Y"), -float(alpha))
            rotated = state.amplitudes
            expected = [
                rotated[i ^ mask if bin(i >> n_data).count("1") % 2 else i]
                for i in range(1 << n)
            ]
            state = reference_from_angles(n_data, n_ancilla, angles)
            assert np.array_equal(state.amplitudes, expected)

    def test_singlet_energy(self):
        for n in (1, 2, 3):
            state = singlet_reference_state(n)
            h_ad = entangling_hamiltonian(n)
            amps = state.amplitudes
            energy = np.vdot(amps, dense_operator(h_ad) @ amps).real
            assert abs(energy + 3 * n) < 1e-10

    def test_singlet_reduces_to_maximally_mixed(self):
        rho = partial_trace_ancilla(singlet_reference_state(2))
        assert np.allclose(rho.entries, np.eye(4) / 4, atol=1e-13)

    def test_singlet_matches_flat_thermal_state(self):
        target = gibbs_state(ising_hamiltonian(2), 0.0)
        rho = partial_trace_ancilla(singlet_reference_state(2))
        assert abs(fidelity(rho, target.as_density_matrix()) - 1.0) < 1e-9


class TestAnsatzGradients:
    def test_vqe_gradient_matches_finite_difference(self, rng):
        ctx = ObjectiveContext(gibbs_state(ising_hamiltonian(2), 1.2), 2, 2)
        paulis = [
            PauliString((0, 2), "XY"),
            PauliString((1,), "Z"),
            PauliString((1, 3), "ZX"),
            PauliString((0, 1), "YY"),
            PauliString((2,), "X"),
        ]
        params = rng.uniform(-np.pi, np.pi, 5)
        ansatz = make_vqe_ansatz(2, 2, paulis, params, rng)
        value, grad = ansatz_value_and_gradient(ansatz, params, ctx)
        assert abs(value - objective(partial_trace_ancilla(ansatz.prepare(params)), ctx)) < 1e-12
        assert np.abs(grad - central_difference(ansatz.prepare, params, ctx)).max() < 1e-6

    def test_vqe_gradient_matches_public_shift_rule(self, rng):
        ctx = ObjectiveContext(gibbs_state(xy_hamiltonian(2), 0.8), 2, 2)
        paulis = [PauliString((0, 3), "XZ"), PauliString((1, 2), "YX")]
        params = rng.uniform(-1, 1, 2)
        ansatz = make_vqe_ansatz(2, 2, paulis, params, rng)
        _, grad = ansatz_value_and_gradient(ansatz, params, ctx)
        assert np.abs(grad - shift_rule_gradient(ansatz, params, ctx)).max() < 1e-12

    def test_layered_gradient_matches_finite_difference(self, rng):
        n = 2
        ctx = ObjectiveContext(gibbs_state(ising_hamiltonian(n), 0.9), n, n)
        pool = register_pool(n, n, True)
        # One Pauli mixer, one entangler.
        ansatz = Ansatz.layered("qaoa", ising_hamiltonian(n), [pool[3], pool[-1]])
        params = rng.uniform(-0.8, 0.8, 4)
        _, grad = ansatz_value_and_gradient(ansatz, params, ctx)
        assert np.abs(grad - central_difference(ansatz.prepare, params, ctx)).max() < 1e-6

    def test_layered_accepts_noncommuting_cost(self):
        n = 3
        assert not xy_hamiltonian(n).terms_commute
        entangler = register_pool(n, n, True)[-1]
        ansatz = Ansatz.layered("baseline", xy_hamiltonian(n), [entangler])
        assert ansatz.cost_gate.hamiltonian == xy_hamiltonian(n)
        assert ansatz.prepare(np.array([0.3, -0.2])).n_total == 2 * n

    def test_rejects_reference_of_another_register_split(self):
        # The objective would use the 3+1 split, prepare() the 2+2 state.
        with pytest.raises(ValueError, match=r"2\+2 qubits, the ansatz 3\+1"):
            Ansatz(
                flavor="vqe",
                n_data=3,
                n_ancilla=1,
                reference=basis_state(2, 2),
                reference_spec={"kind": "basis"},
            )

    def test_zero_parameter_layer_reproduces_state_exactly(self, rng):
        ctx = ObjectiveContext(gibbs_state(ising_hamiltonian(2), 1.0), 2, 2)
        paulis = [PauliString((0, 2), "XY"), PauliString((1, 3), "ZZ")]
        params = rng.uniform(-1, 1, 2)
        ansatz = make_vqe_ansatz(2, 2, paulis, params, rng)
        before = ansatz.prepare(params)
        ansatz.generators.append(
            PoolOperator.from_pauli(PauliString((0, 1), "XX"))
        )
        after = ansatz.prepare(np.append(params, 0.0))
        assert np.array_equal(before.amplitudes, after.amplitudes)


def cost_model(name, n):
    """A data Hamiltonian on ``n`` qubits.

    ``ising`` is diagonal, ``xx`` an open XX chain with distinct weights
    (real, not diagonal), and ``complex`` has Y letters, so that its
    ``exp(i gamma H/2)`` is not a symmetric matrix. ``xy`` is the one whose
    terms do not commute: the periodic XY chain plus a field ``0.5 Z_0``
    (``X`` and ``Z`` on one qubit).
    """
    if name == "xy":
        field = ((0.5, PauliString((0,), "Z")),)
        if n == 1:
            return HermitianOperator(1, ((-0.8, PauliString((0,), "X")),) + field)
        return HermitianOperator(n, xy_hamiltonian(n).terms + field)
    if name == "ising":
        return (
            ising_hamiltonian(n) if n > 1
            else HermitianOperator(1, ((-1.0, PauliString((0,), "Z")),))
        )
    if name == "xx":
        if n == 1:
            return HermitianOperator(1, ((-0.8, PauliString((0,), "X")),))
        return HermitianOperator(
            n,
            tuple(
                (-1.0 + 0.4 * i, PauliString((i, i + 1), "XX")) for i in range(n - 1)
            ),
        )
    if n == 1:
        return HermitianOperator(1, ((0.7, PauliString((0,), "Y")),))
    terms = [(-1.0, PauliString((0, 1), "XY")), (-0.5, PauliString((0, 1), "YX"))]
    terms += [(0.3, PauliString((q,), "Z")) for q in range(2, n)]
    return HermitianOperator(n, tuple(terms))


class TestCostLayer:
    """The cost gate from the data register against the dense 2n-qubit exponential."""

    @pytest.mark.parametrize("model", ["ising", "xx", "complex", "xy"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_dense_exponential(self, model, n, rng):
        h = cost_model(model, n)
        cost = Ansatz.layered("baseline", h).cost_gate
        assert cost.hamiltonian == h
        assert h.terms_commute == (model != "xy")
        assert (h.diagonal is None) == (model != "ising")
        joint = dense_operator(joint_problem_hamiltonian(h))
        psi = random_state(n, n, rng).amplitudes
        lam = random_state(n, n, rng).amplitudes
        gamma = rng.uniform(-np.pi, np.pi)
        for g in (gamma, -gamma):  # forward and inverse
            expected = dense_exponential(joint, g / 2) @ psi
            out, _, _ = _apply_gate(cost, g, psi, 2 * n)
            assert np.abs(out - expected).max() <= 1e-13
        # The generator (H (x) 1 + 1 (x) H)/2 is F^dagger diag(energies) F.
        inner = np.vdot(cost.to_frame(lam), cost.spectrum[0] * cost.to_frame(psi))
        assert abs(2 * inner - np.vdot(lam, joint @ psi)) <= 1e-13

    def test_diagonal_phase_action(self, rng):
        n, gamma = 3, 0.74
        ansatz = Ansatz.layered("baseline", ising_hamiltonian(n))
        # independent diagonal: energies from spin enumeration
        energies = np.empty(8)
        for z in range(8):
            s = [1 - 2 * ((z >> q) & 1) for q in range(3)]
            energies[z] = -sum(s[i] * s[(i + 1) % 3] for i in range(3))
        joint = (energies[:, None] + energies[None, :]).ravel()  # ancilla bits high
        psi = random_state(n, n, rng).amplitudes
        expected = np.exp(0.5j * gamma * joint) * psi
        out, _, _ = _apply_gate(ansatz.cost_gate, gamma, psi, 2 * n)
        assert np.abs(out - expected).max() <= 1e-13

    @pytest.mark.parametrize("model", ["ising", "xx", "complex", "xy"])
    def test_spectrum_values_index_the_energies(self, model):
        n = 3
        h = cost_model(model, n)
        energies, values, index = Ansatz.layered("baseline", h).cost_gate.spectrum
        assert np.array_equal(values[index], energies)
        generator = dense_operator(joint_problem_hamiltonian(h)) / 2
        assert np.abs(np.sort(energies) - np.linalg.eigvalsh(generator)).max() <= 1e-13

    def test_diagonal_cost_builds_no_eigensystem(self, rng):
        """A diagonal ``H`` gets the identity frame: no ``eigh``."""
        n = 3
        h_data = ising_hamiltonian(n)
        ctx = ObjectiveContext(gibbs_state(h_data, 0.7), n, n)
        pool = register_pool(n, n, True)
        params = rng.uniform(-np.pi, np.pi, 4)
        ansatz = Ansatz.layered("qaoa", h_data, [pool[-1], pool[5]], params)
        ansatz_value_and_gradient(ansatz, params, ctx)
        # The gate is shared per H, so the H it holds is the one that matters.
        built = ansatz.cost_gate.hamiltonian.__dict__.keys()
        assert "eigensystem" not in built

    def test_equal_hamiltonians_share_one_cost_gate(self):
        n = 2
        first, second = (
            Ansatz.layered(flavor, ising_hamiltonian(n)) for flavor in ("qaoa", "baseline")
        )
        assert first.cost_operator is not second.cost_operator
        assert first.cost_gate is second.cost_gate
        other = Ansatz.layered("qaoa", cost_model("xx", n))
        assert other.cost_gate is not first.cost_gate

    def test_accepts_the_mirrored_cost_by_hand(self, rng):
        # The hand-built form, as the benchmark's probes build it, is the
        # constructor's ansatz: the same gates and the same state, bit for bit.
        n = 3
        h = ising_hamiltonian(n)
        pool = register_pool(n, n, True)
        generators, params = [pool[-1], pool[5]], rng.uniform(0.0, np.pi / 2, 4)
        by_hand = Ansatz(
            flavor="qaoa",
            n_data=n,
            n_ancilla=n,
            reference=singlet_reference_state(n),
            reference_spec={"kind": "singlet"},
            generators=generators,
            parameters=params,
            cost_operator=joint_problem_hamiltonian(h),
        )
        built = Ansatz.layered("qaoa", h, generators, params)
        assert by_hand.gates == built.gates and by_hand.cost_gate is built.cost_gate
        assert by_hand.reference_spec == built.reference_spec
        assert np.array_equal(by_hand.prepare().amplitudes, built.prepare().amplitudes)

    def test_rejects_cost_that_is_not_mirrored(self):
        n = 2
        h = ising_hamiltonian(n)
        on_ancillas = joint_problem_hamiltonian(h).terms[len(h.terms):]
        reweighted = tuple((2.0 * c, p) for c, p in on_ancillas)
        for n_ancilla, cost in (
            (n, HermitianOperator(2 * n, h.terms)),  # data register only
            (n, HermitianOperator(2 * n, h.terms + reweighted)),
            (n + 1, joint_problem_hamiltonian(h)),
        ):
            with pytest.raises(ValueError, match="mirrored"):
                Ansatz(
                    flavor="qaoa",
                    n_data=n,
                    n_ancilla=n_ancilla,
                    reference=basis_state(n, n_ancilla),
                    reference_spec={"kind": "basis"},
                    cost_operator=cost,
                )


def weighted_entangler(n):
    """The pair entangler with distinct non-unit weights on its terms."""
    terms = entangling_hamiltonian(n).terms
    weighted = tuple((0.5 + 0.25 * j, p) for j, (_, p) in enumerate(terms))
    return PoolOperator.from_entangler(HermitianOperator(2 * n, weighted), n)


class TestAdjointEngine:
    """The reverse pass against the shift-rule oracle and central differences."""

    def check(self, ansatz, params, ctx):
        value, grad = ansatz_value_and_gradient(ansatz, params, ctx)
        assert value == objective(partial_trace_ancilla(ansatz.prepare(params)), ctx)
        assert np.abs(grad - shift_rule_gradient(ansatz, params, ctx)).max() <= 1e-12
        assert np.abs(grad - central_difference(ansatz.prepare, params, ctx)).max() < 1e-6

    def test_baseline_flavor(self, rng):
        n = 3
        h_data = ising_hamiltonian(n)
        ctx = ObjectiveContext(gibbs_state(h_data, 0.7), n, n)
        entangler = register_pool(n, n, True)[-1]
        params = rng.uniform(-np.pi, np.pi, 6)
        ansatz = Ansatz.layered("baseline", h_data, [entangler] * 3, params)
        self.check(ansatz, params, ctx)

    def test_qaoa_with_nondiagonal_commuting_cost(self, rng):
        n = 3
        pool = register_pool(n, n, True)
        mixers = [pool[-1], pool[5], weighted_entangler(n)]
        for model in ("xx", "complex"):
            h_data = cost_model(model, n)
            ctx = ObjectiveContext(gibbs_state(h_data, 1.3), n, n)
            params = rng.uniform(-np.pi, np.pi, 6)
            ansatz = Ansatz.layered("qaoa", h_data, mixers, params)
            assert ansatz.cost_gate.hamiltonian.diagonal is None
            self.check(ansatz, params, ctx)
            # The cost layer comes from the data register: nothing 2n-qubit is built.
            built = ansatz.cost_operator.__dict__.keys()
            assert not {"matrix", "eigensystem", "diagonal"} & built

    def test_noncommuting_cost_against_central_differences(self, rng):
        """Adjoint only: the shift rule refuses a cost whose terms do not commute."""
        n = 3
        h_data = xy_hamiltonian(n)
        ctx = ObjectiveContext(gibbs_state(h_data, 1.0), n, n)
        pool = register_pool(n, n, True)
        params = rng.uniform(-np.pi, np.pi, 6)
        ansatz = Ansatz.layered("qaoa", h_data, [pool[-1], pool[7], pool[-1]], params)
        value, grad = ansatz_value_and_gradient(ansatz, params, ctx)
        assert value == objective(partial_trace_ancilla(ansatz.prepare(params)), ctx)
        assert np.abs(grad - central_difference(ansatz.prepare, params, ctx)).max() < 1e-6
        with pytest.raises(ValueError, match="commute"):
            shift_rule_gradient(ansatz, params, ctx)

    def test_hundred_layer_vqe(self, rng):
        ctx = ObjectiveContext(gibbs_state(ising_hamiltonian(3), 1.1), 3, 2)
        pool = register_pool(3, 2, False)
        paulis = [pool[int(i)].pauli for i in rng.integers(0, len(pool), 100)]
        params = rng.uniform(-np.pi, np.pi, 100)
        self.check(make_vqe_ansatz(3, 2, paulis, params, rng), params, ctx)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_swap_form_entangler_matches_per_word_rotations(self, n, rng):
        h_data = (
            ising_hamiltonian(n) if n > 1
            else HermitianOperator(1, ((-1.0, PauliString((0,), "Z")),))
        )
        entangler = register_pool(n, n, True)[-1]
        params = rng.uniform(-np.pi, np.pi, 4)
        ansatz = Ansatz.layered("baseline", h_data, [entangler] * 2, params)
        # The singlet is an eigenstate of the entangler; start elsewhere.
        ansatz.reference = random_state(n, n, rng)
        cost_diagonal = np.diag(dense_operator(joint_problem_hamiltonian(h_data)))
        state = ansatz.reference
        for gamma, alpha in params.reshape(-1, 2):
            state = state.with_amplitudes(
                np.exp(0.5j * gamma * cost_diagonal) * state.amplitudes
            )
            for c, p in entangler.terms:
                state = pauli_rotation(state, p, alpha * c)
        # Global phase included: the Bell-frame phase is exp(i a G) exactly.
        assert np.abs(ansatz.prepare().amplitudes - state.amplitudes).max() <= 1e-13

    def test_pool_scan_on_full_vqe_pool(self, rng):
        from gibbsprep.adapt import _pool_scan, _terms_by_support

        ctx = ObjectiveContext(gibbs_state(ising_hamiltonian(4), 0.8), 4, 4)
        state = random_state(4, 4, rng)
        pool = register_pool(4, 4, False) + (weighted_entangler(4),)
        fast = _pool_scan(state, pool, ctx, _terms_by_support(pool))
        slow = [candidate_gradient(state, op, ctx) for op in pool]
        assert np.abs(fast - slow).max() <= 1e-12


class TestBellFrame:
    """The entangler as one diagonal phase in the pair Bell basis."""

    @staticmethod
    def entangler_only(n, generators, params, rng):
        """A ``vqe``-flavor ansatz of entangler layers on a random state."""
        return Ansatz(
            flavor="vqe",
            n_data=n,
            n_ancilla=n,
            reference=random_state(n, n, rng),
            reference_spec={"kind": "random"},
            generators=list(generators),
            parameters=params,
        )

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_frame_phase_is_the_dense_exponential(self, n, rng):
        uniform = register_pool(n, n, True)[-1]
        for op in (uniform, weighted_entangler(n)):
            alpha = rng.uniform(-np.pi, np.pi)
            ansatz = self.entangler_only(n, [op], [alpha], rng)
            exact = dense_exponential(dense_operator(op.operator), alpha)
            expected = exact @ ansatz.reference.amplitudes
            assert np.abs(ansatz.prepare().amplitudes - expected).max() <= 1e-13

    def test_spectrum_values_index_the_energies(self):
        energies, values, index = weighted_entangler(3).spectrum
        assert np.array_equal(values[index], energies)
        assert np.array_equal(np.unique(energies), values)
        # Uniform weights: pair energies 1, 1, 1, -3, so n + 1 distinct sums.
        _, values, _ = register_pool(3, 3, True)[-1].spectrum
        assert values.tolist() == [-9.0, -5.0, -1.0, 3.0]

    def test_from_entangler_rejects_terms_off_the_pairs(self):
        n = 2
        for word in (PauliString((0, 1), "XX"), PauliString((1, n + 1), "XY")):
            operator = HermitianOperator(2 * n, ((1.0, word),))
            with pytest.raises(ValueError, match="not XX, YY or ZZ"):
                PoolOperator.from_entangler(operator, n)

    def test_value_and_gradient_builds_no_gather_tables(self, rng):
        from gibbsprep.simcore import pauli_action_tables

        n = 3
        ctx = ObjectiveContext(gibbs_state(ising_hamiltonian(n), 0.9), n, n)
        generators = [register_pool(n, n, True)[-1]]
        generators.append(weighted_entangler(n))
        params = rng.uniform(-np.pi, np.pi, 2)
        ansatz = self.entangler_only(n, generators, params, rng)
        before = pauli_action_tables.cache_info()
        value, grad = ansatz_value_and_gradient(ansatz, params, ctx)
        assert pauli_action_tables.cache_info() == before
        assert value == objective(partial_trace_ancilla(ansatz.prepare(params)), ctx)
        assert np.abs(grad - shift_rule_gradient(ansatz, params, ctx)).max() <= 1e-12


class TestPoolScan:
    def test_matches_public_candidate_gradients(self, rng):
        """Every entry against the public shift-rule oracle on one appended gate."""
        from gibbsprep.adapt import _pool_scan, _terms_by_support

        for n in (2, 3):
            ctx = ObjectiveContext(gibbs_state(ising_hamiltonian(n), 0.9), n, n)
            state = random_state(n, n, rng)
            pool = register_pool(n, n, True)
            fast = _pool_scan(state, pool, ctx, _terms_by_support(pool))
            for j, op in enumerate(pool):
                assert abs(fast[j] - candidate_gradient(state, op, ctx)) < 1e-12

    def test_builds_no_gather_tables(self, rng):
        from gibbsprep.adapt import _pool_scan, _terms_by_support
        from gibbsprep.simcore import pauli_action_tables

        ctx = ObjectiveContext(gibbs_state(ising_hamiltonian(5), 0.9), 5, 5)
        state = random_state(5, 5, rng)
        pools = register_pool(5, 5, True), register_pool(5, 5, False)
        before = pauli_action_tables.cache_info()
        for pool in pools:
            _pool_scan(state, pool, ctx, _terms_by_support(pool))
        assert pauli_action_tables.cache_info() == before


class TestOptimizeFixedAnsatz:
    def test_zero_layer_returns_reference_objective(self, rng):
        ctx = ObjectiveContext(gibbs_state(ising_hamiltonian(2), 1.0), 2, 2)
        ansatz = make_vqe_ansatz(2, 2, [], [], rng)
        result = optimize_fixed_ansatz(ansatz, ctx, np.zeros(0))
        expected = objective(partial_trace_ancilla(ansatz.reference), ctx)
        assert result.objective == expected
        assert result.parameters.size == 0

    def test_grid_scan_oracle_single_layer(self):
        target = single_qubit_target(beta=0.0)
        ctx = ObjectiveContext(target, 1, 1)
        ansatz = Ansatz(
            flavor="vqe",
            n_data=1,
            n_ancilla=1,
            reference=singlet_reference_state(1),
            reference_spec={"kind": "singlet"},
            generators=[PoolOperator.from_pauli(PauliString((0, 1), "ZX"))],
        )
        result = optimize_fixed_ansatz(ansatz, ctx, np.array([0.3]))
        thetas = np.arange(0.0, np.pi, 1e-4)
        values = [
            objective(partial_trace_ancilla(ansatz.prepare([t])), ctx)
            for t in thetas
        ]
        assert abs(result.objective - min(values)) < 1e-8

    def test_restart_at_output_is_fixed_point(self, rng):
        ctx = ObjectiveContext(gibbs_state(ising_hamiltonian(2), 0.8), 2, 2)
        paulis = [PauliString((0, 2), "XY"), PauliString((1, 3), "YZ")]
        ansatz = make_vqe_ansatz(2, 2, paulis, np.zeros(2), rng)
        first = optimize_fixed_ansatz(ansatz, ctx, np.array([0.2, -0.4]))
        second = optimize_fixed_ansatz(ansatz, ctx, first.parameters)
        assert abs(second.objective - first.objective) < 1e-10

    def test_never_worse_than_init(self, rng):
        ctx = ObjectiveContext(gibbs_state(xy_hamiltonian(2), 1.5), 2, 2)
        paulis = [PauliString((0, 2), "XX"), PauliString((1, 3), "YY")]
        ansatz = make_vqe_ansatz(2, 2, paulis, np.zeros(2), rng)
        init = np.array([1.1, -2.3])
        init_value = objective(partial_trace_ancilla(ansatz.prepare(init)), ctx)
        result = optimize_fixed_ansatz(ansatz, ctx, init)
        assert result.objective <= init_value + 1e-12


def rosenbrock(x):
    a, b = x
    value = (1 - a) ** 2 + 100 * (b - a * a) ** 2
    grad = np.array([-2 * (1 - a) - 400 * a * (b - a * a), 200 * (b - a * a)])
    return value, grad


class TestBfgsOnAnalyticObjectives:
    """The optimizer run on closed-form objectives with known minimizers.

    ``adapt.ansatz_value_and_gradient`` is replaced by the analytic function,
    so only the parameter count of the two-generator ansatz matters.
    """

    @pytest.fixture
    def minimize(self, monkeypatch, rng):
        ctx = ObjectiveContext(single_qubit_target(), 1, 1)
        paulis = [PauliString((0,), "X"), PauliString((1,), "Y")]
        ansatz = make_vqe_ansatz(1, 1, paulis, np.zeros(2), rng)

        def run(fun, x0):
            calls = []

            def counted(ansatz, x, ctx):
                calls.append(np.array(x))
                return fun(x)

            monkeypatch.setattr(adapt, "ansatz_value_and_gradient", counted)
            result = optimize_fixed_ansatz(ansatz, ctx, np.array(x0, float))
            assert result.evaluations == len(calls)
            return result

        return run

    def test_rosenbrock_reaches_minimum(self, minimize):
        result = minimize(rosenbrock, [-1.2, 1.0])
        assert result.converged
        assert np.abs(result.parameters - 1.0).max() < 1e-6
        assert np.abs(rosenbrock(result.parameters)[1]).max() <= 1e-8
        assert 0 < result.iterations < result.evaluations

    def test_convex_quadratic_reaches_solution(self, minimize):
        a = np.array([[4.0, 1.0], [1.0, 3.0]])
        b = np.array([1.0, 2.0])
        result = minimize(lambda x: (0.5 * x @ a @ x - b @ x, a @ x - b), [3.0, -5.0])
        assert result.converged
        assert np.allclose(result.parameters, np.linalg.solve(a, b), atol=1e-9)

    def test_iteration_cap_stops_unconverged(self, minimize, monkeypatch):
        monkeypatch.setattr(adapt, "MAX_OPTIMIZER_ITERATIONS", 3)
        start_value = rosenbrock(np.array([-1.2, 1.0]))[0]
        result = minimize(rosenbrock, [-1.2, 1.0])
        assert not result.converged
        assert result.iterations == 3
        assert result.objective < start_value
        assert result.objective == rosenbrock(result.parameters)[0]

    def test_nan_gradient_raises(self, minimize):
        with pytest.raises(NumericalFailure, match="non-finite gradient"):
            minimize(lambda x: (float(x @ x), np.array([np.nan, 0.0])), [1.0, 1.0])

    @pytest.mark.parametrize("first_trial", [1e-3, 0.3, 1.0, 40.0])
    def test_line_search_meets_strong_wolfe(self, first_trial):
        from gibbsprep.adapt import WOLFE_CURVATURE, WOLFE_DECREASE, _line_search

        x, p = np.array([-1.2, 1.0]), np.array([1.0, 0.0])
        f0, g0 = rosenbrock(x)
        alpha, f, g = _line_search(rosenbrock, x, f0, g0, p, first_trial)
        f_at, g_at = rosenbrock(x + alpha * p)
        assert f == f_at and np.array_equal(g, g_at)
        assert f <= f0 + WOLFE_DECREASE * alpha * (g0 @ p)
        assert abs(g @ p) <= WOLFE_CURVATURE * abs(g0 @ p)

    def test_line_search_keeps_a_decrease_when_it_never_brackets(self):
        """The slope of ``-x^2 - 1e-3 x`` steepens along the step: no trial brackets.

        Every doubled trial decreases ``f`` enough but fails the curvature
        test, so the trials run out; the last one is kept, not thrown away.
        """
        from gibbsprep.adapt import MAX_LINE_SEARCH_TRIALS, WOLFE_DECREASE, _line_search

        def fun(x):
            return float(-x @ x - 1e-3 * x.sum()), -2 * x - 1e-3

        x = np.zeros(1)
        f0, g0 = fun(x)
        p = -g0
        alpha, f, g = _line_search(fun, x, f0, g0, p, 1.0)
        assert alpha == 2.0 ** (MAX_LINE_SEARCH_TRIALS - 1)
        f_at, g_at = fun(x + alpha * p)
        assert f == f_at and np.array_equal(g, g_at)
        assert f <= f0 + WOLFE_DECREASE * alpha * (g0 @ p)

    def test_converged_start_takes_no_step(self, minimize):
        result = minimize(lambda x: (float(x @ x), 2 * x), [0.0, 0.0])
        assert (result.iterations, result.evaluations, result.converged) == (0, 1, True)


def record_scans(monkeypatch) -> list[np.ndarray]:
    """Every pool scan's gradients from now on, in scan order."""
    scans = []

    def spy(*args):
        gradients = original(*args)
        scans.append(gradients)
        return gradients

    original = adapt._pool_scan
    monkeypatch.setattr(adapt, "_pool_scan", spy)
    return scans


class TestAdaptVqeRun:
    def test_huge_threshold_returns_zero_layers(self):
        ctx = ObjectiveContext(gibbs_state(ising_hamiltonian(2), 1.0), 2, 2)
        settings = VqeSettings(epsilon=100.0)
        ansatz, trace = adapt_vqe_run(settings, ctx, ctx.target, seed=3)
        assert len(ansatz.generators) == 0
        assert trace.termination == "threshold"
        assert len(trace.records) == 1

    @pytest.mark.parametrize("epsilon", [0.0, -1e-3, float("nan"), float("inf")])
    def test_settings_refuse_epsilon_outside_positive_reals(self, epsilon):
        with pytest.raises(ValueError, match="epsilon"):
            VqeSettings(epsilon=epsilon)

    def test_small_ising_reaches_high_fidelity(self):
        ctx = ObjectiveContext(gibbs_state(ising_hamiltonian(2), 1.0), 2, 2)
        settings = VqeSettings(epsilon=1e-3)
        outcome = restart_postselect(
            lambda i: adapt_vqe_run(settings, ctx, ctx.target, seed=100 + i), 3
        )
        assert outcome.trace.final_fidelity >= 0.99

    def test_objective_monotone_and_selection_consistent(self, monkeypatch):
        ctx = ObjectiveContext(gibbs_state(xy_hamiltonian(2), 0.8), 2, 2)
        pool = register_pool(2, 2, False)
        settings = VqeSettings(epsilon=1e-3)
        scans = record_scans(monkeypatch)
        ansatz, trace = adapt_vqe_run(settings, ctx, ctx.target, seed=5)
        objectives = [r.objective for r in trace.records]
        assert all(b <= a + 1e-9 for a, b in zip(objectives, objectives[1:]))
        # One scan per growth step, plus the last one that met the threshold.
        assert len(scans) == len(trace.records)
        for record, gradients in zip(trace.records[1:], scans):
            magnitudes = np.abs(gradients)
            # Selection rule: the first word within TIE_TOLERANCE of the maximum.
            chosen = np.flatnonzero(magnitudes.max() - magnitudes < TIE_TOLERANCE)[0]
            assert abs(record.selection_gradient) >= magnitudes.max() - 1e-12
            assert record.generator == pool[chosen].label
            assert record.pool_gradient_norm == pytest.approx(
                float(np.linalg.norm(gradients))
            )

    def test_line_search_that_runs_out_does_not_stall(self):
        # A sweep cell's restart whose appended angle has negative curvature:
        # each line search ran out and was thrown away, so three steps made no
        # progress and the run ended stalled at fidelity 0.0927.
        from gibbsprep.harness import cell_seed

        target = gibbs_state(ising_hamiltonian(4), 1.0 / 3.0)
        settings = VqeSettings(epsilon=1e-3)
        seed = cell_seed(1234, "ising", 3, 2, 1)
        _, trace = adapt_vqe_run(settings, ObjectiveContext(target, 4, 2), target, seed)
        assert trace.termination == "threshold"
        assert all(r.optimizer_iterations > 0 for r in trace.records[1:])
        assert trace.final_fidelity > 0.4

    def test_single_pair_pool_completeness_smoke(self, monkeypatch):
        # exact preparation must be reachable for one data qubit at several
        # temperatures within 30 iterations
        monkeypatch.setattr(adapt, "MAX_VQE_ITERATIONS", 30)
        for beta_inv in (0.5, 1.0, 2.0):
            target = single_qubit_target(beta=1.0 / beta_inv)
            ctx = ObjectiveContext(target, 1, 1)
            settings = VqeSettings(epsilon=1e-7)
            outcome = restart_postselect(
                lambda i: adapt_vqe_run(settings, ctx, target, seed=200 + i), 3
            )
            assert outcome.trace.final_fidelity >= 1 - 1e-6

    def test_determinism(self):
        ctx = ObjectiveContext(gibbs_state(ising_hamiltonian(2), 0.6), 2, 1)
        settings = VqeSettings(epsilon=1e-3)
        _, t1 = adapt_vqe_run(settings, ctx, ctx.target, seed=11)
        _, t2 = adapt_vqe_run(settings, ctx, ctx.target, seed=11)
        assert without_wall_ms(t1.to_dict()) == without_wall_ms(t2.to_dict())

    def test_stalls_when_threshold_unreachable(self, monkeypatch):
        monkeypatch.setattr(adapt, "MAX_VQE_ITERATIONS", 60)
        ctx = ObjectiveContext(gibbs_state(ising_hamiltonian(2), 1.0), 2, 2)
        settings = VqeSettings(epsilon=1e-15)
        _, trace = adapt_vqe_run(settings, ctx, ctx.target, seed=7)
        assert trace.termination == "stalled"
        objectives = [r.objective for r in trace.records]
        small = [a - b < STALL_IMPROVEMENT for a, b in zip(objectives, objectives[1:])]
        # The run ends at the first STALL_LIMIT small improvements in a row.
        assert all(small[-STALL_LIMIT:]) and not all(small[-STALL_LIMIT - 1:-1])


def qaoa_settings(n, layer_budget=3):
    return QaoaSettings(hamiltonian=ising_hamiltonian(n), layer_budget=layer_budget)


def test_growth_runs_scan_the_register_pool(monkeypatch):
    # Every weight-1/2 word on 2+2 qubits; on 3 pairs, the 81 data-ancilla
    # words with the entangler last.
    scans = []
    real = adapt._pool_scan

    def spy(state, pool, ctx, groups):
        gradients = real(state, pool, ctx, groups)
        scans.append((pool, gradients.size))
        return gradients

    monkeypatch.setattr(adapt, "_pool_scan", spy)
    target = gibbs_state(ising_hamiltonian(2), 1.0)
    ctx = ObjectiveContext(target, 2, 2)
    _, trace = adapt_vqe_run(VqeSettings(epsilon=1e-3), ctx, target, seed=5)
    assert len(scans) == len(trace.records)
    assert all(pool is register_pool(2, 2, False) and size == 66 for pool, size in scans)
    assert trace.final_fidelity > 0.9999
    scans.clear()
    target = gibbs_state(ising_hamiltonian(3), 1.0)
    ctx = ObjectiveContext(target, 3, 3)
    _, trace = adapt_qaoa_run(qaoa_settings(3, 1), ctx, target, seed=5)
    ((pool, size),) = scans
    assert pool is register_pool(3, 3, True) and size == 82
    assert pool[-1].label == ENTANGLER_LABEL
    assert trace.final_fidelity > 0.9999


class TestAdaptQaoaRun:
    def test_flat_target_optimal_from_reference(self):
        n = 2
        target = gibbs_state(ising_hamiltonian(n), 0.0)
        ctx = ObjectiveContext(target, n, n)
        _, trace = adapt_qaoa_run(qaoa_settings(n, 2), ctx, target, seed=1)
        assert all(r.fidelity >= 1 - 1e-9 for r in trace.records)
        assert abs(trace.records[0].objective - trace.final_objective) < 1e-9

    def test_small_ising_reaches_high_fidelity(self):
        n = 2
        target = gibbs_state(ising_hamiltonian(n), 1.0)
        ctx = ObjectiveContext(target, n, n)
        outcome = restart_postselect(
            lambda i: adapt_qaoa_run(qaoa_settings(n, 3), ctx, target, seed=300 + i), 4
        )
        assert outcome.trace.final_fidelity >= 0.99

    def test_objective_monotone_across_layers(self):
        n = 2
        target = gibbs_state(ising_hamiltonian(n), 0.5)
        ctx = ObjectiveContext(target, n, n)
        _, trace = adapt_qaoa_run(qaoa_settings(n, 3), ctx, target, seed=2)
        objectives = [r.objective for r in trace.records]
        assert all(b <= a + 1e-9 for a, b in zip(objectives, objectives[1:]))

    def test_selection_recorded_consistently(self, monkeypatch):
        n = 2
        target = gibbs_state(ising_hamiltonian(n), 0.7)
        ctx = ObjectiveContext(target, n, n)
        scans = record_scans(monkeypatch)
        _, trace = adapt_qaoa_run(qaoa_settings(n, 2), ctx, target, seed=3)
        assert len(scans) == len(trace.records) - 1 == 2
        for record, gradients in zip(trace.records[1:], scans):
            magnitudes = np.abs(gradients)
            assert abs(record.selection_gradient) >= magnitudes.max() - 1e-12

    def test_determinism(self):
        n = 2
        target = gibbs_state(ising_hamiltonian(n), 1.0)
        ctx = ObjectiveContext(target, n, n)
        _, t1 = adapt_qaoa_run(qaoa_settings(n, 2), ctx, target, seed=8)
        _, t2 = adapt_qaoa_run(qaoa_settings(n, 2), ctx, target, seed=8)
        assert without_wall_ms(t1.to_dict()) == without_wall_ms(t2.to_dict())

    def test_rejects_an_objective_on_another_register(self):
        target = gibbs_state(ising_hamiltonian(2), 1.0)
        ctx = ObjectiveContext(target, 2, 3)
        with pytest.raises(ValueError, match="n_data == n_ancilla == 2"):
            adapt_qaoa_run(qaoa_settings(2, 1), ctx, target, seed=1)

    @pytest.mark.parametrize("flavor", ["qaoa", "baseline"])
    def test_gamma0_is_the_seed_draw(self, flavor):
        n = 2
        target = gibbs_state(ising_hamiltonian(n), 1.0)
        ctx = ObjectiveContext(target, n, n)
        for seed in (1, 8, 2**63 + 5):
            _, trace = GROWTH_RUNS[flavor](qaoa_settings(n, 1), ctx, target, seed)
            assert trace.gamma0 == np.random.default_rng(seed).uniform(0.0, np.pi / 2)


class TestBaselineRun:
    def test_zero_layers_match_flat_target(self):
        n = 2
        target = gibbs_state(ising_hamiltonian(n), 0.0)
        ctx = ObjectiveContext(target, n, n)
        _, trace = baseline_qaoa_run(qaoa_settings(n, 0), ctx, target, seed=1)
        assert len(trace.records) == 1
        assert trace.records[0].fidelity >= 1 - 1e-9
        assert trace.records[0].cnot_count == n

    def test_fidelity_monotone_in_layers(self):
        n = 4
        target = gibbs_state(ising_hamiltonian(n), 2.0)  # beta_inv = 0.5
        ctx = ObjectiveContext(target, n, n)
        _, trace = baseline_qaoa_run(qaoa_settings(n, 2), ctx, target, seed=5)
        fids = [r.fidelity for r in trace.records]
        assert all(b >= a - 1e-9 for a, b in zip(fids, fids[1:]))

    def test_six_site_ising_converges_by_third_layer(self):
        n = 6
        target = gibbs_state(ising_hamiltonian(n), 1.0)
        ctx = ObjectiveContext(target, n, n)
        outcome = restart_postselect(
            lambda i: baseline_qaoa_run(qaoa_settings(n, 3), ctx, target, seed=700 + i),
            4,
        )
        reached = [r for r in outcome.trace.records if r.fidelity >= 0.99]
        assert reached and reached[0].index <= 3


@pytest.mark.parametrize("flavor", ["qaoa", "vqe"])
def test_records_carry_optimizer_work(monkeypatch, flavor):
    results = []
    real = adapt.optimize_fixed_ansatz

    def recorded(*args):
        results.append(real(*args))
        return results[-1]

    monkeypatch.setattr(adapt, "optimize_fixed_ansatz", recorded)
    n = 2
    target = gibbs_state(ising_hamiltonian(n), 1.0)
    ctx = ObjectiveContext(target, n, n)
    if flavor == "qaoa":
        _, trace = adapt_qaoa_run(qaoa_settings(n, 2), ctx, target, seed=8)
    else:
        settings = VqeSettings(epsilon=1e-3)
        _, trace = adapt_vqe_run(settings, ctx, target, seed=8)
    assert len(results) >= 2
    work = [
        (r.optimizer_iterations, r.optimizer_evaluations, r.optimizer_converged)
        for r in trace.records
    ]
    assert work == [(0, 0, True)] + [
        (r.iterations, r.evaluations, r.converged) for r in results
    ]
    assert all(r.evaluations > r.iterations for r in results)
    record = trace.to_dict()["records"][1]
    assert list(record)[-4:] == [
        "wall_ms",
        "optimizer_iterations",
        "optimizer_evaluations",
        "optimizer_converged",
    ]
    stripped = without_wall_ms(trace.to_dict())["records"][1]
    assert set(record) - set(stripped) == {"wall_ms"}


# One fixed-seed growth run per flavor: labels, termination and CNOT counts
# exactly, objective and fidelity to 1e-9 (numpy versions may round apart).
LAYERED_RECORDS = [
    (2, -0.125, 0.6329011144170399),
    (12, -0.24116864689335432, 0.9999999999999969),
    (22, -0.24116864689335432, 0.9999999999999969),
]
PINNED_RUNS = {
    "vqe": (
        ["Y0Z1", "Z0Y2", "Y1Z2", "Y1X2", "Y0Z1", "Z0Y1"],
        "threshold",
        [
            (2, 0.27451411879096277, 0.21665458695389025),
            (4, -0.0785646111211511, 0.7816128308799385),
            (6, -0.08383824203520873, 0.7902397136127999),
            (8, -0.08461501074479583, 0.7913438662549387),
            (10, -0.11945679086567279, 0.7166399573903007),
            (12, -0.24053418638294455, 0.9810681643981575),
            (14, -0.24100689501895425, 0.9820137900379082),
        ],
    ),
    "qaoa": ([ENTANGLER_LABEL] * 2, "max_iters", LAYERED_RECORDS),
    "baseline": ([ENTANGLER_LABEL] * 2, "max_iters", LAYERED_RECORDS),
}


@pytest.mark.parametrize("flavor", sorted(PINNED_RUNS))
def test_growth_runs_match_pinned_values(flavor):
    target = gibbs_state(ising_hamiltonian(2), 1.0)
    if flavor == "vqe":
        settings = VqeSettings(epsilon=1e-3)
        ctx = ObjectiveContext(target, 2, 1)
        _, trace = adapt_vqe_run(settings, ctx, target, seed=3)
    else:
        ctx = ObjectiveContext(target, 2, 2)
        _, trace = GROWTH_RUNS[flavor](qaoa_settings(2, 2), ctx, target, seed=8)
    labels, termination, records = PINNED_RUNS[flavor]
    assert trace.generator_labels == labels
    assert trace.termination == termination
    assert [r.index for r in trace.records] == list(range(len(records)))
    assert [r.cnot_count for r in trace.records] == [c for c, _, _ in records]
    for record, (_, obj, fid) in zip(trace.records, records):
        assert abs(record.objective - obj) < 1e-9
        assert abs(record.fidelity - fid) < 1e-9


class TestRestartPostselect:
    def _dummy(self, final_objective, cnots):
        record = IterationRecord(0, None, None, None, final_objective, 0.5, cnots, 0.0)
        trace = AdaptTrace(
            flavor="vqe",
            seed=0,
            gamma0=None,
            records=[record],
            termination="threshold",
            generator_labels=[],
            final_parameters=[],
            final_objective=final_objective,
            final_fidelity=0.5,
            final_pool_gradient_norm=0.0,
            reference_spec={},
            metadata={},
        )
        return ("ansatz", trace)

    def test_identity_for_single_restart(self):
        outcome = restart_postselect(lambda i: self._dummy(-0.3, 4), 1)
        assert outcome.restart_index == 0
        assert outcome.trace.final_objective == -0.3

    def test_picks_lowest_objective(self):
        objectives = [-0.3, -0.5, -0.4]
        outcome = restart_postselect(
            lambda i: self._dummy(objectives[i], 10 + i), 3
        )
        assert outcome.restart_index == 1
        assert outcome.trace.final_objective == -0.5
        assert outcome.trace is outcome.traces[outcome.restart_index]
        assert len(outcome.traces) == 3

    def test_tie_broken_by_cnots_then_order(self):
        cnots = [7, 5, 5]
        outcome = restart_postselect(lambda i: self._dummy(-0.5, cnots[i]), 3)
        assert outcome.restart_index == 1

    def test_all_failures_raise(self):
        def fail(i):
            raise NumericalFailure("boom")

        with pytest.raises(NumericalFailure):
            restart_postselect(fail, 3)

    def test_partial_failures_tolerated(self):
        def sometimes(i):
            if i == 0:
                raise NumericalFailure("boom")
            return self._dummy(-0.1 * i, i)

        outcome = restart_postselect(sometimes, 3)
        assert outcome.restart_index == 2
        assert outcome.failures == [(0, "boom")]
        # Each trace keeps its own restart index; the failed one has none.
        assert {i: t.final_objective for i, t in outcome.traces.items()} == {
            1: -0.1,
            2: -0.2,
        }

    def test_protocol_default_restart_counts(self):
        assert DEFAULT_VQE_RESTARTS == 5
        assert DEFAULT_QAOA_RESTARTS == 8


class _ZeroDraws:
    """An rng stand-in whose every angle is 0: a pure, unentangled reference."""

    def uniform(self, low, high, size):
        return np.zeros(size)


def _ising_context(n_data, n_ancilla):
    target = gibbs_state(ising_hamiltonian(n_data), 1.0)
    return ObjectiveContext(target, n_data, n_ancilla)


class TestRefusals:
    """Each refusal in ``adapt``, reached by one case."""

    @pytest.mark.parametrize(
        "call, error, match",
        [
            (
                lambda: PoolOperator.from_entangler(entangling_hamiltonian(2), 3),
                ValueError,
                "entangler must act on 6 qubits",
            ),
            (
                lambda: reference_from_angles(2, 1, np.zeros(2)),
                ValueError,
                "one angle per qubit",
            ),
            (
                lambda: vqe_reference_state(2, 0, np.random.default_rng(0)),
                ValueError,
                "at least one ancilla",
            ),
            (
                lambda: vqe_reference_state(2, 1, _ZeroDraws()),
                NumericalFailure,
                "could not draw a usable reference",
            ),
            (
                lambda: Ansatz("adiabatic", 1, 1, basis_state(1, 1, 0), {}),
                ValueError,
                "unknown flavor 'adiabatic'",
            ),
            (
                lambda: Ansatz("qaoa", 2, 2, singlet_reference_state(2), {}),
                ValueError,
                "qaoa ansatz needs a cost operator",
            ),
            (
                lambda: Ansatz.vqe(1, 1, [0.0, 0.0]).prepare(np.zeros(1)),
                ValueError,
                "expected 0 parameters",
            ),
            (
                lambda: optimize_fixed_ansatz(
                    Ansatz.vqe(2, 1, np.zeros(3)), _ising_context(2, 1), np.zeros(1)
                ),
                ValueError,
                "init has",
            ),
            (
                lambda: QaoaSettings(ising_hamiltonian(2), -1),
                ValueError,
                "layer budget",
            ),
            (
                lambda: QaoaSettings(ising_hamiltonian(2), MAX_QAOA_LAYERS + 1),
                ValueError,
                "layer budget",
            ),
            (
                lambda: restart_postselect(lambda index: None, 0),
                ValueError,
                "at least one restart",
            ),
        ],
        ids=[
            "entangler-on-another-register",
            "reference-angle-count",
            "vqe-reference-without-ancilla",
            "vqe-reference-without-usable-draw",
            "ansatz-unknown-flavor",
            "layered-ansatz-without-cost",
            "prepare-parameter-shape",
            "optimizer-init-shape",
            "layer-budget-below-range",
            "layer-budget-above-range",
            "postselect-zero-restarts",
        ],
    )
    def test_refuses(self, call, error, match):
        with pytest.raises(error, match=match):
            call()

    def test_optimizer_refuses_a_non_finite_objective(self, monkeypatch):
        def nan_value(ansatz, params, ctx):
            return float("nan"), np.zeros(params.size)

        monkeypatch.setattr(adapt, "ansatz_value_and_gradient", nan_value)
        ansatz = Ansatz.vqe(2, 1, np.zeros(3))
        with pytest.raises(NumericalFailure, match="non-finite objective"):
            optimize_fixed_ansatz(ansatz, _ising_context(2, 1), np.zeros(0))


class TestCnotCount:
    def test_vqe_accounting(self, rng):
        paulis = [PauliString((i, i + 1), "XY") for i in range(10)]
        paulis += [PauliString((i,), "Z") for i in range(3)]
        ansatz = make_vqe_ansatz(4, 4, paulis, np.zeros(13), rng)
        assert cnot_count(ansatz) == 16 + 20

    def test_vqe_zero_layers(self, rng):
        ansatz = make_vqe_ansatz(3, 2, [], [], rng)
        assert cnot_count(ansatz) == 6

    def test_layered_accounting_six_sites(self):
        n = 6
        entangler = register_pool(n, n, True)[-1]
        ansatz = Ansatz.layered("baseline", ising_hamiltonian(n), [entangler] * 3)
        assert cnot_count(ansatz) == 6 + 3 * (12 + 18)

    def test_layered_pauli_mixer_costs_two(self):
        n = 2
        pool = register_pool(n, n, True)
        ansatz = Ansatz.layered("qaoa", ising_hamiltonian(n), [pool[0]])
        assert cnot_count(ansatz) == 2 + (2 * 2 + 2)
