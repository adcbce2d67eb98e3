"""Operator pools, reference states, adaptive ansatz growth, gate accounting.

Two ansatz families are grown here:

* ``vqe`` flavor: the state is a product of Pauli rotations
  ``exp(i theta_n P_n) ... exp(i theta_1 P_1) |ref>`` grown one generator at a
  time from a pool of all weight-1/2 Pauli words, selected by largest
  objective gradient, until the pool-gradient norm drops below a threshold.
* ``qaoa``/``baseline`` flavor: layered
  ``exp(i alpha_k M_k) exp(i gamma_k (H_A + H_D)/2)`` blocks on top of the
  singlet reference, with the mixer ``M_k`` either chosen adaptively from a
  pool of data-ancilla Pauli words plus the pair entangler (``qaoa``) or
  fixed to the pair entangler (``baseline``). Layer k = 1 is applied first.

Both families run through one gate program (:attr:`Ansatz.gates`):
``params[k]`` drives gate ``k``, and a layered ansatz's gates are
``[cost, M_1, cost, M_2, ...]``. A gate ``exp(i theta G)`` is a Pauli word or
a diagonal phase ``exp(i theta E)`` in a frame ``F``, with ``E =
values[index]``: the pair entangler in the pair Bell basis
(:attr:`PoolOperator.spectrum`), the cost in the eigenbasis ``W (x) W``
of ``H`` on the data register, which is the identity for a diagonal ``H``
(:class:`CostGate`). Their growth loops share one record and trace path
(:class:`_Growth`).

After every growth step all parameters are re-optimized by BFGS (Nocedal &
Wright, *Numerical Optimization*, 2nd ed., Alg. 6.1) with a strong-Wolfe
line search (Algs. 3.5/3.6), fed by the exact value and gradient of one
taped adjoint pass (:func:`ansatz_value_and_gradient`). The pool scan reads
every candidate gradient from one ``2^w x 2^w`` marginal of ``|psi><lam|``
per support of weight ``w``, with no per-word gather table (qubit-ADAPT
pools, arXiv:1911.10205; :func:`_pool_scan`).

Within one growth loop everything is deterministic given the seed; restarts
and postselection provide the only randomness at the protocol level.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .models import (
    GibbsTarget,
    HermitianOperator,
    entangling_hamiltonian,
    joint_problem_hamiltonian,
)
from .objective import ObjectiveContext, objective, objective_raw
from .simcore import (
    PauliString,
    StateVector,
    bell_diagonal,
    fidelity,
    from_bell_raw,
    partial_trace_ancilla,
    partial_trace_ancilla_raw,
    pauli_action_tables,
    pauli_rotate_raw,
    to_bell_raw,
)

GRADIENT_TOLERANCE = 1e-8
MAX_OPTIMIZER_ITERATIONS = 1000
WOLFE_DECREASE = 1e-4  # c1: sufficient-decrease constant
WOLFE_CURVATURE = 0.9  # c2: strong-curvature constant
MAX_LINE_SEARCH_TRIALS = 10
TIE_TOLERANCE = 1e-12
STALL_IMPROVEMENT = 1e-12
STALL_LIMIT = 3
MAX_VQE_ITERATIONS = 200
MAX_QAOA_LAYERS = 6
DEFAULT_VQE_RESTARTS = 5
DEFAULT_QAOA_RESTARTS = 8

ENTANGLER_LABEL = "ENTANGLER"

_PAULI_MATRICES = {
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}

CNOT_CONVENTION = {
    "vqe_reference": "n_data * n_ancilla",
    "vqe_two_qubit_generator": 2,
    "vqe_single_qubit_generator": 0,
    "layered_reference": "n_data (one CNOT per singlet pair)",
    "layered_cost": (
        "2 per two-qubit term of the data-register Hamiltonian; for one whose "
        "terms do not commute, the count of one product of per-term rotations"
    ),
    "layered_pauli_mixer": 2,
    "layered_entangler_mixer": "3 per data/ancilla pair",
}


class NumericalFailure(RuntimeError):
    """Raised when a run hits non-finite values or loses state validity."""


@dataclass(frozen=True)
class PoolOperator:
    """One selectable generator: a Pauli word or the full pair entangler.

    As a gate, the entangler is a frame phase: :attr:`spectrum` in the frame
    of :meth:`to_frame` and :meth:`from_frame`, as for :class:`CostGate`.
    """

    kind: str  # "pauli" | "sum_entangler"
    pauli: PauliString | None
    operator: HermitianOperator | None
    cnot_cost: int
    label: str

    @classmethod
    def from_pauli(cls, p: PauliString) -> "PoolOperator":
        return cls(
            kind="pauli",
            pauli=p,
            operator=None,
            cnot_cost=2 if p.weight == 2 else 0,
            label=p.label,
        )

    @classmethod
    def from_entangler(
        cls, operator: HermitianOperator, n_data: int
    ) -> "PoolOperator":
        """A sum of the pair terms :func:`~gibbsprep.simcore.bell_diagonal` takes."""
        if operator.n_qubits != 2 * n_data:
            raise ValueError(f"entangler must act on {2 * n_data} qubits")
        entangler = cls(
            kind="sum_entangler",
            pauli=None,
            operator=operator,
            cnot_cost=3 * n_data,
            label=ENTANGLER_LABEL,
        )
        entangler.spectrum  # raises ValueError for any other term
        return entangler

    @property
    def terms(self) -> tuple[tuple[float, PauliString], ...]:
        """The generator as a sum ``sum_j c_j P_j`` of commuting Pauli words."""
        return ((1.0, self.pauli),) if self.kind == "pauli" else self.operator.terms

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The entangler's pair Bell basis diagonal, as :func:`_spectrum` gives it."""
        return _spectrum(bell_diagonal(self.operator.n_qubits // 2, self.operator.terms))

    def to_frame(self, amps: np.ndarray) -> np.ndarray:
        return to_bell_raw(amps, self.operator.n_qubits // 2)

    def from_frame(self, amps: np.ndarray) -> np.ndarray:
        return from_bell_raw(amps, self.operator.n_qubits // 2)


def _spectrum(energies: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(energies, values, index)`` with ``values[index] == energies``, read-only.

    ``values`` are the distinct energies, so a frame phase ``exp(i a energies)``
    takes one exponential per distinct value.
    """
    values, index = np.unique(energies, return_inverse=True)
    for array in (energies, values, index):
        array.setflags(write=False)
    return energies, values, index


@dataclass(frozen=True)
class CostGate:
    """The layered cost ``exp(i gamma (H (x) 1 + 1 (x) H)/2)`` as one frame phase.

    With ``H = W diag(w) W^dagger`` on the data register, the generator is
    diagonal in the frame ``W (x) W`` with energies ``(w_a + w_d)/2`` over the
    ``[ancilla, data]`` amplitude block. A diagonal ``H`` needs no frame, and
    so no ``eigh``: its diagonal is ``w``.
    """

    hamiltonian: HermitianOperator  # H on the data register
    kind = "cost"  # a class attribute, not a field

    @property
    def terms(self) -> tuple[tuple[float, PauliString], ...]:
        """The generator ``(H (x) 1 + 1 (x) H)/2`` as a sum of commuting Pauli words.

        The shift-rule oracle's per-word unrolling is exact only then, so a
        ``H`` whose terms do not commute raises ``ValueError`` (the mirrored
        halves share no qubit, so the sum commutes iff ``H`` does).
        """
        if not self.hamiltonian.terms_commute:
            raise ValueError("the shift rule needs a cost whose terms commute")
        mirrored = joint_problem_hamiltonian(self.hamiltonian)
        return tuple((0.5 * c, p) for c, p in mirrored.terms)

    @property
    def cnot_cost(self) -> int:
        """Adopted convention: 2 CNOTs per weight-2 term of ``H``.

        For a ``H`` whose terms do not commute this counts one product of
        per-term rotations, the convention of the fig1 overlay, not an exact
        compilation of the gate.
        """
        return 2 * sum(1 for _, p in self.hamiltonian.terms if p.weight == 2)

    @cached_property
    def _basis(self) -> tuple[np.ndarray, np.ndarray] | None:
        """``(W, W^*)``, or None when ``H`` is diagonal."""
        if self.hamiltonian.diagonal is not None:
            return None
        w = self.hamiltonian.eigensystem[1]
        w_conj = w.conj()
        w_conj.setflags(write=False)  # the gate is shared per H
        return w, w_conj

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(energies, values, index)`` in the frame, as :attr:`PoolOperator.spectrum`."""
        h = self.hamiltonian
        w = h.eigensystem[0] if self._basis is not None else h.diagonal
        return _spectrum(0.5 * (w[:, None] + w).ravel())

    def to_frame(self, amps: np.ndarray) -> np.ndarray:
        """``(W^dagger (x) W^dagger) amps``: ``W^dagger Psi W^*`` on the block ``Psi``."""
        if self._basis is None:
            return amps
        _, w_conj = self._basis
        block = amps.reshape(w_conj.shape[0], -1)
        return (w_conj.T @ block @ w_conj).reshape(-1)

    def from_frame(self, amps: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`to_frame`: ``W Psi W^T``."""
        if self._basis is None:
            return amps
        w, _ = self._basis
        return (w @ amps.reshape(w.shape[0], -1) @ w.T).reshape(-1)


@lru_cache(maxsize=None)
def _cost_gate(cost: HermitianOperator, n_data: int, n_ancilla: int) -> CostGate:
    """The :class:`CostGate` of ``cost = H (x) 1 + 1 (x) H``, built once per cost.

    ``H`` is the cost's data-register terms; ``ValueError`` unless the cost
    is those terms, then the same on ``n_ancilla == n_data`` ancillas.
    """
    n = n_data
    h = HermitianOperator(n, tuple(t for t in cost.terms if t[1].support[-1] < n))
    if n_ancilla != n or cost != joint_problem_hamiltonian(h):
        raise ValueError(
            "cost operator must be the mirrored H (x) 1 + 1 (x) H: its "
            "data-register terms, then the same on n_ancilla == n_data ancillas"
        )
    return CostGate(h)


def build_vqe_pool(n_total_qubits: int) -> tuple[PoolOperator, ...]:
    """All weight-1 and weight-2 Pauli words on the joint register, sorted.

    Size is ``3n + 9 n(n-1)/2``; the lexicographic (support, letters) order
    makes argmax tie-breaking deterministic.
    """
    if n_total_qubits < 2:
        raise ValueError("pool needs at least 2 qubits")
    words = [
        PauliString((q,), c) for q in range(n_total_qubits) for c in "XYZ"
    ]
    words += [
        PauliString((a, b), c1 + c2)
        for a in range(n_total_qubits)
        for b in range(a + 1, n_total_qubits)
        for c1 in "XYZ"
        for c2 in "XYZ"
    ]
    return tuple(PoolOperator.from_pauli(p) for p in sorted(words))


def build_qaoa_pool(
    n_data: int, entangler: HermitianOperator
) -> tuple[PoolOperator, ...]:
    """Weight-2 words coupling one data with one ancilla qubit, plus the entangler.

    Size is ``9 n_data^2 + 1``; Pauli words come first in lexicographic
    order and the entangler is appended last.
    """
    words = [
        PauliString((d, n_data + a), c1 + c2)
        for d in range(n_data)
        for a in range(n_data)
        for c1 in "XYZ"
        for c2 in "XYZ"
    ]
    pool = [PoolOperator.from_pauli(p) for p in sorted(words)]
    pool.append(PoolOperator.from_entangler(entangler, n_data))
    return tuple(pool)


@lru_cache(maxsize=None)
def register_pool(
    n_data: int, n_ancilla: int, layered: bool
) -> tuple[PoolOperator, ...]:
    """The pool a growth run on the register scans, built once per process.

    ``vqe`` scans every weight-1/2 word on the joint register; ``qaoa`` the
    data-ancilla words and then the pair entangler, which is every layer of
    ``baseline``. Replay maps a trace's labels back to generators through it.
    """
    if layered:
        return build_qaoa_pool(n_data, entangling_hamiltonian(n_data))
    return build_vqe_pool(n_data + n_ancilla)


def reference_from_angles(
    n_data: int, n_ancilla: int, angles: np.ndarray
) -> StateVector:
    """One y-rotation per qubit, then a CNOT from each ancilla to each data qubit.

    ``angles[q]`` drives ``exp(-i angles[q] Y_q)``, which takes ``|0>`` to
    ``cos(angles[q])|0> + sin(angles[q])|1>``: the rotated register is one
    product state, built qubit by qubit with qubit q as bit q. The CNOTs
    (ancilla control, data target) all commute, and together they flip every
    data bit iff the ancilla bits have odd parity: one gather.
    """
    angles = np.asarray(angles, dtype=np.float64)
    if angles.shape != (n_data + n_ancilla,):
        raise ValueError("need one angle per qubit")
    amps = np.ones(1)
    for alpha in angles:
        amps = np.kron([np.cos(alpha), np.sin(alpha)], amps)
    index = np.arange(amps.size)
    odd = np.bitwise_count((index >> n_data).astype(np.uint64)) & 1
    flip = np.where(odd, (1 << n_data) - 1, 0)
    return StateVector(n_data, n_ancilla, amps[index ^ flip])


def vqe_reference_state(
    n_data: int, n_ancilla: int, rng: np.random.Generator
) -> tuple[StateVector, np.ndarray]:
    """Seeded partially-entangled reference; returns (state, drawn angles).

    Angles are uniform on [0, 2*pi). Draws whose reduced state is within
    1e-6 of being pure or maximally mixed are rejected and redrawn: at those
    extremes the pool gradients degenerate and the growth loop stalls before
    reaching a thermal state.
    """
    if n_ancilla < 1:
        raise ValueError("need at least one ancilla qubit")
    lo = 2.0 ** (-n_data) + 1e-6
    hi = 1.0 - 1e-6
    for _ in range(100):
        angles = rng.uniform(0.0, 2.0 * np.pi, size=n_data + n_ancilla)
        state = reference_from_angles(n_data, n_ancilla, angles)
        rho = partial_trace_ancilla(state).entries
        p = float(np.vdot(rho, rho).real)
        if lo < p < hi:
            return state, angles
    raise NumericalFailure("could not draw a usable reference state")


def singlet_reference_state(n_data: int) -> StateVector:
    """Product of singlets ``(|0_D 1_A> - |1_D 0_A>)/sqrt(2)`` across all pairs.

    This is the unique ground state of the pair entangler and reduces to the
    maximally mixed data state.
    """
    dim_data = 1 << n_data
    amps = np.zeros(dim_data * dim_data, dtype=np.complex128)
    indices = np.arange(dim_data)
    signs = np.where(np.bitwise_count(indices.astype(np.uint64)) & 1, -1.0, 1.0)
    complement = (dim_data - 1) ^ indices
    amps[indices + dim_data * complement] = signs / np.sqrt(dim_data)
    return StateVector(n_data, n_data, amps)


@dataclass
class Ansatz:
    """A reference state plus an ordered list of parameterized gates.

    Parameter ``k`` drives gate ``k`` of :attr:`gates`, which are applied
    after the reference in order. A ``vqe`` ansatz's gates are its
    generators. ``qaoa`` and ``baseline`` ansatzes put one cost gate
    (:attr:`cost_gate`) before each generator, so their parameters are
    ``[gamma_1, alpha_1, ..., gamma_n, alpha_n]``.

    Each family's conventions are built by one constructor: :meth:`vqe` (the
    seeded product reference) and :meth:`layered` (the singlet reference and
    the cost ``H (x) 1 + 1 (x) H``, with ``n_ancilla == n_data``, as
    :func:`~gibbsprep.models.joint_problem_hamiltonian` mirrors ``H``). ``H``
    may be any Hamiltonian: the cost gate is a phase in a frame built from
    ``H`` on the data register alone (:class:`CostGate`). Only the shift-rule
    oracle needs ``H``'s terms to commute (:attr:`CostGate.terms`).
    """

    flavor: str
    n_data: int
    n_ancilla: int
    reference: StateVector
    reference_spec: dict
    generators: list[PoolOperator] = field(default_factory=list)
    parameters: np.ndarray = field(default_factory=lambda: np.zeros(0))
    cost_operator: HermitianOperator | None = None

    def __post_init__(self):
        if self.flavor not in GROWTH_RUNS:
            raise ValueError(f"unknown flavor {self.flavor!r}")
        ref = self.reference
        if (ref.n_data, ref.n_ancilla) != (self.n_data, self.n_ancilla):
            raise ValueError(
                f"reference has {ref.n_data}+{ref.n_ancilla} qubits, "
                f"the ansatz {self.n_data}+{self.n_ancilla}"
            )
        if self.flavor in ("qaoa", "baseline"):
            if self.cost_operator is None:
                raise ValueError(f"{self.flavor} ansatz needs a cost operator")
            self.cost_gate  # raises unless the cost is mirrored
        self.parameters = np.asarray(self.parameters, dtype=np.float64)

    @classmethod
    def vqe(
        cls, n_data: int, n_ancilla: int, angles, generators=(), parameters=()
    ) -> "Ansatz":
        """A ``vqe`` ansatz on the :func:`reference_from_angles` state of ``angles``."""
        return cls(
            flavor="vqe",
            n_data=n_data,
            n_ancilla=n_ancilla,
            reference=reference_from_angles(n_data, n_ancilla, angles),
            reference_spec={"kind": "random_y", "angles": [float(a) for a in angles]},
            generators=list(generators),
            parameters=parameters,
        )

    @classmethod
    def layered(
        cls, flavor: str, hamiltonian: HermitianOperator, generators=(), parameters=()
    ) -> "Ansatz":
        """A ``qaoa``/``baseline`` ansatz for the data-register ``hamiltonian``."""
        n = hamiltonian.n_qubits
        return cls(
            flavor=flavor,
            n_data=n,
            n_ancilla=n,
            reference=singlet_reference_state(n),
            reference_spec={"kind": "singlet"},
            generators=list(generators),
            parameters=parameters,
            cost_operator=joint_problem_hamiltonian(hamiltonian),
        )

    @cached_property
    def cost_gate(self) -> CostGate:
        """The layered cost as one :class:`CostGate`, shared per cost operator."""
        return _cost_gate(self.cost_operator, self.n_data, self.n_ancilla)

    @property
    def gates(self) -> list[PoolOperator | CostGate]:
        """The gate program: ``params[k]`` drives ``gates[k]``."""
        if self.flavor == "vqe":
            return self.generators
        return [gate for op in self.generators for gate in (self.cost_gate, op)]

    @property
    def parameter_count(self) -> int:
        return len(self.gates)

    def prepare(self, params: np.ndarray | None = None) -> StateVector:
        """Build the full state for the given (or stored) parameters."""
        params = self.parameters if params is None else np.asarray(params, float)
        if params.shape != (self.parameter_count,):
            raise ValueError(
                f"expected {self.parameter_count} parameters, got {params.shape}"
            )
        return self.reference.with_amplitudes(self._build_raw(params))

    def _build_raw(self, params: np.ndarray, tape: list | None = None) -> np.ndarray:
        """Final amplitudes at ``params``; the one forward pass.

        Applies every gate with :func:`_apply_gate`. With a ``tape``, gate
        ``k`` appends ``(moved, aux)``: ``P psi_in`` with the word's gather
        tables, or the frame output ``phase * F psi_in`` with the phase.
        """
        n_qubits = self.n_data + self.n_ancilla
        amps = self.reference.amplitudes
        # Angles as Python floats: per gate they cost less than numpy scalars.
        for gate, theta in zip(self.gates, params.tolist()):
            amps, moved, aux = _apply_gate(gate, theta, amps, n_qubits)
            if tape is not None:
                tape.append((moved, aux))
        return amps


def _apply_gate(
    gate: PoolOperator | CostGate, theta: float, amps: np.ndarray, n_qubits: int
) -> tuple[np.ndarray, np.ndarray, tuple | np.ndarray]:
    """``exp(i theta G) amps`` for one gate, as ``(out, moved, aux)``.

    A Pauli word gives ``cos(theta) amps + i sin(theta) moved`` with
    ``moved = P amps = phase * amps[source]`` and ``aux`` the word's gather
    tables ``(source, phase)``. A frame phase gives ``F^dagger moved`` with
    ``moved = phase * F amps`` and ``aux`` the ``phase = exp(i theta
    values)[index]``.
    """
    if gate.kind == "pauli":
        word = gate.pauli
        tables = pauli_action_tables(n_qubits, word.support, word.letters)
        source, phase = tables
        moved = phase * amps[source]
        return np.cos(theta) * amps + (1j * np.sin(theta)) * moved, moved, tables
    _, values, index = gate.spectrum
    phase = np.exp(1j * theta * values)[index]
    moved = phase * gate.to_frame(amps)
    return gate.from_frame(moved), moved, phase


def _value_and_costate(
    amps: np.ndarray, ctx: ObjectiveContext
) -> tuple[float, np.ndarray]:
    """C at ``amps`` and the costate ``lam = ((rho - T) x 1_A) psi``.

    ``dC = 2 Re<lam|d psi>``, so a gate ``exp(i theta G)`` whose output is
    ``psi`` contributes ``dC/dtheta = -2 Im<lam|G psi>``.
    """
    rho = partial_trace_ancilla_raw(amps, ctx.n_data, ctx.n_ancilla)
    w = rho - ctx.target.matrix
    block = amps.reshape(1 << ctx.n_ancilla, 1 << ctx.n_data)
    return objective_raw(rho, ctx), (block @ w.T).reshape(-1)


def ansatz_objective(ansatz: Ansatz, params: np.ndarray, ctx: ObjectiveContext) -> float:
    rho = partial_trace_ancilla_raw(
        ansatz._build_raw(np.asarray(params, float)), ansatz.n_data, ansatz.n_ancilla
    )
    return objective_raw(rho, ctx)


def ansatz_value_and_gradient(
    ansatz: Ansatz, params: np.ndarray, ctx: ObjectiveContext
) -> tuple[float, np.ndarray]:
    """Objective and its exact gradient at ``params`` by one reverse pass.

    Adjoint differentiation (Jones & Gacon, arXiv:2009.02823): the forward
    build (:meth:`Ansatz._build_raw`) keeps a tape of ``(moved, aux)`` per
    gate, and only the costate ``lam = ((rho - T) x 1_A) psi`` walks back
    through the gates; ``psi`` is read from the tape, never un-applied. Per
    gate ``k``, from the last:

    * a Pauli word ``exp(i theta P)``: ``lam`` is un-rotated to the gate
      input, and ``grad[k] = -2 Im<lam|P psi_in>`` with ``P psi_in = moved``;
    * a frame phase ``F^dagger diag(phase) F``:
      ``grad[k] = -2 Im vdot(F lam, E * moved)`` with ``E`` the frame
      diagonal and ``moved`` the taped frame output, then
      ``lam <- F^dagger (conj(phase) * F lam)``.

    No other exponential runs. The tests and ``gradcheck`` check the result
    against :func:`~gibbsprep.objective.shift_rule_gradient`, which unrolls
    every gate into single-word rotations.
    """
    params = np.asarray(params, dtype=np.float64)
    tape: list = []
    psi = ansatz._build_raw(params, tape)
    value, lam = _value_and_costate(psi, ctx)
    gates, thetas = ansatz.gates, params.tolist()
    grad = np.zeros(len(gates))
    for k in reversed(range(len(gates))):
        gate, theta = gates[k], thetas[k]
        moved, aux = tape[k]
        if gate.kind == "pauli":
            lam = pauli_rotate_raw(lam, *aux, -theta)
            grad[k] = -2.0 * np.vdot(lam, moved).imag
        else:
            lam_frame = gate.to_frame(lam)
            grad[k] = -2.0 * np.vdot(lam_frame, gate.spectrum[0] * moved).imag
            lam = gate.from_frame(aux.conj() * lam_frame)
    return value, grad


@dataclass
class FixedAnsatzResult:
    parameters: np.ndarray
    objective: float
    iterations: int  # accepted BFGS steps
    converged: bool
    evaluations: int  # value+gradient calls, the one at ``init`` included


ValueAndGradient = Callable[[np.ndarray], tuple[float, np.ndarray]]


def _line_search(
    fun: ValueAndGradient, x: np.ndarray, f0: float, g0: np.ndarray,
    p: np.ndarray, alpha: float,
) -> tuple[float, float, np.ndarray] | None:
    """A step ``alpha`` along ``p`` as ``(alpha, f, g)``, or None.

    Nocedal & Wright Algs. 3.5 and 3.6 as one loop of at most
    ``MAX_LINE_SEARCH_TRIALS`` evaluations. ``lo`` is the best step so far
    with sufficient decrease. Until a bracket ``[lo, hi]`` is found the
    trial step doubles. After that, the zoom takes the minimizer of the
    quadratic through ``f(lo)``, ``f'(lo)`` and ``f(hi)``, and bisects when
    that point is not well inside the bracket. The first step that meets
    the strong Wolfe conditions is returned. When the trials run out
    (where the slope steepens along ``p``, no bracket is ever found), ``lo``
    is returned if it moved, and None only if no trial decreased ``f``
    enough.
    """
    d0 = g0 @ p
    lo, hi = (0.0, f0, d0, g0), None
    for _ in range(MAX_LINE_SEARCH_TRIALS):
        f, g = fun(x + alpha * p)
        d = g @ p
        decrease = f <= f0 + WOLFE_DECREASE * alpha * d0
        if decrease and abs(d) <= -WOLFE_CURVATURE * d0:
            return alpha, f, g
        if not decrease or f >= lo[1]:
            hi = (alpha, f, d)
        else:
            # Keep f'(lo) pointing into the bracket; hi is +inf until one is found.
            if d * (1.0 if hi is None else hi[0] - lo[0]) >= 0:
                hi = lo
            lo = (alpha, f, d, g)
        if hi is None:
            alpha *= 2.0
            continue
        (a, fa, da, _), width = lo, hi[0] - lo[0]
        # Quadratic minimizer at a + t * width; ``excess`` is its curvature * width**2.
        excess = hi[1] - fa - da * width
        t = -da * width / (2.0 * excess) if excess > 0 else 0.5
        alpha = a + (t if 0.1 <= t <= 0.9 else 0.5) * width
    return (lo[0], lo[1], lo[3]) if lo[0] > 0 else None


def _bfgs(
    fun: ValueAndGradient, x: np.ndarray, f: float, g: np.ndarray
) -> tuple[np.ndarray, float, np.ndarray, int, bool]:
    """BFGS from ``x`` (Nocedal & Wright Alg. 6.1), where ``f, g = fun(x)``.

    The inverse Hessian starts at the identity, and its update is skipped
    when ``y.s <= 0``, as after a line search that ran out on a steepening
    slope. The first trial step of each line search is
    ``min(1, 2.02 (f - f_prev) / g.p)``, with ``f_prev = f + |g|/2`` before
    the first step. Returns ``(x, f, g, iterations, converged)`` at the last
    accepted point: converged when ``|g|_inf <= GRADIENT_TOLERANCE``, not
    converged after ``MAX_OPTIMIZER_ITERATIONS`` steps or when the line
    search or the descent direction fails.
    """
    inverse_hessian = np.eye(x.size)
    f_prev = f + np.linalg.norm(g) / 2
    iterations = 0
    while np.linalg.norm(g, np.inf) > GRADIENT_TOLERANCE:
        p = -inverse_hessian @ g
        slope = g @ p
        if iterations == MAX_OPTIMIZER_ITERATIONS or not slope < 0:
            return x, f, g, iterations, False
        alpha = min(1.0, 2.02 * (f - f_prev) / slope)
        step = _line_search(fun, x, f, g, p, alpha if alpha > 0 else 1.0)
        if step is None:
            return x, f, g, iterations, False
        alpha, f_new, g_new = step
        s, y = alpha * p, g_new - g
        x, f_prev, f, g = x + s, f, f_new, g_new
        iterations += 1
        ys = y @ s
        if ys > 0:
            # N&W eq. 6.17: H <- (I - rho s y^T) H (I - rho y s^T) + rho s s^T.
            left = np.eye(x.size) - np.outer(s, y) / ys
            inverse_hessian = left @ inverse_hessian @ left.T + np.outer(s, s) / ys
    return x, f, g, iterations, True


def optimize_fixed_ansatz(
    ansatz: Ansatz, ctx: ObjectiveContext, init: np.ndarray
) -> FixedAnsatzResult:
    """BFGS on exact adjoint gradients; deterministic given ``init``.

    Quasi-Newton BFGS with a strong-Wolfe line search (Nocedal & Wright,
    *Numerical Optimization*, Algs. 3.5, 3.6 and 6.1; see :func:`_bfgs`).
    Every accepted step decreases the objective, so the returned point is
    never worse than ``init``. Non-finite objective or gradient values abort
    the run with :class:`NumericalFailure`.
    """
    init = np.asarray(init, dtype=np.float64)
    if init.shape != (ansatz.parameter_count,):
        raise ValueError(
            f"init has {init.shape}, ansatz expects {ansatz.parameter_count}"
        )
    evaluations = 0

    def fun(x: np.ndarray) -> tuple[float, np.ndarray]:
        nonlocal evaluations
        evaluations += 1
        value, grad = ansatz_value_and_gradient(ansatz, x, ctx)
        if not np.isfinite(value):
            raise NumericalFailure("non-finite objective during optimization")
        if not np.all(np.isfinite(grad)):
            raise NumericalFailure("non-finite gradient during optimization")
        return value, grad

    x, f, _, iterations, converged = _bfgs(fun, init, *fun(init))
    return FixedAnsatzResult(x, f, iterations, converged, evaluations)


@dataclass
class IterationRecord:
    """One growth step: what was chosen, where the optimizer landed, at what cost."""

    index: int
    generator: str | None
    selection_gradient: float | None
    pool_gradient_norm: float | None
    objective: float
    fidelity: float
    cnot_count: int
    wall_ms: float
    # BFGS steps, value+gradient calls and convergence; step 0 optimizes nothing.
    optimizer_iterations: int = 0
    optimizer_evaluations: int = 0
    optimizer_converged: bool = True


@dataclass
class AdaptTrace:
    flavor: str
    seed: int
    gamma0: float | None
    records: list[IterationRecord]
    termination: str  # "threshold" | "max_iters" | "stalled"
    generator_labels: list[str]
    final_parameters: list[float]
    final_objective: float
    final_fidelity: float
    final_pool_gradient_norm: float | None
    reference_spec: dict
    metadata: dict

    def to_dict(self) -> dict:
        return asdict(self)


def cnot_count(ansatz: Ansatz) -> int:
    """Two-qubit gate count of the circuit under the documented convention.

    The reference's CNOTs (``vqe``: ``n_data * n_ancilla``; layered: one per
    singlet pair) plus every gate's ``cnot_cost``: 2 per weight-2 Pauli word
    (weight-1 words are free), ``3 n_data`` per entangler, and per cost gate
    2 per weight-2 term of the data-register Hamiltonian.
    """
    reference = ansatz.n_data * (ansatz.n_ancilla if ansatz.flavor == "vqe" else 1)
    return reference + sum(gate.cnot_cost for gate in ansatz.gates)


@dataclass(frozen=True)
class VqeSettings:
    """What an ADAPT-VQE run chooses: the pool-gradient threshold ``epsilon``."""

    epsilon: float

    def __post_init__(self):
        if not 0 < self.epsilon < np.inf:
            raise ValueError(f"epsilon must be finite and > 0, got {self.epsilon}")


@dataclass(frozen=True)
class QaoaSettings:
    """What a layered run chooses: the problem Hamiltonian and the number of layers."""

    hamiltonian: HermitianOperator
    layer_budget: int

    def __post_init__(self):
        if not 0 <= self.layer_budget <= MAX_QAOA_LAYERS:
            raise ValueError(f"layer budget must be in [0, {MAX_QAOA_LAYERS}]")


def _local_word(letters: str) -> np.ndarray:
    """Flattened ``P^T`` of a word ``P`` on its own support."""
    local = np.ones((1, 1), dtype=np.complex128)
    for letter in letters:
        local = np.kron(_PAULI_MATRICES[letter], local)
    return local.T.ravel()


def _terms_by_support(pool: tuple[PoolOperator, ...]):
    """The pool's Pauli terms grouped by support.

    Returns ``(rows, groups)``. ``groups`` holds ``(support, weights)`` with
    ``weights[i]`` the flattened ``c_i P_i^T``, each word as a matrix on its
    own support (highest qubit the most significant bit, as in
    :func:`_marginal`), so ``weights @ M.ravel()`` gives every
    ``c_i Tr(P_i M)``; ``rows`` holds the pool index of every term, group
    after group. A register's pool keeps its groups in :func:`_register_groups`.
    """
    # A pool holds few distinct letter strings, and np.kron is slow on tiny arrays.
    letters = {p.letters for op in pool for _, p in op.terms}
    words = {w: _local_word(w) for w in letters}
    by_support: dict[tuple[int, ...], list[tuple[int, np.ndarray]]] = {}
    for j, op in enumerate(pool):
        for c, p in op.terms:
            weights = c * words[p.letters]
            by_support.setdefault(p.support, []).append((j, weights))
    rows = np.array([j for terms in by_support.values() for j, _ in terms])
    groups = tuple(
        (support, np.array([w for _, w in terms]))
        for support, terms in by_support.items()
    )
    # Read-only: one process-wide cache entry shares them across sweeps.
    for array in (rows, *(weights for _, weights in groups)):
        array.setflags(write=False)
    return rows, groups


@lru_cache(maxsize=None)
def _register_groups(n_data: int, n_ancilla: int, layered: bool):
    """:func:`_terms_by_support` of :func:`register_pool`, built at the first scan."""
    return _terms_by_support(register_pool(n_data, n_ancilla, layered))


def _marginal(
    psi_lam: np.ndarray, n_qubits: int, support: tuple[int, ...]
) -> np.ndarray:
    """``M = Tr_rest |psi><lam|`` on ``support`` from ``psi_lam = [psi, conj(lam)]``.

    ``<lam|P psi> = Tr(P M)`` for a word ``P`` on the support. Rows and
    columns count the support's qubits with the highest one as the most
    significant bit.
    """
    shape, top = [2], n_qubits
    for q in reversed(support):
        shape += [1 << (top - 1 - q), 2]
        top = q
    shape.append(1 << top)
    # Axis 0 picks psi or conj(lam); the support's bit axes go next, then the rest.
    w = len(support)
    order = [0] + [2 * i + 2 for i in range(w)] + [2 * i + 1 for i in range(w + 1)]
    psi, lam_conj = psi_lam.reshape(shape).transpose(order).reshape(2, 1 << w, -1)
    return psi @ lam_conj.T


def _pool_scan(
    state: StateVector,
    pool: tuple[PoolOperator, ...],
    ctx: ObjectiveContext,
    groups,
) -> np.ndarray:
    """Candidate gradient of every pool operator at ``state``, in pool order.

    Appending ``exp(i theta G)`` at theta = 0 gives ``-2 Im<lam|G psi>``
    with one costate ``lam`` for the whole pool. The tests check each entry
    against :func:`~gibbsprep.objective.shift_rule_gradient` of a one-gate
    ansatz on ``state`` at theta = 0. No term is gathered: each support
    gets one marginal ``M = Tr_rest |psi><lam|`` (4 x 4 for a pair, 2 x 2
    for a qubit), every term ``c P`` on it adds
    ``-2 c Im Tr(P M)`` to its operator's entry, and the entangler's entry
    sums its terms (qubit-ADAPT pools, arXiv:1911.10205). ``groups`` is
    :func:`_terms_by_support` of ``pool``.
    """
    psi = state.amplitudes
    _, lam = _value_and_costate(psi, ctx)
    psi_lam = np.stack([psi, lam.conj()])
    rows, groups = groups
    inner = np.concatenate(
        [
            weights @ _marginal(psi_lam, state.n_total, support).ravel()
            for support, weights in groups
        ]
    )
    return np.bincount(rows, weights=-2.0 * inner.imag, minlength=len(pool))


def _argmax_with_ties(gradients: np.ndarray) -> int:
    """Largest |gradient|; differences below 1e-12 count as ties, first wins."""
    magnitudes = np.abs(gradients)
    return int(np.flatnonzero(magnitudes.max() - magnitudes < TIE_TOLERANCE)[0])


class _Growth:
    """Records and trace of one growth loop, shared by both ansatz families.

    The records are the loop's only state, and :meth:`_record` is their one
    writer. Made with the reference-only ansatz, it records step 0 at once.
    The loop then runs :meth:`scan` (unless its mixer is fixed) and
    :meth:`step` once per growth step, and :meth:`trace` at the end.
    ``state`` is the prepared state of the last record, which the next scan
    starts from.
    """

    def __init__(
        self, ansatz: Ansatz, ctx: ObjectiveContext, fidelity_target: GibbsTarget
    ):
        self.ansatz, self.ctx = ansatz, ctx
        self.target_dm = fidelity_target.as_density_matrix()
        self.pool_norm: float | None = None
        self.records: list[IterationRecord] = []
        self._record(time.perf_counter())

    def scan(self, state: StateVector) -> tuple[PoolOperator, float]:
        """The pool's largest-|gradient| generator at ``state``, with its gradient.

        The pool-gradient norm is kept as ``pool_norm``.
        """
        ansatz = self.ansatz
        register = (ansatz.n_data, ansatz.n_ancilla, ansatz.flavor != "vqe")
        pool = register_pool(*register)
        gradients = _pool_scan(state, pool, self.ctx, _register_groups(*register))
        self.pool_norm = float(np.linalg.norm(gradients))
        best = _argmax_with_ties(gradients)
        return pool[best], float(gradients[best])

    def step(
        self,
        t0: float,
        chosen: PoolOperator,
        selection_gradient: float | None,
        new_parameters: tuple[float, ...],
    ) -> None:
        """Append ``chosen``, re-optimize, and record the step from ``t0`` on.

        BFGS starts at the last optimum extended by ``new_parameters``.
        """
        ansatz = self.ansatz
        ansatz.generators.append(chosen)
        init = np.concatenate([ansatz.parameters, new_parameters])
        result = optimize_fixed_ansatz(ansatz, self.ctx, init)
        ansatz.parameters = result.parameters
        optimizer = (result.iterations, result.evaluations, result.converged)
        self._record(t0, chosen.label, selection_gradient, optimizer)

    def _record(
        self, t0: float, generator: str | None = None,
        selection_gradient: float | None = None, optimizer: tuple = (),
    ) -> None:
        """Prepare the ansatz as it stands and append its record, timed from ``t0``.

        The objective is read from the state, the forward pass that gave BFGS
        its value; ``optimizer`` holds the BFGS fields (none at step 0).
        """
        self.state = self.ansatz.prepare()
        rho = partial_trace_ancilla(self.state)
        self.records.append(IterationRecord(
            len(self.records), generator, selection_gradient, self.pool_norm,
            objective(rho, self.ctx), fidelity(rho, self.target_dm),
            cnot_count(self.ansatz), (time.perf_counter() - t0) * 1e3, *optimizer,
        ))

    def trace(self, seed: int, gamma0: float | None, termination: str) -> AdaptTrace:
        ansatz, last = self.ansatz, self.records[-1]
        return AdaptTrace(
            flavor=ansatz.flavor,
            seed=seed,
            gamma0=gamma0,
            records=self.records,
            termination=termination,
            generator_labels=[op.label for op in ansatz.generators],
            final_parameters=[float(p) for p in ansatz.parameters],
            final_objective=last.objective,
            final_fidelity=last.fidelity,
            final_pool_gradient_norm=self.pool_norm,
            reference_spec=ansatz.reference_spec,
            metadata={
                "n_data": ansatz.n_data,
                "n_ancilla": ansatz.n_ancilla,
                "layer_order": "first listed layer applied first",
                "cnot_convention": CNOT_CONVENTION,
            },
        )


def adapt_vqe_run(
    settings: VqeSettings,
    ctx: ObjectiveContext,
    fidelity_target: GibbsTarget,
    seed: int,
) -> tuple[Ansatz, AdaptTrace]:
    """Grow a Pauli-rotation ansatz until the pool-gradient norm drops below epsilon.

    Each iteration scans every pool candidate at the current optimized
    state, appends the largest-|gradient| generator with its new parameter
    at 0 (which reproduces the previous state exactly, so the objective can
    only improve), and re-optimizes all parameters. The run ends
    ``stalled`` once each of the last ``STALL_LIMIT`` records is less than
    ``STALL_IMPROVEMENT`` below the one before it.
    """
    rng = np.random.default_rng(seed)
    _, angles = vqe_reference_state(ctx.n_data, ctx.n_ancilla, rng)
    ansatz = Ansatz.vqe(ctx.n_data, ctx.n_ancilla, angles)
    growth = _Growth(ansatz, ctx, fidelity_target)
    termination = "max_iters"
    for _ in range(MAX_VQE_ITERATIONS):
        t0 = time.perf_counter()
        chosen, gradient = growth.scan(growth.state)
        if growth.pool_norm < settings.epsilon:
            termination = "threshold"
            break
        growth.step(t0, chosen, gradient, (0.0,))
        gains = -np.diff([r.objective for r in growth.records[-STALL_LIMIT - 1:]])
        if gains.size == STALL_LIMIT and gains.max() < STALL_IMPROVEMENT:
            termination = "stalled"
            break
    return ansatz, growth.trace(seed, None, termination)


def _grow_layered_ansatz(
    settings: QaoaSettings,
    ctx: ObjectiveContext,
    fidelity_target: GibbsTarget,
    seed: int,
    flavor: str,
) -> tuple[Ansatz, AdaptTrace]:
    gamma0 = float(np.random.default_rng(seed).uniform(0.0, np.pi / 2))
    ansatz = Ansatz.layered(flavor, settings.hamiltonian)
    if (ctx.n_data, ctx.n_ancilla) != (ansatz.n_data, ansatz.n_ancilla):
        raise ValueError(f"a layered run needs n_data == n_ancilla == {ansatz.n_data}")
    select = flavor == "qaoa"
    entangler = register_pool(ctx.n_data, ctx.n_ancilla, True)[-1]
    growth = _Growth(ansatz, ctx, fidelity_target)
    for _ in range(settings.layer_budget):
        t0 = time.perf_counter()
        chosen, gradient = entangler, None
        if select:
            # Candidates are ranked on top of the new layer's cost gate at gamma0.
            raw, _, _ = _apply_gate(
                ansatz.cost_gate, gamma0, growth.state.amplitudes, growth.state.n_total
            )
            chosen, gradient = growth.scan(ansatz.reference.with_amplitudes(raw))
        growth.step(t0, chosen, gradient, (gamma0, 0.0))
    return ansatz, growth.trace(seed, gamma0, "max_iters")


def adapt_qaoa_run(
    settings: QaoaSettings,
    ctx: ObjectiveContext,
    fidelity_target: GibbsTarget,
    seed: int,
) -> tuple[Ansatz, AdaptTrace]:
    """Grow the layered ansatz for a fixed layer budget, one mixer per layer.

    The singlet reference is fixed, so a restart differs from the others
    only in its initial cost angle: ``gamma0`` is the first draw of
    ``numpy.random.default_rng(seed).uniform(0, pi/2)``, for this run and
    for :func:`baseline_qaoa_run` alike. Candidate mixers are ranked by the
    magnitude of the alpha-gradient evaluated at (alpha = 0, gamma = gamma0)
    on top of the optimized previous layers; gamma0 stays constant
    throughout the run. The new layer is initialized at (gamma0, 0), which
    leaves the objective unchanged because the cost gate commutes with the
    target, so the optimized objective is nonincreasing across layers.
    """
    return _grow_layered_ansatz(settings, ctx, fidelity_target, seed, "qaoa")


def baseline_qaoa_run(
    settings: QaoaSettings,
    ctx: ObjectiveContext,
    fidelity_target: GibbsTarget,
    seed: int,
) -> tuple[Ansatz, AdaptTrace]:
    """Fixed-mixer comparison ansatz: every layer uses the pair entangler."""
    return _grow_layered_ansatz(settings, ctx, fidelity_target, seed, "baseline")


# Each run takes (settings, ctx, fidelity_target, seed), and its result is a
# function of those alone.
GROWTH_RUNS = {
    "vqe": adapt_vqe_run, "qaoa": adapt_qaoa_run, "baseline": baseline_qaoa_run
}


@dataclass
class RestartOutcome:
    restart_index: int
    traces: dict[int, AdaptTrace]  # by restart index; failed restarts have none
    failures: list[tuple[int, str]]

    @property
    def trace(self) -> AdaptTrace:
        """The postselected restart's trace."""
        return self.traces[self.restart_index]


def restart_postselect(
    run: Callable[[int], tuple[Ansatz, AdaptTrace]], n_restarts: int
) -> RestartOutcome:
    """Run ``run(restart_index)`` n times and keep the best final objective.

    Ties (exact equality) go to the smaller CNOT count, then the earlier
    restart. Individual failures are recorded; only all restarts failing is
    an error.
    """
    if n_restarts < 1:
        raise ValueError("need at least one restart")
    traces: dict[int, AdaptTrace] = {}
    failures: list[tuple[int, str]] = []
    for index in range(n_restarts):
        try:
            traces[index] = run(index)[1]
        except NumericalFailure as exc:
            failures.append((index, str(exc)))
    if not traces:
        raise NumericalFailure(f"all {n_restarts} restarts failed: {failures}")

    def rank(index: int) -> tuple[float, int, int]:
        trace = traces[index]
        return trace.final_objective, trace.records[-1].cnot_count, index

    return RestartOutcome(min(traces, key=rank), traces, failures)
