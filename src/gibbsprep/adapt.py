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

Both families run through one layer loop: a ``vqe`` generator is a layer
without a cost unitary, so with ``s`` parameters per layer (2 with cost
unitaries, else 1) layer ``k`` has its mixer angle at ``params[s k + s - 1]``
(see :class:`Ansatz`). Their growth loops share one record and trace path
(:class:`_Growth`).

After every growth step all parameters are re-optimized by BFGS (Nocedal &
Wright, *Numerical Optimization*, 2nd ed., Alg. 6.1) with a strong-Wolfe
line search (Algs. 3.5/3.6), fed by the exact value and gradient of one
adjoint pass (:func:`ansatz_value_and_gradient`).

The layered hot path is pair-local. The cost layer is ``V (x) V`` with
``V = exp(i gamma H/2)`` on the data register (:meth:`Ansatz._apply_cost_raw`),
so nothing is exponentiated on the joint register. The entangler is one
diagonal phase in the pair Bell basis (:func:`~gibbsprep.simcore.bell_frame`:
a CNOT from each ancilla onto its data qubit, then ``H`` on the ancillas),
where every ``XX``, ``YY`` and ``ZZ`` of a pair is a sign
(:attr:`PoolOperator.bell_spectrum`). The forward pass keeps a tape, so the
reverse pass walks back only the costate (:func:`ansatz_value_and_gradient`).
The pool scan reads every candidate gradient from one ``2^w x 2^w`` marginal
of ``|psi><lam|`` per support of weight ``w``, with no per-word gather table
(qubit-ADAPT pools, arXiv:1911.10205; :func:`_pool_scan`).

Within one growth loop everything is deterministic given the seed; restarts
and postselection provide the only randomness at the protocol level.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .models import GibbsTarget, HermitianOperator
from .objective import ObjectiveContext, objective
from .simcore import (
    PauliString,
    StateVector,
    apply_cnot,
    fidelity,
    from_bell_raw,
    partial_trace_ancilla,
    partial_trace_ancilla_raw,
    pauli_action_tables,
    pauli_apply_raw,
    pauli_rotation,
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
    "layered_cost": "2 per two-qubit term of the data-register Hamiltonian",
    "layered_pauli_mixer": 2,
    "layered_entangler_mixer": "3 per data/ancilla pair",
}


class NumericalFailure(RuntimeError):
    """Raised when a run hits non-finite values or loses state validity."""


@dataclass(frozen=True)
class PoolOperator:
    """One selectable generator: a Pauli word or the full pair entangler."""

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
        """A sum of ``XX``, ``YY`` and ``ZZ`` terms on the pairs ``(k, n_data + k)``.

        That is the form the pair Bell basis diagonalises
        (:attr:`bell_spectrum`); any other term raises ``ValueError``.
        """
        if operator.n_qubits != 2 * n_data:
            raise ValueError(f"entangler must act on {2 * n_data} qubits")
        pairs = {(k, n_data + k) for k in range(n_data)}
        for _, p in operator.terms:
            if p.support not in pairs or p.letters not in ("XX", "YY", "ZZ"):
                raise ValueError(
                    f"entangler term {p.label} is not XX, YY or ZZ on a pair "
                    f"(k, {n_data} + k)"
                )
        return cls(
            kind="sum_entangler",
            pauli=None,
            operator=operator,
            cnot_cost=3 * n_data,
            label=ENTANGLER_LABEL,
        )

    @property
    def terms(self) -> tuple[tuple[float, PauliString], ...]:
        """The generator as a sum ``sum_j c_j P_j`` of commuting Pauli words."""
        return ((1.0, self.pauli),) if self.kind == "pauli" else self.operator.terms

    @cached_property
    def bell_spectrum(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The entangler's diagonal in the pair Bell basis of ``bell_frame``.

        Returns ``(energies, values, index)``: ``energies`` over the frame's
        amplitudes, equal to ``values[index]`` with ``values`` the distinct
        ones, so a phase ``exp(i a energies)`` takes one exponential per
        distinct value. With ``x_k`` the ancilla bit and ``y_k`` the data bit
        of pair k, ``XX = (-1)^x``, ``ZZ = (-1)^y`` and ``YY = -(-1)^(x+y)``
        (:func:`~gibbsprep.simcore.bell_frame`).
        """
        n = self.operator.n_qubits // 2
        x, y = np.divmod(np.arange(1 << 2 * n), 1 << n)
        energies = np.zeros(x.size)
        for c, p in self.operator.terms:
            k = p.support[0]
            bits = {"XX": x >> k, "ZZ": y >> k, "YY": (x ^ y) >> k}[p.letters] & 1
            energies += (-c if p.letters == "YY" else c) * (1.0 - 2.0 * bits)
        values, index = np.unique(energies, return_inverse=True)
        for array in (energies, values, index):
            array.setflags(write=False)
        return energies, values, index


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


def reference_from_angles(
    n_data: int, n_ancilla: int, angles: np.ndarray
) -> StateVector:
    """One y-rotation per qubit, then a CNOT from each ancilla to each data qubit.

    ``angles[q]`` drives ``exp(-i angles[q] Y_q)``; the CNOTs (ancilla
    control, data target) all commute, so their order is irrelevant.
    """
    angles = np.asarray(angles, dtype=np.float64)
    if angles.shape != (n_data + n_ancilla,):
        raise ValueError("need one angle per qubit")
    state = StateVector.computational_basis(n_data, n_ancilla)
    for q, alpha in enumerate(angles):
        state = pauli_rotation(state, PauliString((q,), "Y"), -float(alpha))
    for a in range(n_ancilla):
        for d in range(n_data):
            state = apply_cnot(state, control=n_data + a, target=d)
    return state


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
    """A reference state plus an ordered list of parameterized layers.

    Every layer is an optional cost unitary followed by the rotation of its
    generator. A ``vqe`` generator is a layer without a cost unitary, so
    ``vqe`` flavor stores one rotation angle per generator. ``qaoa`` and
    ``baseline`` flavors interleave parameters as
    ``[gamma_1, alpha_1, ..., gamma_n, alpha_n]``. With ``s`` parameters per
    layer (:attr:`_stride`), layer ``k`` (counted from 0) has its mixer angle
    at ``params[s k + s - 1]`` and its cost angle at ``params[s k + s - 2]``.
    The layered flavors require
    ``cost_operator`` to be the problem Hamiltonian mirrored onto both
    registers, ``H (x) 1 + 1 (x) H`` with ``n_ancilla == n_data``: its terms
    are ``H``'s data-register terms followed by the same terms shifted onto
    the ancillas, as :func:`~gibbsprep.models.joint_problem_hamiltonian`
    builds it. The cost layer then factorises as
    ``exp(i gamma (H (x) 1 + 1 (x) H)/2) = V (x) V`` with
    ``V = exp(i gamma H/2)`` on the data register alone
    (:attr:`data_hamiltonian`, :meth:`_apply_cost_raw`). The reference is
    applied first, then layer 1, layer 2, ...
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
        if self.flavor not in ("vqe", "qaoa", "baseline"):
            raise ValueError(f"unknown flavor {self.flavor!r}")
        if self.flavor in ("qaoa", "baseline"):
            if self.cost_operator is None:
                raise ValueError(f"{self.flavor} ansatz needs a cost operator")
            # The shift-rule oracle splits the cost exponential term by term,
            # which is only exact for mutually commuting terms.
            if not self.cost_operator.terms_commute():
                raise ValueError(
                    "cost operator terms must mutually commute for layered ansatz"
                )
            self.data_hamiltonian  # raises unless the cost is mirrored
        self.parameters = np.asarray(self.parameters, dtype=np.float64)

    @cached_property
    def data_hamiltonian(self) -> HermitianOperator:
        """``H`` of the layered cost ``H (x) 1 + 1 (x) H``: its data-register terms."""
        cost, n = self.cost_operator, self.n_data
        h = HermitianOperator(n, tuple(t for t in cost.terms if t[1].support[-1] < n))
        if (
            self.n_ancilla != n
            or cost.n_qubits != 2 * n
            or cost.terms != h.terms + h.shifted_to(2 * n, n).terms
        ):
            raise ValueError(
                "cost operator must be the mirrored H (x) 1 + 1 (x) H: its "
                "data-register terms, then the same on n_ancilla == n_data ancillas"
            )
        return h

    @property
    def n_layers(self) -> int:
        return len(self.generators)

    @property
    def _stride(self) -> int:
        """Parameters per layer: 2 with a cost unitary (``vqe``: none), else 1."""
        return 1 if self.flavor == "vqe" else 2

    @property
    def parameter_count(self) -> int:
        return self._stride * self.n_layers

    def prepare(self, params: np.ndarray | None = None) -> StateVector:
        """Build the full state for the given (or stored) parameters."""
        params = self.parameters if params is None else np.asarray(params, float)
        if params.shape != (self.parameter_count,):
            raise ValueError(
                f"expected {self.parameter_count} parameters, got {params.shape}"
            )
        return self.reference.with_amplitudes(self._build_raw(params))

    # -- raw-amplitude pipelines (hot path) --------------------------------

    def _cost_unitary(self, gamma: float) -> np.ndarray:
        """``V = exp(i gamma H/2)`` of the cost layer ``V (x) V``.

        For diagonal ``H`` it is the joint phase vector ``outer(v, v).ravel()``
        with ``v = exp(i gamma h/2)``; otherwise the ``2^n x 2^n`` matrix
        ``W diag(exp(i gamma w/2)) W^dagger`` from ``H``'s eigensystem.
        """
        h = self.data_hamiltonian
        diag = h.diagonal()
        if diag is not None:
            v = np.exp(0.5j * gamma * diag)
            return (v[:, None] * v).ravel()
        values, vectors = h.eigensystem()
        return (vectors * np.exp(0.5j * gamma * values)) @ vectors.conj().T

    def _cost_unitaries(self, params: np.ndarray) -> list[np.ndarray]:
        """One :meth:`_cost_unitary` per layer, none for the ``vqe`` flavor."""
        if self.flavor == "vqe":
            return []
        return [self._cost_unitary(gamma) for gamma in params[0::2]]

    def _apply_cost_raw(self, amps: np.ndarray, gamma: float) -> np.ndarray:
        """``exp(i (gamma/2) (H (x) 1 + 1 (x) H)) amps`` from the data register alone.

        The layer is ``V (x) V`` with ``V = exp(i gamma H/2)``: ``V Psi V^T``
        on the ``(2^n_ancilla x 2^n_data)`` amplitude block ``Psi``, or one
        phase multiply when ``H`` is diagonal. ``-gamma`` inverts it.
        """
        return _apply_cost(amps, self._cost_unitary(gamma))

    def _cost_inner(self, psi: np.ndarray, lam: np.ndarray) -> complex:
        """``<lam| (H (x) 1 + 1 (x) H) |psi>`` as ``vdot(Lam, H Psi + Psi H^T)``."""
        if self._cost_energies is not None:
            return np.vdot(lam, self._cost_energies * psi)
        h = self.data_hamiltonian.matrix
        block = psi.reshape(h.shape[0], -1)
        return np.vdot(lam, h @ block + block @ h.T)

    @cached_property
    def _cost_energies(self) -> np.ndarray | None:
        """The joint cost's diagonal ``h_a + h_d`` if ``H`` is diagonal, else None."""
        h = self.data_hamiltonian.diagonal()
        return None if h is None else (h[:, None] + h).ravel()

    def _build_raw(self, params: np.ndarray, tape: list | None = None) -> np.ndarray:
        """Final amplitudes at ``params``; the one forward pass.

        Each layer applies its cost unitary (if any), then its generator: a
        Pauli word as ``cos(a) psi + i sin(a) P psi``, the entangler as one
        diagonal phase in the pair Bell basis ``B``
        (:func:`~gibbsprep.simcore.bell_frame`). With a ``tape``, each layer
        appends ``(unitary, psi_in, p_psi_or_frame_out, tables_or_phase)``:
        the cost unitary (None without one), the generator's input, and
        ``P psi_in`` with the word's gather tables, or the frame output
        ``phase * B psi_in`` with the phase.
        """
        n_qubits = self.n_data + self.n_ancilla
        cost_unitaries = self._cost_unitaries(params)
        amps = self.reference.amplitudes
        s = self._stride
        # Mixer angles as Python floats: per gate they cost less than numpy scalars.
        alphas = params[s - 1 :: s].tolist()
        for k, (op, alpha) in enumerate(zip(self.generators, alphas)):
            unitary = cost_unitaries[k] if cost_unitaries else None
            if unitary is not None:
                amps = _apply_cost(amps, unitary)
            psi_in = amps
            if op.kind == "pauli":
                word = op.pauli
                tables = pauli_action_tables(n_qubits, word.support, word.letters)
                moved = pauli_apply_raw(psi_in, *tables)
                amps = np.cos(alpha) * psi_in + (1j * np.sin(alpha)) * moved
                record = (unitary, psi_in, moved, tables)
            else:
                _, values, index = op.bell_spectrum
                phase = np.exp(1j * alpha * values)[index]
                moved = phase * to_bell_raw(psi_in, self.n_data)
                amps = from_bell_raw(moved, self.n_data)
                record = (unitary, psi_in, moved, phase)
            if tape is not None:
                tape.append(record)
        return amps


def _apply_cost(amps: np.ndarray, unitary: np.ndarray) -> np.ndarray:
    """``(V (x) V) amps``, ``unitary`` in the form of :meth:`Ansatz._cost_unitary`."""
    if unitary.ndim == 1:
        return unitary * amps
    block = amps.reshape(-1, unitary.shape[0])
    return (unitary @ block @ unitary.T).reshape(-1)


def _objective_raw(rho: np.ndarray, ctx: ObjectiveContext) -> float:
    cross = np.einsum("ij,ji->", ctx.target.matrix, rho).real
    return float(-cross + 0.5 * np.vdot(rho, rho).real)


def _value_and_costate(
    amps: np.ndarray, ctx: ObjectiveContext, n_ancilla: int
) -> tuple[float, np.ndarray]:
    """C at ``amps`` and the costate ``lam = ((rho - T) x 1_A) psi``.

    ``dC = 2 Re<lam|d psi>``, so a gate ``exp(i theta G)`` whose output is
    ``psi`` contributes ``dC/dtheta = -2 Im<lam|G psi>``.
    """
    rho = partial_trace_ancilla_raw(amps, ctx.n_data, n_ancilla)
    w = rho - ctx.target.matrix
    block = amps.reshape(1 << n_ancilla, 1 << ctx.n_data)
    return _objective_raw(rho, ctx), (block @ w.T).reshape(-1)


def ansatz_objective(ansatz: Ansatz, params: np.ndarray, ctx: ObjectiveContext) -> float:
    rho = partial_trace_ancilla_raw(
        ansatz._build_raw(np.asarray(params, float)), ansatz.n_data, ansatz.n_ancilla
    )
    return _objective_raw(rho, ctx)


def ansatz_value_and_gradient(
    ansatz: Ansatz, params: np.ndarray, ctx: ObjectiveContext
) -> tuple[float, np.ndarray]:
    """Objective and its exact gradient at ``params`` by one reverse pass.

    Adjoint differentiation (Jones & Gacon, arXiv:2009.02823): the forward
    build (:meth:`Ansatz._build_raw`) keeps a tape of every layer's input
    and generator output, and only the costate
    ``lam = ((rho - T) x 1_A) psi`` walks back through the layers; ``psi``
    is read from the tape, never un-applied. Per layer, from the last:

    * a Pauli word ``exp(i a P)``: ``lam`` is un-rotated to the layer input,
      and ``dC/da = -2 Im<lam|P psi_in>``;
    * the entangler ``B^T diag(phase) B`` in the pair Bell basis ``B``
      (real, so ``B^dagger = B^T``): ``dC/da = -2 Im vdot(B lam, E * out)``
      with ``E`` the entangler's frame diagonal and ``out`` the taped frame
      output, then ``lam <- B^T (conj(phase) * B lam)``;
    * a cost layer ``V (x) V`` (generator ``(H (x) 1 + 1 (x) H)/2``, one
      unitary per call from the data register, :meth:`Ansatz._cost_unitary`):
      ``dC/dgamma = -Im vdot(Lam, H Psi + Psi H^T)`` on the amplitude blocks
      at the cost output, then ``lam`` is un-applied.

    No other exponential runs. The result equals the parameter-shift rule
    of :mod:`gibbsprep.objective`, which unrolls every generator into single
    Pauli words and which the tests and ``gradcheck`` use as the oracle.
    """
    params = np.asarray(params, dtype=np.float64)
    tape: list = []
    psi = ansatz._build_raw(params, tape)
    value, lam = _value_and_costate(psi, ctx, ansatz.n_ancilla)
    grad = np.zeros(ansatz.parameter_count)
    s = ansatz._stride
    alphas = params[s - 1 :: s].tolist()
    for k in reversed(range(ansatz.n_layers)):
        op, alpha = ansatz.generators[k], alphas[k]
        unitary, psi_in, moved, aux = tape[k]
        if op.kind == "pauli":
            moved_lam = pauli_apply_raw(lam, *aux)
            lam = np.cos(alpha) * lam - (1j * np.sin(alpha)) * moved_lam
            grad[s * k + s - 1] = -2.0 * np.vdot(lam, moved).imag
        else:
            lam_frame = to_bell_raw(lam, ansatz.n_data)
            energies = op.bell_spectrum[0]
            grad[s * k + s - 1] = -2.0 * np.vdot(lam_frame, energies * moved).imag
            lam = from_bell_raw(aux.conj() * lam_frame, ansatz.n_data)
        if unitary is not None:
            grad[s * k + s - 2] = -ansatz._cost_inner(psi_in, lam).imag
            inverse = unitary.conj() if unitary.ndim == 1 else unitary.conj().T
            lam = _apply_cost(lam, inverse)
    return value, grad


@dataclass
class FixedAnsatzResult:
    parameters: np.ndarray
    objective: float
    gradient_norm: float  # infinity norm at the returned parameters
    iterations: int  # accepted BFGS steps
    converged: bool
    evaluations: int  # value+gradient calls, the one at ``init`` included


ValueAndGradient = Callable[[np.ndarray], tuple[float, np.ndarray]]


def _line_search(
    fun: ValueAndGradient, x: np.ndarray, f0: float, g0: np.ndarray,
    p: np.ndarray, alpha: float,
) -> tuple[float, float, np.ndarray] | None:
    """A step ``alpha`` along ``p`` meeting the strong Wolfe conditions, or None.

    Nocedal & Wright Algs. 3.5 and 3.6 as one loop of at most
    ``MAX_LINE_SEARCH_TRIALS`` evaluations. ``lo`` is the best step so far
    with sufficient decrease. Until a bracket ``[lo, hi]`` is found the
    trial step doubles. After that, the zoom takes the minimizer of the
    quadratic through ``f(lo)``, ``f'(lo)`` and ``f(hi)``, and bisects when
    that point is not well inside the bracket.
    """
    d0 = g0 @ p
    lo, hi = (0.0, f0, d0), None
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
            lo = (alpha, f, d)
        if hi is None:
            alpha *= 2.0
            continue
        (a, fa, da), width = lo, hi[0] - lo[0]
        # Quadratic minimizer at a + t * width; ``excess`` is its curvature * width**2.
        excess = hi[1] - fa - da * width
        t = -da * width / (2.0 * excess) if excess > 0 else 0.5
        alpha = a + (t if 0.1 <= t <= 0.9 else 0.5) * width
    return None


def _bfgs(
    fun: ValueAndGradient, x: np.ndarray, f: float, g: np.ndarray
) -> tuple[np.ndarray, float, np.ndarray, int, bool]:
    """BFGS from ``x`` (Nocedal & Wright Alg. 6.1), where ``f, g = fun(x)``.

    The inverse Hessian starts at the identity, and its update is skipped
    when ``y.s <= 0``. The first trial step of each line search is
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

    x, f, g, iterations, converged = _bfgs(fun, init, *fun(init))
    return FixedAnsatzResult(
        x, f, float(np.linalg.norm(g, np.inf)), iterations, converged, evaluations
    )


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
    pool_gradient_history: list[list[float]] | None = None

    def to_dict(self) -> dict:
        return asdict(self)

    def comparable_dict(self) -> dict:
        """Trace content with wall-clock timing stripped (for determinism checks)."""
        d = self.to_dict()
        for r in d["records"]:
            r.pop("wall_ms")
        return d


def _cost_layer_cnots(ansatz: Ansatz) -> int:
    """Adopted convention: 2 CNOTs per weight-2 term of the data-register copy."""
    return 2 * sum(1 for _, p in ansatz.data_hamiltonian.terms if p.weight == 2)


def cnot_count(ansatz: Ansatz) -> int:
    """Two-qubit gate count of the circuit under the documented convention.

    vqe: ``n_data * n_ancilla`` reference CNOTs plus 2 per weight-2
    generator (weight-1 generators are free). qaoa/baseline: one CNOT per
    singlet pair, then per layer the cost-layer CNOTs plus the mixer cost
    (2 for a Pauli word, ``3 n_data`` for the entangler).
    """
    if ansatz.flavor == "vqe":
        return ansatz.n_data * ansatz.n_ancilla + sum(
            op.cnot_cost for op in ansatz.generators
        )
    per_cost = _cost_layer_cnots(ansatz)
    return ansatz.n_data + sum(per_cost + op.cnot_cost for op in ansatz.generators)


class _PoolSettings:
    """Keeps the pool's :func:`_terms_by_support` with the settings that own it."""

    @cached_property
    def pool_groups(self):
        return _terms_by_support(self.pool)


@dataclass(frozen=True)
class VqeSettings(_PoolSettings):
    pool: tuple[PoolOperator, ...]
    epsilon: float
    max_iterations: int = MAX_VQE_ITERATIONS
    record_pool_gradients: bool = False

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")


@dataclass(frozen=True)
class QaoaSettings(_PoolSettings):
    pool: tuple[PoolOperator, ...]
    cost_operator: HermitianOperator
    layer_budget: int
    record_pool_gradients: bool = False

    def __post_init__(self):
        if not 0 <= self.layer_budget <= MAX_QAOA_LAYERS:
            raise ValueError(f"layer budget must be in [0, {MAX_QAOA_LAYERS}]")


@lru_cache(maxsize=None)
def _local_word(letters: str) -> np.ndarray:
    """Flattened ``P^T`` of a word ``P`` on its own support."""
    local = np.ones((1, 1), dtype=np.complex128)
    for letter in letters:
        local = np.kron(_PAULI_MATRICES[letter], local)
    flat = local.T.ravel()
    flat.setflags(write=False)
    return flat


def _terms_by_support(pool: tuple[PoolOperator, ...]):
    """The pool's Pauli terms grouped by support.

    Returns ``(rows, groups)``. ``groups`` holds ``(support, weights)`` with
    ``weights[i]`` the flattened ``c_i P_i^T``, each word as a matrix on its
    own support (highest qubit the most significant bit, as in
    :func:`_marginal`), so ``weights @ M.ravel()`` gives every
    ``c_i Tr(P_i M)``; ``rows`` holds the pool index of every term, group
    after group. The settings that own a pool keep it as ``pool_groups``.
    """
    by_support: dict[tuple[int, ...], list[tuple[int, np.ndarray]]] = {}
    for j, op in enumerate(pool):
        for c, p in op.terms:
            weights = c * _local_word(p.letters)
            by_support.setdefault(p.support, []).append((j, weights))
    rows = np.array([j for terms in by_support.values() for j, _ in terms])
    groups = tuple(
        (support, np.array([w for _, w in terms]))
        for support, terms in by_support.items()
    )
    return rows, groups


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
    groups=None,
) -> np.ndarray:
    """Candidate gradient of every pool operator at ``state``, in pool order.

    Appending ``exp(i theta G)`` at theta = 0 gives ``-2 Im<lam|G psi>``
    with one costate ``lam`` for the whole pool; this is the quantity
    :func:`candidate_gradient` / :func:`sum_generator_gradient` compute
    with the shift rule (their equality is pinned by tests). No term is
    gathered: each support gets one marginal ``M = Tr_rest |psi><lam|``
    (4 x 4 for a pair, 2 x 2 for a qubit), every term ``c P`` on it adds
    ``-2 c Im Tr(P M)`` to its operator's entry, and the entangler's entry
    sums its terms (qubit-ADAPT pools, arXiv:1911.10205). ``groups`` is
    :func:`_terms_by_support` of ``pool``, built here unless given.
    """
    psi = state.amplitudes
    _, lam = _value_and_costate(psi, ctx, state.n_ancilla)
    psi_lam = np.stack([psi, lam.conj()])
    rows, groups = _terms_by_support(pool) if groups is None else groups
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
    best = float(magnitudes.max())
    for j, m in enumerate(magnitudes):
        if best - m < TIE_TOLERANCE:
            return j
    raise AssertionError("unreachable")


class _Growth:
    """Records and trace of one growth loop, shared by both ansatz families.

    Made with the reference-only ansatz, it records step 0 at once. The
    loop then runs :meth:`scan` (unless its mixer is fixed) and :meth:`step`
    once per growth step, and :meth:`trace` at the end. ``state`` is the
    ansatz's prepared state after the last recorded step, which the next
    scan starts from.
    """

    def __init__(
        self,
        ansatz: Ansatz,
        settings: VqeSettings | QaoaSettings,
        ctx: ObjectiveContext,
        fidelity_target: GibbsTarget,
    ):
        self.ansatz, self.settings, self.ctx = ansatz, settings, ctx
        self.target_dm = fidelity_target.as_density_matrix()
        self.history = [] if settings.record_pool_gradients else None
        self.pool_norm: float | None = None
        t0 = time.perf_counter()
        self.state = ansatz.prepare()
        rho = partial_trace_ancilla(self.state)
        obj, fid = objective(rho, ctx), fidelity(rho, self.target_dm)
        wall_ms = (time.perf_counter() - t0) * 1e3
        self.records = [
            IterationRecord(0, None, None, None, obj, fid, cnot_count(ansatz), wall_ms)
        ]

    def scan(self, state: StateVector) -> tuple[PoolOperator, float]:
        """The pool's largest-|gradient| generator at ``state``, with its gradient.

        The pool-gradient norm is kept as ``pool_norm``, the gradients in
        the history if the settings record it.
        """
        pool = self.settings.pool
        gradients = _pool_scan(state, pool, self.ctx, self.settings.pool_groups)
        if self.history is not None:
            self.history.append([float(g) for g in gradients])
        self.pool_norm = float(np.linalg.norm(gradients))
        best = _argmax_with_ties(gradients)
        return pool[best], float(gradients[best])

    def step(
        self,
        t0: float,
        chosen: PoolOperator,
        selection_gradient: float | None,
        new_parameters: tuple[float, ...],
    ) -> IterationRecord:
        """Append ``chosen``, re-optimize, and record the step from ``t0`` on.

        BFGS starts at the last optimum extended by ``new_parameters``.
        """
        ansatz = self.ansatz
        ansatz.generators.append(chosen)
        init = np.concatenate([ansatz.parameters, new_parameters])
        result = optimize_fixed_ansatz(ansatz, self.ctx, init)
        ansatz.parameters = result.parameters
        self.state = ansatz.prepare()
        rho = partial_trace_ancilla(self.state)
        self.records.append(
            IterationRecord(
                len(self.records),
                chosen.label,
                selection_gradient,
                self.pool_norm,
                result.objective,
                fidelity(rho, self.target_dm),
                cnot_count(ansatz),
                (time.perf_counter() - t0) * 1e3,
                result.iterations,
                result.evaluations,
                result.converged,
            )
        )
        return self.records[-1]

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
            pool_gradient_history=self.history,
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
    only improve), and re-optimizes all parameters.
    """
    rng = np.random.default_rng(seed)
    reference, angles = vqe_reference_state(ctx.n_data, ctx.n_ancilla, rng)
    ansatz = Ansatz(
        flavor="vqe",
        n_data=ctx.n_data,
        n_ancilla=ctx.n_ancilla,
        reference=reference,
        reference_spec={"kind": "random_y", "angles": [float(a) for a in angles]},
    )
    growth = _Growth(ansatz, settings, ctx, fidelity_target)
    termination = "max_iters"
    stall_count = 0
    for _ in range(settings.max_iterations):
        t0 = time.perf_counter()
        chosen, gradient = growth.scan(growth.state)
        if growth.pool_norm < settings.epsilon:
            termination = "threshold"
            break
        previous = growth.records[-1].objective
        record = growth.step(t0, chosen, gradient, (0.0,))
        if previous - record.objective < STALL_IMPROVEMENT:
            stall_count += 1
            if stall_count >= STALL_LIMIT:
                termination = "stalled"
                break
        else:
            stall_count = 0
    return ansatz, growth.trace(seed, None, termination)


def _grow_layered_ansatz(
    settings: QaoaSettings,
    ctx: ObjectiveContext,
    fidelity_target: GibbsTarget,
    gamma0: float,
    seed: int,
    flavor: str,
) -> tuple[Ansatz, AdaptTrace]:
    if not 0.0 <= gamma0 <= np.pi / 2:
        raise ValueError("gamma0 must lie in [0, pi/2]")
    ansatz = Ansatz(
        flavor=flavor,
        n_data=ctx.n_data,
        n_ancilla=ctx.n_ancilla,
        reference=singlet_reference_state(ctx.n_data),
        reference_spec={"kind": "singlet"},
        cost_operator=settings.cost_operator,
    )
    select = flavor == "qaoa"
    entangler = settings.pool[-1]
    if not select and entangler.kind != "sum_entangler":
        raise ValueError("baseline runs need the entangler in the pool")
    growth = _Growth(ansatz, settings, ctx, fidelity_target)
    for _ in range(settings.layer_budget):
        t0 = time.perf_counter()
        chosen, gradient = entangler, None
        if select:
            # Candidates are ranked on top of the new layer's cost unitary at gamma0.
            raw = ansatz._apply_cost_raw(growth.state.amplitudes, gamma0)
            chosen, gradient = growth.scan(ansatz.reference.with_amplitudes(raw))
        growth.step(t0, chosen, gradient, (gamma0, 0.0))
    return ansatz, growth.trace(seed, float(gamma0), "max_iters")


def adapt_qaoa_run(
    settings: QaoaSettings,
    ctx: ObjectiveContext,
    fidelity_target: GibbsTarget,
    gamma0: float,
    seed: int,
) -> tuple[Ansatz, AdaptTrace]:
    """Grow the layered ansatz for a fixed layer budget, one mixer per layer.

    Candidate mixers are ranked by the magnitude of the alpha-gradient
    evaluated at (alpha = 0, gamma = gamma0) on top of the optimized
    previous layers; gamma0 stays constant throughout the run. The new layer
    is initialized at (gamma0, 0), which leaves the objective unchanged
    because the cost unitary commutes with the target, so the optimized
    objective is nonincreasing across layers.
    """
    return _grow_layered_ansatz(
        settings, ctx, fidelity_target, gamma0, seed, "qaoa"
    )


def baseline_qaoa_run(
    settings: QaoaSettings,
    ctx: ObjectiveContext,
    fidelity_target: GibbsTarget,
    gamma0: float,
    seed: int,
) -> tuple[Ansatz, AdaptTrace]:
    """Fixed-mixer comparison ansatz: every layer uses the pair entangler."""
    return _grow_layered_ansatz(
        settings, ctx, fidelity_target, gamma0, seed, "baseline"
    )


@dataclass
class RestartOutcome:
    ansatz: Ansatz
    trace: AdaptTrace
    restart_index: int
    traces: list[AdaptTrace]
    failures: list[tuple[int, str]]


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
    outcomes: list[tuple[int, Ansatz, AdaptTrace]] = []
    traces: list[AdaptTrace] = []
    failures: list[tuple[int, str]] = []
    for index in range(n_restarts):
        try:
            ansatz, trace = run(index)
        except NumericalFailure as exc:
            failures.append((index, str(exc)))
            continue
        outcomes.append((index, ansatz, trace))
        traces.append(trace)
    if not outcomes:
        raise NumericalFailure(
            f"all {n_restarts} restarts failed: {failures}"
        )
    best_index, best_ansatz, best_trace = min(
        outcomes,
        key=lambda item: (
            item[2].final_objective,
            item[2].records[-1].cnot_count,
            item[0],
        ),
    )
    return RestartOutcome(best_ansatz, best_trace, best_index, traces, failures)
