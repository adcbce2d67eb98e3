"""Exact linear-algebra kernel for joint data/ancilla qubit registers.

Register convention, used consistently across the package:

* qubits ``0 .. n_data - 1`` form the data register D,
* qubits ``n_data .. n_data + n_ancilla - 1`` form the ancilla register A,
* data qubit ``k`` is paired with ancilla qubit ``k`` (i.e. global index
  ``n_data + k``),
* basis-state indexing is little-endian: qubit ``k`` holds bit ``k`` of the
  basis index, so qubit 0 is the least-significant bit.

All operations are pure functions over immutable values and are safe to call
concurrently.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

NORM_ATOL = 1e-10
HERMITICITY_ATOL = 1e-10
TRACE_ATOL = 1e-10
EIGENVALUE_FLOOR = -1e-9

_LABEL_TOKEN = re.compile(r"([XYZ])(\d+)")


@dataclass(frozen=True, order=True)
class PauliString:
    """A multi-qubit Pauli word: one letter of X/Y/Z per supported qubit.

    ``support`` lists the qubit indices the word acts on, strictly
    increasing; ``letters[k]`` is the Pauli letter on ``support[k]``.
    Instances compare lexicographically on ``(support, letters)``, which
    gives every pool a well-defined deterministic order for tie-breaking.
    """

    support: tuple[int, ...]
    letters: str

    def __post_init__(self):
        support = tuple(int(q) for q in self.support)
        object.__setattr__(self, "support", support)
        if len(support) != len(self.letters):
            raise ValueError("support and letters must have equal length")
        if len(support) == 0:
            raise ValueError("identity string is not allowed (weight >= 1)")
        if any(q < 0 for q in support):
            raise ValueError("qubit indices must be non-negative")
        if any(a >= b for a, b in zip(support, support[1:])):
            raise ValueError("support indices must be strictly increasing")
        if any(c not in "XYZ" for c in self.letters):
            raise ValueError(f"invalid Pauli letters {self.letters!r}")

    @property
    def weight(self) -> int:
        return len(self.support)

    @property
    def label(self) -> str:
        """Compact text form, e.g. ``X0Z3``; parseable by :meth:`from_label`."""
        return "".join(f"{c}{q}" for q, c in zip(self.support, self.letters))

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        tokens = _LABEL_TOKEN.findall(label)
        if "".join(c + q for c, q in tokens) != label:
            raise ValueError(f"cannot parse Pauli label {label!r}")
        pairs = sorted((int(q), c) for c, q in tokens)
        return cls(tuple(q for q, _ in pairs), "".join(c for _, c in pairs))

    def commutes_with(self, other: "PauliString") -> bool:
        """True iff the two words commute (even number of clashing letters)."""
        clashes = 0
        letters = dict(zip(self.support, self.letters))
        for q, c in zip(other.support, other.letters):
            if q in letters and letters[q] != c:
                clashes += 1
        return clashes % 2 == 0


@lru_cache(maxsize=None)
def pauli_action_tables(n_qubits: int, support: tuple[int, ...], letters: str):
    """Precomputed action of a Pauli word on the computational basis.

    Returns ``(source, phase)`` such that ``(P psi)[j] = phase[j] * psi[source[j]]``.
    Cached per (register size, word); the arrays are read-only.
    """
    if support and support[-1] >= n_qubits:
        raise IndexError(
            f"Pauli support {support} out of range for {n_qubits} qubits"
        )
    dim = 1 << n_qubits
    flip_mask = 0
    phase_mask = 0  # qubits whose bit flips the sign (Y and Z letters)
    n_y = 0
    for q, c in zip(support, letters):
        if c == "X":
            flip_mask |= 1 << q
        elif c == "Y":
            flip_mask |= 1 << q
            phase_mask |= 1 << q
            n_y += 1
        else:
            phase_mask |= 1 << q
    index = np.arange(dim, dtype=np.intp)
    source = index ^ flip_mask
    parity = np.bitwise_count((source & phase_mask).astype(np.uint64)) & 1
    phase = (1j**n_y) * np.where(parity, -1.0, 1.0).astype(np.complex128)
    source.setflags(write=False)
    phase.setflags(write=False)
    return source, phase


@lru_cache(maxsize=None)
def bell_frame(n_pairs: int) -> tuple[np.ndarray, np.ndarray]:
    """The pair Bell basis of ``n_pairs`` data/ancilla pairs: ``(cnot, h)``.

    ``cnot`` gathers "CNOT from ancilla k onto data k, for every k": on the
    ``(2^n, 2^n)`` amplitude block ``[a, d]`` it maps ``d -> d ^ a``, and it is
    its own inverse. ``h`` is the real matrix ``H^{(x) n}``, applied to the
    ancilla (row) index, so in the frame the ancilla and data bits of pair k
    label its Bell state. See :func:`to_bell_raw` and :func:`from_bell_raw`;
    both arrays are read-only.
    """
    if n_pairs < 1:
        raise ValueError("need at least one data/ancilla pair")
    dim = 1 << n_pairs
    rows, cols = np.divmod(np.arange(dim * dim, dtype=np.intp), dim)
    cnot = rows * dim + (cols ^ rows)
    h = np.ones((1, 1))
    for _ in range(n_pairs):
        h = np.kron(h, np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0))
    cnot.setflags(write=False)
    h.setflags(write=False)
    return cnot, h


def to_bell_raw(amplitudes: np.ndarray, n_pairs: int) -> np.ndarray:
    """Amplitudes in the pair Bell basis of :func:`bell_frame`: CNOTs, then H."""
    cnot, h = bell_frame(n_pairs)
    block = amplitudes[cnot].reshape(h.shape[0], -1)
    # H is real, so it acts on the real and imaginary parts side by side.
    return (h @ block.view(np.float64)).view(np.complex128).reshape(-1)


def from_bell_raw(amplitudes: np.ndarray, n_pairs: int) -> np.ndarray:
    """Inverse of :func:`to_bell_raw`: H, then CNOTs."""
    cnot, h = bell_frame(n_pairs)
    block = amplitudes.reshape(h.shape[0], -1).view(np.float64)
    return (h @ block).view(np.complex128).reshape(-1)[cnot]


def pauli_apply_raw(amplitudes: np.ndarray, source: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """P @ amplitudes for a raw amplitude vector."""
    return phase * amplitudes[source]


def pauli_rotate_raw(amplitudes, source, phase, theta):
    """exp(i theta P) @ amplitudes = cos(theta)*psi + i sin(theta)*(P psi)."""
    return np.cos(theta) * amplitudes + (1j * np.sin(theta)) * pauli_apply_raw(
        amplitudes, source, phase
    )


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state on the joint data (x) ancilla register."""

    n_data: int
    n_ancilla: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (1 << self.n_total,):
            raise ValueError(
                f"expected {1 << self.n_total} amplitudes, got shape {amps.shape}"
            )
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > NORM_ATOL:
            raise ValueError(f"state norm {norm!r} deviates from 1 beyond {NORM_ATOL}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def n_total(self) -> int:
        return self.n_data + self.n_ancilla

    @property
    def dim(self) -> int:
        return 1 << self.n_total

    def with_amplitudes(self, amplitudes: np.ndarray) -> "StateVector":
        return StateVector(self.n_data, self.n_ancilla, amplitudes)

    @classmethod
    def computational_basis(
        cls, n_data: int, n_ancilla: int, index: int = 0
    ) -> "StateVector":
        amps = np.zeros(1 << (n_data + n_ancilla), dtype=np.complex128)
        amps[index] = 1.0
        return cls(n_data, n_ancilla, amps)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace matrix on the data register."""

    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=np.complex128)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError(f"density matrix must be square, got {entries.shape}")
        if np.abs(entries - entries.conj().T).max() > HERMITICITY_ATOL:
            raise ValueError("density matrix is not Hermitian")
        trace = entries.trace()
        if abs(trace - 1.0) > TRACE_ATOL:
            raise ValueError(f"density matrix trace {trace!r} deviates from 1")
        p = np.vdot(entries, entries).real
        if not (1.0 / entries.shape[0] - 1e-9 <= p <= 1.0 + 1e-9):
            raise ValueError(f"purity {p!r} outside [1/dim, 1]")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def pauli_rotation(state: StateVector, p: PauliString, theta: float) -> StateVector:
    """Return ``exp(i theta P) |psi>`` using cos/sin closed form (P^2 = 1)."""
    source, phase = pauli_action_tables(state.n_total, p.support, p.letters)
    return state.with_amplitudes(
        pauli_rotate_raw(state.amplitudes, source, phase, theta)
    )


@lru_cache(maxsize=None)
def _cnot_table(n_qubits: int, control: int, target: int):
    if control == target:
        raise ValueError("CNOT control and target must differ")
    if not (0 <= control < n_qubits and 0 <= target < n_qubits):
        raise IndexError("CNOT qubits out of range")
    index = np.arange(1 << n_qubits, dtype=np.intp)
    source = index ^ (((index >> control) & 1) << target)
    source.setflags(write=False)
    return source


def apply_cnot(state: StateVector, control: int, target: int) -> StateVector:
    """CNOT with the given control/target (a self-inverse basis permutation)."""
    source = _cnot_table(state.n_total, control, target)
    return state.with_amplitudes(state.amplitudes[source])


def partial_trace_ancilla_raw(
    amplitudes: np.ndarray, n_data: int, n_ancilla: int
) -> np.ndarray:
    """Tr_A |psi><psi| as a raw (2^n_data, 2^n_data) array."""
    block = amplitudes.reshape(1 << n_ancilla, 1 << n_data)
    return block.T @ block.conj()


def partial_trace_ancilla(state: StateVector) -> DensityMatrix:
    """Reduced state of the data register, ``Tr_A |psi><psi|``."""
    return DensityMatrix(
        partial_trace_ancilla_raw(state.amplitudes, state.n_data, state.n_ancilla)
    )


def purity(rho: DensityMatrix) -> float:
    """Tr(rho^2); equals the squared Frobenius norm for Hermitian input."""
    return float(np.vdot(rho.entries, rho.entries).real)


def _checked_eigvalsh(matrix: np.ndarray, what: str) -> np.ndarray:
    values = np.linalg.eigvalsh(matrix)
    if values[0] < EIGENVALUE_FLOOR:
        raise ValueError(
            f"{what} has eigenvalue {values[0]} below {EIGENVALUE_FLOOR}; "
            "invalid state upstream"
        )
    return np.clip(values, 0.0, None)


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity ``(Tr sqrt(sqrt(sigma) rho sqrt(sigma)))^2``.

    Eigenvalues of either argument in ``[-1e-9, 0)`` are clamped to zero;
    anything below that raises, since it signals a bug upstream rather than
    partial-trace rounding. Eigenvalues of ``sqrt(sigma) rho sqrt(sigma)``
    below ``dim * eps * max`` (the ``matrix_rank`` cutoff) are dropped.
    """
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    _checked_eigvalsh(rho.entries, "rho")
    sig_values, sig_vectors = np.linalg.eigh(sigma.entries)
    if sig_values[0] < EIGENVALUE_FLOOR:
        raise ValueError(
            f"sigma has eigenvalue {sig_values[0]} below {EIGENVALUE_FLOOR}"
        )
    sqrt_sigma = (sig_vectors * np.sqrt(np.clip(sig_values, 0.0, None))) @ (
        sig_vectors.conj().T
    )
    inner = sqrt_sigma @ rho.entries @ sqrt_sigma
    values = np.linalg.eigvalsh(inner)
    # Eigenvalues under the numerical-rank cutoff are rounding noise; their
    # square roots (~1e-9 each) would push F(rho, rho) above 1.
    cutoff = inner.shape[0] * np.finfo(np.float64).eps * max(values[-1], 0.0)
    return float(np.sqrt(values[values > cutoff]).sum() ** 2)
