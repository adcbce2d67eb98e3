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

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

ATOL = 1e-10  # a state's norm, and a matrix's Hermiticity and trace
EIGENVALUE_FLOOR = -1e-9
FIDELITY_CEILING = 1.0 + 1e-9


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
        """Compact text form, e.g. ``X0Z3``: letter then qubit, in support order."""
        return "".join(f"{c}{q}" for q, c in zip(self.support, self.letters))

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


def bell_diagonal(n_pairs: int, terms) -> np.ndarray:
    """Diagonal of ``sum_j c_j P_j`` over the ``[a, d]`` block of :func:`bell_frame`.

    With ``x_k`` the ancilla bit and ``y_k`` the data bit of pair k, ``XX =
    (-1)^x``, ``ZZ = (-1)^y`` and ``YY = -(-1)^(x+y)``; a term that is not one
    of these on a pair ``(k, n_pairs + k)`` raises ``ValueError``.
    """
    x, y = np.divmod(np.arange(1 << 2 * n_pairs), 1 << n_pairs)
    energies = np.zeros(x.size)
    for c, p in terms:
        k = p.support[0]
        if p.support != (k, n_pairs + k) or p.letters not in ("XX", "YY", "ZZ"):
            raise ValueError(
                f"term {p.label} is not XX, YY or ZZ on a pair (k, {n_pairs} + k)"
            )
        bits = {"XX": x >> k, "ZZ": y >> k, "YY": (x ^ y) >> k}[p.letters] & 1
        energies += (-c if p.letters == "YY" else c) * (1.0 - 2.0 * bits)
    return energies


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


def pauli_rotate_raw(amplitudes, source, phase, theta):
    """exp(i theta P) @ amplitudes = cos(theta)*psi + i sin(theta)*(P psi)."""
    moved = phase * amplitudes[source]
    return np.cos(theta) * amplitudes + (1j * np.sin(theta)) * moved


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
        if not abs(norm - 1.0) <= ATOL:
            raise ValueError(f"state norm {float(norm)!r} is not 1 within {ATOL}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def n_total(self) -> int:
        return self.n_data + self.n_ancilla

    def with_amplitudes(self, amplitudes: np.ndarray) -> "StateVector":
        return StateVector(self.n_data, self.n_ancilla, amplitudes)


def unit_trace_matrix(entries, what: str) -> np.ndarray:
    """``entries`` as a read-only complex matrix: square, Hermitian, of unit trace.

    Each check holds to ``ATOL`` and fails on NaN; ``ValueError`` names ``what``.
    """
    matrix = np.asarray(entries, dtype=np.complex128)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"{what} must be square, got {matrix.shape}")
    if not np.abs(matrix - matrix.conj().T).max() <= ATOL:
        raise ValueError(f"{what} is not Hermitian")
    trace = matrix.trace()
    if not abs(trace - 1.0) <= ATOL:
        raise ValueError(f"{what} trace {complex(trace)!r} deviates from 1")
    matrix.setflags(write=False)
    return matrix


@dataclass(frozen=True)
class DensityMatrix:
    """A state on the data register: Hermitian, unit trace, and no eigenvalue below
    ``EIGENVALUE_FLOOR``, which this constructor checks and nothing else does."""

    entries: np.ndarray

    def __post_init__(self):
        entries = unit_trace_matrix(self.entries, "density matrix")
        p = np.vdot(entries, entries).real
        # A unit-trace Hermitian matrix has purity >= 1/dim: only the top can fail.
        if not p <= 1.0 + 1e-9:
            raise ValueError(f"purity {float(p)!r} above 1")
        lowest = np.linalg.eigvalsh(entries)[0]
        if lowest < EIGENVALUE_FLOOR:
            raise ValueError(
                f"density matrix has eigenvalue {lowest} below {EIGENVALUE_FLOOR}"
            )
        object.__setattr__(self, "entries", entries)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @cached_property
    def sqrt(self) -> np.ndarray:
        """The read-only square root, built on first use.

        The constructor refused any eigenvalue below ``EIGENVALUE_FLOOR``; the
        rounding left in ``[EIGENVALUE_FLOOR, 0)`` is clamped to zero here.
        """
        values, vectors = np.linalg.eigh(self.entries)
        root = (vectors * np.sqrt(np.clip(values, 0.0, None))) @ vectors.conj().T
        root.setflags(write=False)
        return root


def pauli_rotation(state: StateVector, p: PauliString, theta: float) -> StateVector:
    """Return ``exp(i theta P) |psi>`` using cos/sin closed form (P^2 = 1)."""
    tables = pauli_action_tables(state.n_total, p.support, p.letters)
    return state.with_amplitudes(pauli_rotate_raw(state.amplitudes, *tables, theta))


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


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity ``(Tr sqrt(sqrt(sigma) rho sqrt(sigma)))^2``, at most 1.

    Both arguments are states, their spectra checked when they were built. A
    result above ``1 + 1e-9`` raises: a bug upstream rather than rounding, which
    is clamped. ``sqrt(sigma)`` is ``sigma``'s cached :attr:`DensityMatrix.sqrt`,
    so a fixed target pays its ``eigh`` once. Eigenvalues of ``sqrt(sigma) rho
    sqrt(sigma)`` below ``dim * eps * max`` (the ``matrix_rank`` cutoff) are dropped.
    """
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    sqrt_sigma = sigma.sqrt
    inner = sqrt_sigma @ rho.entries @ sqrt_sigma
    values = np.linalg.eigvalsh(inner)
    # Eigenvalues under the numerical-rank cutoff are rounding noise; their
    # square roots (~1e-9 each) would push F(rho, rho) above 1.
    cutoff = inner.shape[0] * np.finfo(np.float64).eps * max(values[-1], 0.0)
    value = float(np.sqrt(values[values > cutoff]).sum() ** 2)
    if not value <= FIDELITY_CEILING:
        raise ValueError(f"fidelity {value} above {FIDELITY_CEILING}")
    return min(value, 1.0)
