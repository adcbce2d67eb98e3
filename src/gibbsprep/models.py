"""Problem Hamiltonians and normalized thermal-state targets.

Hamiltonians are stored as real linear combinations of Pauli words and
diagonalized lazily. The dense matrix is cached on the operator at first use;
the eigendecomposition is cached per operator value (:func:`_eigensystem`), so
equal operators built apart pay one ``eigh`` per process.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .simcore import DensityMatrix, PauliString, pauli_action_tables

TARGET_TRACE_ATOL = 1e-10
TARGET_HERMITICITY_ATOL = 1e-10


@dataclass(frozen=True)
class HermitianOperator:
    """Real-weighted sum of Pauli words on ``n_qubits`` qubits."""

    n_qubits: int
    terms: tuple[tuple[float, PauliString], ...]

    def __post_init__(self):
        terms = tuple((float(c), p) for c, p in self.terms)
        for c, p in terms:
            if not np.isfinite(c):
                raise ValueError(f"non-finite coefficient {c}")
            if p.support[-1] >= self.n_qubits:
                raise ValueError(
                    f"term {p.label} out of range for {self.n_qubits} qubits"
                )
        object.__setattr__(self, "terms", terms)

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits

    @cached_property
    def matrix(self) -> np.ndarray:
        """Dense matrix built term by term from signed basis permutations."""
        dense = np.zeros((self.dim, self.dim), dtype=np.complex128)
        rows = np.arange(self.dim)
        for c, p in self.terms:
            source, phase = pauli_action_tables(self.n_qubits, p.support, p.letters)
            dense[rows, source] += c * phase
        dense.setflags(write=False)
        return dense

    @cached_property
    def diagonal(self) -> np.ndarray | None:
        """The matrix's real diagonal if every term is a Z word, else None."""
        if any(set(p.letters) != {"Z"} for _, p in self.terms):
            return None
        return self.matrix.diagonal().real

    @cached_property
    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending eigenvalues and orthonormal eigenvectors, one per operator value."""
        return _eigensystem(self)

    @cached_property
    def terms_commute(self) -> bool:
        """True iff all Pauli terms mutually commute (checked once per operator)."""
        words = [p for _, p in self.terms]
        return all(
            a.commutes_with(b) for i, a in enumerate(words) for b in words[i + 1 :]
        )


@cache
def _eigensystem(operator: HermitianOperator) -> tuple[np.ndarray, np.ndarray]:
    """``eigh`` of the matrix, read-only, once per process per operator value.

    A model and its data-register copy in a layered cost gate share it.
    """
    values, vectors = np.linalg.eigh(operator.matrix)
    values.setflags(write=False)
    vectors.setflags(write=False)
    return values, vectors


def ising_hamiltonian(n_data: int) -> HermitianOperator:
    """Periodic Ising chain ``-sum_i Z_i Z_{i+1}`` on the data register.

    One term per bond (``n_data`` of them, wrapping around), each with
    coefficient -1; at ``n_data = 2`` the wrap-around duplicates the single
    edge, so the dense matrix aggregates to ``-2 ZZ``.
    """
    if n_data < 2:
        raise ValueError("Ising chain needs at least 2 sites")
    terms = []
    for i in range(n_data):
        a, b = sorted((i, (i + 1) % n_data))
        terms.append((-1.0, PauliString((a, b), "ZZ")))
    return HermitianOperator(n_data, tuple(terms))


def xy_hamiltonian(n_data: int) -> HermitianOperator:
    """Periodic XY chain ``-sum_i (X_i X_{i+1} + Y_i Y_{i+1})``."""
    if n_data < 2:
        raise ValueError("XY chain needs at least 2 sites")
    terms = []
    for i in range(n_data):
        a, b = sorted((i, (i + 1) % n_data))
        terms.append((-1.0, PauliString((a, b), "XX")))
        terms.append((-1.0, PauliString((a, b), "YY")))
    return HermitianOperator(n_data, tuple(terms))


def entangling_hamiltonian(n_data: int) -> HermitianOperator:
    """``sum_k (XX + YY + ZZ)`` between data qubit k and ancilla qubit k.

    Acts on the full 2*n_data register; its unique ground state is the
    product of singlets across the pairs, with energy ``-3 * n_data``.
    """
    if n_data < 1:
        raise ValueError("need at least one data/ancilla pair")
    terms = []
    for k in range(n_data):
        pair = (k, n_data + k)
        for letters in ("XX", "YY", "ZZ"):
            terms.append((1.0, PauliString(pair, letters)))
    return HermitianOperator(2 * n_data, tuple(terms))


def joint_problem_hamiltonian(h_data: HermitianOperator) -> HermitianOperator:
    """``H (x) 1 + 1 (x) H``: the problem Hamiltonian on both registers."""
    n = h_data.n_qubits
    on_ancillas = tuple(
        (c, PauliString(tuple(q + n for q in p.support), p.letters))
        for c, p in h_data.terms
    )
    return HermitianOperator(2 * n, h_data.terms + on_ancillas)


@dataclass(frozen=True)
class GibbsTarget:
    """Normalized target operator: exact ``exp(-beta H)/Z`` or its Taylor surrogate.

    ``eigenvalues`` are stored in descending order. In truncated mode they
    may be negative (the surrogate need not be a state); that is flagged via
    :attr:`has_negative_eigenvalues`, not treated as an error.
    """

    mode: str  # "exact" | "truncated"
    matrix: np.ndarray
    eigenvalues: np.ndarray

    def __post_init__(self):
        if self.mode not in ("exact", "truncated"):
            raise ValueError(f"unknown mode {self.mode!r}")
        matrix = np.asarray(self.matrix, dtype=np.complex128)
        if abs(matrix.trace() - 1.0) > TARGET_TRACE_ATOL:
            raise ValueError("target trace deviates from 1")
        if np.abs(matrix - matrix.conj().T).max() > TARGET_HERMITICITY_ATOL:
            raise ValueError("target is not Hermitian")
        if self.mode == "exact" and self.eigenvalues[-1] <= 0:
            raise ValueError("exact target must have strictly positive spectrum")
        matrix.setflags(write=False)
        eigs = np.asarray(self.eigenvalues, dtype=np.float64)
        eigs.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "eigenvalues", eigs)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def has_negative_eigenvalues(self) -> bool:
        return bool(self.eigenvalues[-1] < 0)

    @cached_property
    def _density_matrix(self) -> DensityMatrix:
        if self.has_negative_eigenvalues:
            raise ValueError("surrogate with negative spectrum is not a state")
        return DensityMatrix(self.matrix)

    def as_density_matrix(self) -> DensityMatrix:
        """The target as a state; one object per target, built on first use.

        Every fidelity against the target then reuses one square root
        (:attr:`~gibbsprep.simcore.DensityMatrix.sqrt`).
        """
        return self._density_matrix


def gibbs_state(hamiltonian: HermitianOperator, beta: float) -> GibbsTarget:
    """Exact thermal state ``exp(-beta H) / Z`` with its spectrum cached."""
    if not np.isfinite(beta) or beta < 0:
        raise ValueError(f"beta must be finite and >= 0, got {beta}")
    values, vectors = hamiltonian.eigensystem
    # Shift by the ground energy so the exponentials stay in range.
    weights = np.exp(-beta * (values - values[0]))
    return _spectral_target("exact", vectors, weights / weights.sum())


def _spectral_target(mode: str, vectors: np.ndarray, values: np.ndarray) -> GibbsTarget:
    """``V diag(values) V^dagger``, symmetrized, with ``values`` sorted descending."""
    matrix = (vectors * values) @ vectors.conj().T
    matrix = (matrix + matrix.conj().T) / 2
    return GibbsTarget(mode, matrix, np.sort(values)[::-1])


def _taylor_partial_sum(x: np.ndarray, m: int) -> np.ndarray:
    """sum_{n=0..m} x^n / n!, accumulated termwise for stability."""
    total = np.ones_like(x)
    term = np.ones_like(x)
    for n in range(1, m + 1):
        term = term * x / n
        total = total + term
    return total


def truncated_target(
    hamiltonian: HermitianOperator, beta: float, m: int
) -> GibbsTarget:
    """Order-``m`` Taylor surrogate for ``exp(-beta H)``, divided by its trace.

    Powers of H are evaluated in the cached eigenbasis. Raises when the trace
    of the truncated series is non-positive, which signals the caller to
    raise the order.
    """
    if m < 0:
        raise ValueError("truncation order must be >= 0")
    if not np.isfinite(beta) or beta < 0:
        raise ValueError(f"beta must be finite and >= 0, got {beta}")
    values, vectors = hamiltonian.eigensystem
    series = _taylor_partial_sum(-beta * values, m)
    total = series.sum()
    if total <= 0:
        raise ValueError(
            f"truncated series trace {total} <= 0 at (beta={beta}, m={m}); "
            "raise the truncation order"
        )
    return _spectral_target("truncated", vectors, series / total)


def max_fidelity_bound(target: GibbsTarget, n_ancilla: int) -> float:
    """Best achievable fidelity with a purifying register of ``n_ancilla`` qubits.

    The reduced state of a pure state on D+A has rank at most 2^n_ancilla,
    and the optimum over such states is the sum of the top 2^n_ancilla
    target eigenvalues.
    """
    if target.mode != "exact":
        raise ValueError("fidelity bound is defined for exact targets")
    if n_ancilla < 0:
        raise ValueError("n_ancilla must be >= 0")
    k = min(1 << n_ancilla, target.dim)
    return float(target.eigenvalues[:k].sum())
