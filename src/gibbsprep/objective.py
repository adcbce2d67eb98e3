"""Entropy-free objective, two-state auxiliary form, and the shift-rule oracle.

The objective is ``C(rho) = -Tr(T rho) + Tr(rho^2)/2`` for a normalized target
operator T. With an exact thermal target it equals
``||rho - T||_F^2 / 2 - Tr(T^2)/2``, so its unique minimizer is T itself; with
a truncated surrogate the same quadratic form is optimized as-is.

:func:`shift_rule_gradient` is the parameter-shift oracle. Through
``aux(theta, phi) = -Tr(T rho(theta)) + Tr(rho(theta) rho(phi))``, a rotation
``exp(i theta P)`` by a Pauli word P (eigenvalues +-1, shift radius pi/4) has
``dC/dtheta = aux(theta + pi/4, theta) - aux(theta - pi/4, theta)``: exact, not
a finite difference, and measurable on a device. The optimizer and the pool
scan take the adjoint gradient of :func:`gibbsprep.adapt.ansatz_value_and_gradient`
instead; the tests and ``gibbsprep gradcheck`` check it against this oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import GibbsTarget
from .simcore import (
    DensityMatrix,
    StateVector,
    partial_trace_ancilla,
    pauli_action_tables,
    pauli_rotate_raw,
)


@dataclass(frozen=True)
class ObjectiveContext:
    """Target plus register shape; the target acts on the data register."""

    target: GibbsTarget
    n_data: int
    n_ancilla: int

    def __post_init__(self):
        if self.target.dim != 1 << self.n_data:
            raise ValueError(
                f"target dimension {self.target.dim} does not match "
                f"2^{self.n_data} data qubits"
            )


def objective(rho: DensityMatrix, ctx: ObjectiveContext) -> float:
    """C(rho) = -Tr(T rho) + Tr(rho^2)/2."""
    if rho.dim != ctx.target.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {ctx.target.dim}")
    return objective_raw(rho.entries, ctx)


def objective_raw(rho: np.ndarray, ctx: ObjectiveContext) -> float:
    """:func:`objective` of a raw ``(2^n_data, 2^n_data)`` array, unchecked."""
    cross = np.einsum("ij,ji->", ctx.target.matrix, rho).real
    return float(-cross + 0.5 * np.vdot(rho, rho).real)


def auxiliary_objective(
    state_theta: StateVector, state_phi: StateVector, ctx: ObjectiveContext
) -> float:
    """aux(theta, phi) = -Tr(T rho(theta)) + Tr(rho(theta) rho(phi))."""
    if (state_theta.n_data, state_theta.n_ancilla) != (
        state_phi.n_data,
        state_phi.n_ancilla,
    ):
        raise ValueError("register shapes differ between the two states")
    rho_theta = partial_trace_ancilla(state_theta).entries
    rho_phi = partial_trace_ancilla(state_phi).entries
    cross = np.einsum("ij,ji->", ctx.target.matrix, rho_theta).real
    overlap = np.einsum("ij,ji->", rho_theta, rho_phi).real
    return float(-cross + overlap)


def shift_rule_gradient(ansatz, params: np.ndarray, ctx: ObjectiveContext) -> np.ndarray:
    """dC/dparams of ``ansatz`` at ``params`` by the two-point shift rule.

    Reads only ``ansatz.reference`` and ``ansatz.gates``. Gate ``k`` unrolls
    into the rotations ``exp(i params[k] c_j P_j)`` of its commuting ``terms``
    (a cost gate whose terms do not commute raises ``ValueError``), and each
    word's ``aux(+pi/4) - aux(-pi/4)`` against the unshifted state adds
    ``c_j`` times itself to ``params[k]``. A pool operator's candidate
    gradient at a state is the entry of the one-gate ansatz on it at 0.
    """
    reference = ansatz.reference
    tables, owners, scales = [], [], []
    for k, gate in enumerate(ansatz.gates):
        for c, p in gate.terms:
            tables.append(pauli_action_tables(reference.n_total, p.support, p.letters))
            owners.append(k)
            scales.append(c)
    params = np.asarray(params, dtype=np.float64)
    angles = (params[owners] * scales).tolist()

    def run(amps: np.ndarray, start: int) -> np.ndarray:
        for word, theta in zip(tables[start:], angles[start:]):
            amps = pauli_rotate_raw(amps, *word, theta)
        return amps

    base = reference.with_amplitudes(run(reference.amplitudes, 0))
    weighted = []
    amps = reference.amplitudes  # the input of word i
    for i, (word, scale, theta) in enumerate(zip(tables, scales, angles)):
        plus, minus = (
            reference.with_amplitudes(run(pauli_rotate_raw(amps, *word, theta + s), i + 1))
            for s in (np.pi / 4, -np.pi / 4)
        )
        aux_plus, aux_minus = (auxiliary_objective(x, base, ctx) for x in (plus, minus))
        weighted.append(scale * (aux_plus - aux_minus))
        amps = pauli_rotate_raw(amps, *word, theta)
    return np.bincount(owners, weights=weighted, minlength=params.size)
