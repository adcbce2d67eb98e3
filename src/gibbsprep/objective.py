"""Entropy-free objective, two-state auxiliary form, and shift-rule gradients.

The objective is ``C(rho) = -Tr(T rho) + Tr(rho^2)/2`` for a normalized target
operator T. With an exact thermal target it equals
``||rho - T||_F^2 / 2 - Tr(T^2)/2``, so its unique minimizer is T itself; with
a truncated surrogate the same quadratic form is optimized as-is.

The gradients here use the parameter-shift identity through the auxiliary
function ``aux(theta, phi) = -Tr(T rho(theta)) + Tr(rho(theta) rho(phi))``:
for a parameter whose generator is i*P with P a Pauli word (two eigenvalues,
+-1, hence shift radius pi/4), the derivative of C at theta equals
``aux(theta + pi/4, theta) - aux(theta - pi/4, theta)``.  The rule is exact
for such generators, not a finite-difference approximation, and it is the
rule a quantum device can measure.

The optimizer and the pool scan do not use these functions: they take the
adjoint (reverse-pass) gradient of :func:`gibbsprep.adapt.ansatz_value_and_gradient`,
which costs one pass over the layers. The shift rule is kept as the oracle
that the tests and ``gibbsprep gradcheck`` compare the adjoint engine with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .models import GibbsTarget, HermitianOperator
from .simcore import (
    DensityMatrix,
    PauliString,
    StateVector,
    partial_trace_ancilla,
    pauli_rotation,
)

PrepareFn = Callable[[np.ndarray], StateVector]


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


def shift_gradient(
    prepare: PrepareFn,
    index: int,
    params: np.ndarray,
    ctx: ObjectiveContext,
) -> float:
    """dC/dparams[index] via the two-point shift rule with radius pi/4.

    The caller guarantees that the parameter multiplies a single Pauli word
    ``i*P``. Sums of commuting words must be decomposed first, see
    :func:`sum_generator_gradient`.
    """
    params = np.asarray(params, dtype=np.float64)
    base = prepare(params)
    plus = params.copy()
    plus[index] += np.pi / 4
    minus = params.copy()
    minus[index] -= np.pi / 4
    return float(
        auxiliary_objective(prepare(plus), base, ctx)
        - auxiliary_objective(prepare(minus), base, ctx)
    )


def candidate_gradient(
    state: StateVector, p: PauliString, ctx: ObjectiveContext
) -> float:
    """dC/dtheta at theta = 0 for appending ``exp(i theta P)`` to ``state``."""
    plus = pauli_rotation(state, p, np.pi / 4)
    minus = pauli_rotation(state, p, -np.pi / 4)
    return float(
        auxiliary_objective(plus, state, ctx)
        - auxiliary_objective(minus, state, ctx)
    )


def sum_generator_gradient(
    state: StateVector,
    operator: HermitianOperator,
    ctx: ObjectiveContext,
) -> float:
    """Gradient for appending ``exp(i alpha H)`` with H a commuting Pauli sum.

    Because the terms commute, the exponential factorizes and the derivative
    is the coefficient-weighted sum of per-term candidate gradients.
    """
    if not operator.terms_commute():
        raise ValueError("generator terms do not mutually commute")
    return float(
        sum(c * candidate_gradient(state, p, ctx) for c, p in operator.terms)
    )
