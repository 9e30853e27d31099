"""Estimators of the double-commutator norm ||[H, [H, rho]]||.

Three routes to the same quantity: the direct matrix oracle, the pure-state
moment formula sqrt(6<H^2>^2 - 8<H><H^3> + 2<H^4>), and a mixed-state
finite-difference estimator assembled from six purity/overlap scalars.
Measurement statistics are simulated by perturbing each scalar with
independent additive Gaussian noise; no shot-level sampling is modeled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    HermitianOperator,
    QuantumState,
    commutator,
    eigenbasis,
    evolve_unitary,
    hs_norm,
)


@dataclass
class NoiseModel:
    """Additive Gaussian perturbation applied independently to each measured scalar.

    std = 0 reproduces exact values bit-for-bit (no draws are consumed).
    """

    std: float = 0.0

    def __post_init__(self):
        if self.std < 0:
            raise ValueError("noise std must be nonnegative")

    def perturb(self, values: np.ndarray, rng: np.random.Generator | None = None) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        if self.std == 0.0:
            return values
        if rng is None:
            raise ValueError("noise std > 0 requires a random generator")
        return values + rng.normal(0.0, self.std, size=values.shape)


EXACT = NoiseModel(0.0)


def double_commutator_norm(h: HermitianOperator, state: QuantumState) -> float:
    """Exact ||[H, [H, rho]]|| by direct matrix arithmetic (the brute-force oracle)."""
    rho = state.density()
    if h.dim != state.dim:
        raise ValueError(f"dimension mismatch: operator {h.dim}, state {state.dim}")
    return hs_norm(commutator(h.matrix, commutator(h.matrix, rho)))


def moment_block(h: HermitianOperator, coords: np.ndarray) -> np.ndarray:
    """Moments <H^k>, k = 1..4 (rows), of every column of a block of pure states.

    Takes the block's basis_coordinates c under h, so one basis change serves
    all four moments: <H^k> = sum_i |c_i|^2 e_i^k / sum_i |c_i|^2. Every sum
    runs in the same order, so on an eigenstate whose eigenvalue is 0 or a
    power of two each ratio is that eigenvalue's power exactly, and the
    double-commutator radicand is exactly 0.
    """
    values, _ = eigenbasis(h)
    weights = coords.real * coords.real + coords.imag * coords.imag
    power = np.ones_like(values)
    total = power @ weights
    moments = np.empty((4, weights.shape[1]))
    for k in range(4):
        power = power * values
        moments[k] = (power @ weights) / total
    return moments


def norms_from_moments(moments: np.ndarray) -> np.ndarray:
    """Pure-state formula sqrt(6 m2^2 - 8 m1 m3 + 2 m4) over the last axis (m1..m4).

    The radicand is clamped at 0.
    """
    m1, m2, m3, m4 = np.moveaxis(moments, -1, 0)
    radicand = 6.0 * m2 * m2 - 8.0 * m1 * m3 + 2.0 * m4
    return np.sqrt(np.maximum(radicand, 0.0))


def _tr_product(a: np.ndarray, b: np.ndarray) -> np.longdouble:
    # Extended-precision Tr(ab): the six scalars cancel down to O(dt^4), so
    # float64 accumulation would dominate the estimator error at small dt.
    return np.einsum("ij,ji->", a.astype(np.clongdouble), b.astype(np.clongdouble)).real


def norm_finite_difference(
    h: HermitianOperator,
    rho: QuantumState,
    dt: float = 1e-3,
    noise: NoiseModel = EXACT,
    rng: np.random.Generator | None = None,
) -> float:
    """Mixed-state estimator ||rho1 + rho2 - 2 rho|| / dt^2 from six measured scalars.

    rho1 = exp(+iH dt) rho exp(-iH dt) and rho2 its time reverse; the three
    purities and three pairwise overlaps are each perturbed independently
    before assembly. Error falls off as O(dt^2).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if h.dim != rho.dim:
        raise ValueError(f"dimension mismatch: operator {h.dim}, state {rho.dim}")
    r0 = rho.density()
    r1 = evolve_unitary(rho, h, -dt).density()
    r2 = evolve_unitary(rho, h, dt).density()
    scalars = np.array(
        [
            _tr_product(r1, r1),
            _tr_product(r2, r2),
            _tr_product(r0, r0),
            _tr_product(r1, r2),
            _tr_product(r1, r0),
            _tr_product(r2, r0),
        ],
        dtype=np.longdouble,
    )
    weights = np.array([1.0, 1.0, 4.0, 2.0, -4.0, -4.0], dtype=np.longdouble)
    if noise.std > 0.0:
        scalars = noise.perturb(scalars.astype(float), rng).astype(np.longdouble)
    radicand = float(weights @ scalars)
    return float(np.sqrt(max(radicand, 0.0)) / dt**2)
