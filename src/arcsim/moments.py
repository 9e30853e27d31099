"""Estimators of the double-commutator norm ||[H, [H, rho]]||.

Routes to the same quantity: the direct matrix oracle; the pure-state
formula over a block's raw moments, sqrt(6<H^2>^2 - 8<H><H^3> + 2<H^4>), or
over its centred ones, sqrt(6<H'^2>^2 + 2<H'^4>) with H' = H - <H>; and a
mixed-state finite-difference estimator whose measurement model is six
purity/overlap scalars, evaluated in closed form in H's eigenbasis (HermitianOperator.eig) in plain float64.
Measurement statistics are simulated by perturbing each scalar with
independent additive Gaussian noise; no shot-level sampling is modeled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import HermitianOperator, QuantumState, basis_coordinates, commutator, hs_norm


# Largest measurement noise std a NoiseModel, a config or --noise-std may take. numpy's
# Gaussians are below 14 in magnitude, so a perturbed moment or overlap is
# within 1.4e101 of its exact value and no radicand product (8 (1.4e101)^2 ~
# 1.6e203 for moments of that size) nears the float64 maximum, 1.8e308.
MAX_NOISE_STD = 1e100


@dataclass
class NoiseModel:
    """Additive Gaussian perturbation applied independently to each measured scalar.

    std = 0 reproduces exact values bit-for-bit (no draws are consumed).
    """

    std: float = 0.0

    def __post_init__(self):
        if not 0 <= self.std <= MAX_NOISE_STD:  # NaN fails too
            raise ValueError(f"noise std must be from 0 to {MAX_NOISE_STD:g}, got {self.std!r}")

    def perturb(self, values: np.ndarray, rng: np.random.Generator | None = None) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        if self.std == 0.0:
            return values
        if rng is None:
            raise ValueError("noise std > 0 requires a random generator")
        return values + rng.normal(0.0, self.std, size=values.shape)


EXACT = NoiseModel(0.0)
EPS = np.finfo(float).eps


def double_commutator_norm(h: HermitianOperator, state: QuantumState) -> float:
    """Exact ||[H, [H, rho]]|| by direct matrix arithmetic (the brute-force oracle)."""
    rho = state.density()
    if h.dim != state.dim:
        raise ValueError(f"dimension mismatch: operator {h.dim}, state {state.dim}")
    return hs_norm(commutator(h.matrix, commutator(h.matrix, rho)))


def power_rows(h: HermitianOperator) -> np.ndarray:
    """Rows e**0 .. e**4 of h's eigenvalues e, as (5, dim), each the previous times e."""
    values = h.eig[0]
    powers = [np.ones_like(values)]
    for _ in range(4):
        powers.append(powers[-1] * values)
    return np.array(powers)


def squared_moduli(coords: np.ndarray) -> np.ndarray:
    """|c|**2 of every entry, the weights that moments_of_weights takes."""
    return coords.real * coords.real + coords.imag * coords.imag


def moments_of_weights(powers: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Moments <H^k>, k = 1..4 (rows), of every column of a block, from one product.

    `powers` is power_rows(h) and `weights` the squared_moduli of the block's
    basis_coordinates under h: <H^k> = sum_i w_i e_i^k / sum_i w_i, with all
    five sums in one product, stacked as five (1, dim) @ (dim, M) rows so that
    every sum of a column runs in the same order (a single (5, dim) GEMM may
    take its last row through another kernel). On an eigenstate whose
    eigenvalue is 0 or a power of two each ratio is therefore that
    eigenvalue's power exactly, and the double-commutator radicand is exactly 0.
    """
    sums = np.matmul(powers[:, None, :], weights)[:, 0]
    return sums[1:] / sums[0]


def moment_block(h: HermitianOperator, coords: np.ndarray) -> np.ndarray:
    """Moments <H^k>, k = 1..4 (rows), of every column of a block, from its basis_coordinates under h.

    The engine calls moments_of_weights with its power rows and weights built once.
    """
    return moments_of_weights(power_rows(h), squared_moduli(coords))


def norms_from_moments(moments: np.ndarray) -> np.ndarray:
    """Pure-state formula sqrt(6 m2^2 - 8 m1 m3 + 2 m4) over the last axis (m1..m4).

    A radicand at most 64 eps (6 m2^2 + 8 |m1 m3| + 2 |m4|), the rounding bound
    of its three terms, is 0, measured or perturbed: for a term with large
    eigenvalues they cancel to rounding, and a term that commutes with the
    state would get a norm of up to 1e-2 (Kerr and Rabi Fock states).
    """
    m1, m2, m3, m4 = np.moveaxis(moments, -1, 0)
    a, b, c = 6.0 * m2 * m2, 8.0 * m1 * m3, 2.0 * m4
    radicand = a - b + c
    return np.sqrt(np.where(radicand <= 64 * EPS * (a + np.abs(b) + np.abs(c)), 0.0, radicand))


def centred_moments(h: HermitianOperator, block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """<H'^2> and <H'^4>, H' = H - <H>, of every column of a (dim, n) block of states.

    Sums of w dev^k, w the per-column normalized squared_moduli of the block's basis_coordinates
    under h and dev = e - sum(w e): exactly 0 on a basis state of a diagonal h, unlike raw moments.
    """
    values = h.eig[0][:, None]
    w = squared_moduli(basis_coordinates(h, block))
    w /= w.sum(axis=0)
    dev = values - (w * values).sum(axis=0)
    dev *= dev
    w *= dev
    return w.sum(axis=0), (w * dev).sum(axis=0)


def double_commutator_norms(h: HermitianOperator, block: np.ndarray) -> np.ndarray:
    """||[H, [H, rho]]|| = sqrt(6 <H'^2>^2 + 2 <H'^4>) for each pure state rho, a column of the block."""
    m2, m4 = centred_moments(h, block)
    return np.sqrt(6.0 * m2 * m2 + 2.0 * m4)


# Weights w of the six measured scalars Tr(r1 r1), Tr(r2 r2), Tr(r0 r0),
# Tr(r1 r2), Tr(r1 r0), Tr(r2 r0) in ||r1 + r2 - 2 r0||^2 = w . scalars.
FD_WEIGHTS = np.array([1.0, 1.0, 4.0, 2.0, -4.0, -4.0])


def norm_finite_difference(
    h: HermitianOperator, rho: QuantumState, dt: float = 1e-3, errors: np.ndarray | None = None
) -> float:
    """Mixed-state estimator ||rho1 + rho2 - 2 rho|| / dt^2 from six measured scalars.

    rho1 = exp(+iH dt) rho exp(-iH dt) and rho2 its time reverse. The squared
    norm is FD_WEIGHTS . s over three purities and three pairwise overlaps s,
    and `errors`, the six scalars' additive measurement errors in that order,
    add FD_WEIGHTS . errors. The exact part is evaluated in h's eigenbasis,
    with r = V^dag rho V and w_ab = e_a - e_b, as
    16 sum_ab sin^4(w_ab dt / 2) |r_ab|^2: a sum of nonnegative terms, so
    float64 holds it to rounding at any dt. Error falls off as O(dt^2).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if h.dim != rho.dim:
        raise ValueError(f"dimension mismatch: operator {h.dim}, state {rho.dim}")
    values, vectors = h.eig
    r = rho.density()
    if vectors is not None:
        r = vectors.conj().T @ r @ vectors
    s = np.sin((values[:, None] - values) * (dt / 2))
    s *= s
    radicand = 16.0 * float(np.sum(s * s * (r.real * r.real + r.imag * r.imag)))
    if errors is not None:
        radicand += float(FD_WEIGHTS @ errors)
    return math.sqrt(max(radicand, 0.0)) / dt**2
