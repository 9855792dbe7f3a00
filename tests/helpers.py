"""Shared fixtures-in-spirit: random generators and independent brute-force oracles.

The oracles here deliberately avoid the package's grouping and projector
machinery (fresh eigh calls, rounding-based grouping, direct coefficient
loops) so that agreement between the two is a real cross-check.
"""

from __future__ import annotations

import numpy as np

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (m + m.conj().T) / 2


def random_state_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def brute_outcome_probs(psi: np.ndarray, matrix: np.ndarray, decimals: int = 9) -> dict[float, float]:
    """Outcome distribution via a fresh eigh and rounding-based grouping."""
    w, v = np.linalg.eigh(matrix)
    amps = v.conj().T @ psi
    table: dict[float, float] = {}
    for val, amp in zip(w, amps):
        key = round(float(val), decimals)
        table[key] = table.get(key, 0.0) + float(abs(amp) ** 2)
    return dict(sorted(table.items()))


def brute_joint_probs(psi: np.ndarray, factor_matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, q) for a two-factor state, by an explicit double loop."""
    w, v = np.linalg.eigh(factor_matrix)
    n = w.size
    q = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            basis = np.kron(v[:, i], v[:, j])
            q[i, j] = abs(np.vdot(basis, psi)) ** 2
    return w, q


def brute_sum_distribution(psi: np.ndarray, factor_matrix: np.ndarray, decimals: int = 9) -> dict[float, float]:
    """Distribution of a_i + a_j by enumerating the joint table."""
    w, q = brute_joint_probs(psi, factor_matrix)
    out: dict[float, float] = {}
    for i in range(w.size):
        for j in range(w.size):
            key = round(float(w[i] + w[j]), decimals)
            out[key] = out.get(key, 0.0) + q[i, j]
    return dict(sorted(out.items()))


def brute_conditional_mean(psi: np.ndarray, factor_matrix: np.ndarray, f, s_value: float, decimals: int = 9) -> float:
    """Classical conditioning of the brute-force joint table."""
    w, q = brute_joint_probs(psi, factor_matrix)
    num = 0.0
    den = 0.0
    target = round(float(s_value), decimals)
    for i in range(w.size):
        for j in range(w.size):
            if round(float(w[i] + w[j]), decimals) == target:
                num += f(w[i]) * q[i, j]
                den += q[i, j]
    if den == 0.0:
        raise ZeroDivisionError("conditioning on a zero-probability sum")
    return num / den


def reference_sample_counts(seed: int, shots: int, sum_cdf: np.ndarray, cond_cdf: np.ndarray) -> np.ndarray:
    """The sampling kernel's selection done on floats, in one unchunked pass.

    Draws the same uniforms as ``eprkit._kernels.sample_counts``, picks the
    sum outcome by ``searchsorted`` on the float cdf and the first-factor
    outcome as the first column of the selected row whose cdf exceeds the
    uniform, through a (shots x N) gather and ``argmax``.
    """
    from eprkit._kernels import uniforms

    sum_cdf = np.asarray(sum_cdf, dtype=np.float64)
    cond_cdf = np.asarray(cond_cdf, dtype=np.float64)
    d, n_out = cond_cdf.shape
    u = uniforms(seed, 2 * shots)
    s_idx = np.minimum(np.searchsorted(sum_cdf, u[0::2], side="right"), d - 1)
    a_idx = (u[1::2, None] < cond_cdf[s_idx]).argmax(axis=1)
    return np.bincount(s_idx * n_out + a_idx, minlength=d * n_out).reshape(d, n_out)
