"""The CMV matrix of a Verblunsky draw (Cantero, Moral & Velazquez) and its
eigenangles: an eigensolve oracle for the Szego-recursion path, shared by
the test modules."""

import math

import numpy as np

from cuechaos import EigenSample, VerblunskySample

TWO_PI = 2.0 * math.pi


def cmv_matrix(alphas: np.ndarray) -> np.ndarray:
    """C = L M with L = Theta_0 + Theta_2 + ..., M = 1 + Theta_1 + Theta_3 + ...
    (direct sums), Theta_k = [[conj a_k, rho_k], [rho_k, -a_k]], and the last
    block the 1 x 1 [conj a_{n-1}]; det(z - C) = Phi_n(z)."""
    n = alphas.size

    def blocks(first: int) -> np.ndarray:
        out = np.zeros((n, n), dtype=complex)
        if first == 1:
            out[0, 0] = 1.0
        for k in range(first, n, 2):
            a = alphas[k]
            if k == n - 1:
                out[k, k] = np.conj(a)
            else:
                rho = math.sqrt(1.0 - abs(a) ** 2)
                out[k : k + 2, k : k + 2] = [[np.conj(a), rho], [rho, -a]]
        return out

    return blocks(0) @ blocks(1)


def eigen_oracle(sample: VerblunskySample) -> EigenSample:
    """The eigenangles of the CMV matrix built from the sample's coefficients."""
    cmv = cmv_matrix(sample.alphas)
    assert np.allclose(cmv @ cmv.conj().T, np.eye(sample.n), atol=1e-12)
    angles = np.mod(np.angle(np.linalg.eigvals(cmv)), TWO_PI)
    return EigenSample(sample.n, np.sort(angles))
