"""Random channels, Hermitian matrices and near-boundary POVMs for the test suite."""

import numpy as np

from cleanpovm.channel import KrausChannel
from cleanpovm.linalg import haar_unitary, hermitian_part
from cleanpovm.povm import random_split_povm, validate
from reference import psd_sqrt


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return hermitian_part(z)


def random_channel(dim: int, n_kraus: int, rng: np.random.Generator) -> KrausChannel:
    """Random channel: Ginibre Kraus operators renormalized to satisfy closure."""
    gs = [
        (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
        for _ in range(n_kraus)
    ]
    total = hermitian_part(sum(g.conj().T @ g for g in gs))
    w, v = np.linalg.eigh(total)
    inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    return KrausChannel.build([g @ inv_sqrt for g in gs])


def near_identity_channel(dim: int, epsilon: float, rng: np.random.Generator) -> KrausChannel:
    """Channel whose first Kraus operator sits at HS distance exactly ``epsilon`` from 1.

    ``K_1 = 1 - eps T`` with T PSD of unit HS norm; the deficit
    ``1 - K_1^dagger K_1 = 2 eps T - eps^2 T^2`` is PSD for eps <= 2 and is
    absorbed into a second Kraus operator (rotated by a random unitary).
    """
    if not 0 < epsilon <= 1:
        raise ValueError("epsilon must be in (0, 1]")
    t = hermitian_part(
        (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    )
    t = t @ t.conj().T
    t = t / np.linalg.norm(t)
    k1 = np.eye(dim) - epsilon * t
    deficit = hermitian_part(np.eye(dim) - k1.conj().T @ k1)
    k2 = haar_unitary(dim, rng) @ psd_sqrt(deficit)
    return KrausChannel.build([k1, k2])


def near_boundary_povm(i: int, delta: float):
    """A planted qutrit split whose rank-one supports are moved by about delta."""
    p = random_split_povm(3, 1, 2, 2, [3, 3, i], oblique=bool(i % 2))
    rng = np.random.default_rng([9, i])
    mats = [e.matrix for e in p.elements]
    for j, e in enumerate(p.elements):
        if e.rank == 1:
            k = e.support + delta * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
            k = k / np.linalg.norm(k)
            mats[j] = e.weight * np.outer(k, k.conj())
    first_full = next(j for j, e in enumerate(p.elements) if e.rank == 3)
    mats[first_full] = np.eye(3) - sum(m for j, m in enumerate(mats) if j != first_full)
    return validate(mats)
