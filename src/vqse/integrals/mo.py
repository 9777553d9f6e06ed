"""Molecular-orbital integrals, basis transformations, and core dressing.

Conventions fixed here and relied on everywhere else:

* two-electron integrals are stored in chemist notation (pq|rs) over
  spatial orbitals with 8-fold permutational symmetry;
* spatial orbital p maps to spin orbitals 2p (alpha) and 2p+1 (beta);
* the spin-orbital Hamiltonian is
  H = sum_ij h_ij a+_i a_j + 1/2 sum_ijkl h_ijkl a+_i a+_j a_k a_l
  with h_ijkl = delta(s_i,s_l) delta(s_j,s_k) (phi_i phi_l | phi_j phi_k).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..spaces import OrbitalPartition
from .gaussians import AoIntegrals


@dataclass
class MolecularIntegrals:
    n_spatial: int
    e_nuc: float
    h1: np.ndarray  # (n, n)
    eri: np.ndarray  # (n, n, n, n), chemist (pq|rs)
    core_energy_shift: float = 0.0

    def __post_init__(self):
        self.h1 = np.asarray(self.h1, dtype=float)
        self.eri = np.asarray(self.eri, dtype=float)
        n = self.n_spatial
        if self.h1.shape != (n, n):
            raise ValueError(f"h1 must be ({n}, {n}), got {self.h1.shape}")
        if self.eri.shape != (n, n, n, n):
            raise ValueError(f"eri must be rank-4 of dimension {n}, got {self.eri.shape}")

    @property
    def constant(self) -> float:
        """Scalar added to every electronic expectation value."""
        return self.e_nuc + self.core_energy_shift

    @property
    def n_spin(self) -> int:
        return 2 * self.n_spatial

    def h1_spin(self) -> np.ndarray:
        """One-body coefficients over spin orbitals."""
        n = self.n_spin
        out = np.zeros((n, n))
        out[0::2, 0::2] = self.h1
        out[1::2, 1::2] = self.h1
        return out

    def h2_spin(self) -> np.ndarray:
        """Two-body coefficients h_ijkl of a+_i a+_j a_k a_l (spin orbitals).

        The 1/2 prefactor of the Hamiltonian is NOT included.
        """
        n = self.n_spin
        sp = np.arange(n) // 2
        sz = np.arange(n) % 2
        g = self.eri[
            sp[:, None, None, None],
            sp[None, None, None, :],
            sp[None, :, None, None],
            sp[None, None, :, None],
        ]
        g = g * (sz[:, None, None, None] == sz[None, None, None, :])
        g = g * (sz[None, :, None, None] == sz[None, None, :, None])
        return g


@dataclass
class ScfResult:
    mo_coefficients: np.ndarray
    orbital_energies: np.ndarray
    scf_energy: float
    converged: bool
    n_iterations: int = 0


def transform_one(h: np.ndarray, c: np.ndarray) -> np.ndarray:
    return c.T @ h @ c


def transform_two(eri: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Four quarter transforms by an (n, m) coefficient block, O(n^4 m).

    Each step contracts the leading index with ``c`` and appends the new
    index last, so after four steps the indices are back in (ijkl) order.
    A step is one matrix product on a transposed view and copies nothing.
    """
    out = eri
    for _ in range(4):
        out = (out.reshape(out.shape[0], -1).T @ c).reshape(*out.shape[1:], c.shape[1])
    return out


def transform_to_mo(ao: AoIntegrals, mo_coefficients: np.ndarray) -> MolecularIntegrals:
    """Transform AO integrals into the basis defined by the coefficient matrix."""
    c = np.asarray(mo_coefficients, dtype=float)
    if c.ndim != 2 or c.shape[0] != ao.n or c.shape[1] != ao.n:
        raise ValueError(f"coefficient matrix must be ({ao.n}, {ao.n}), got {c.shape}")
    if np.linalg.matrix_rank(c) < ao.n:
        raise ValueError("coefficient matrix is singular")
    return MolecularIntegrals(
        n_spatial=ao.n,
        e_nuc=ao.e_nuc,
        h1=transform_one(ao.hcore, c),
        eri=transform_two(ao.eri, c),
    )


def rotate_integrals(mol: MolecularIntegrals, u: np.ndarray) -> MolecularIntegrals:
    """Apply a spatial-orbital rotation to MO integrals (same conventions).

    ``u`` is (n, m) with m <= n: its columns are the new orbitals in the
    old basis, so an n x n unitary rotates every orbital and a column
    block gives the integrals over just those m rotated orbitals.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 2 or u.shape[0] != mol.n_spatial or u.shape[1] > mol.n_spatial:
        raise ValueError(f"rotation must be ({mol.n_spatial}, m <= {mol.n_spatial}), got {u.shape}")
    return MolecularIntegrals(
        n_spatial=u.shape[1],
        e_nuc=mol.e_nuc,
        h1=transform_one(mol.h1, u),
        eri=transform_two(mol.eri, u),
        core_energy_shift=mol.core_energy_shift,
    )


def dress_core(mol: MolecularIntegrals, partition: OrbitalPartition) -> MolecularIntegrals:
    """The active-space Hamiltonian: doubly occupied core orbitals folded
    into effective integrals over the active orbitals alone.

    Returns integrals over ``partition.active``, in ascending original
    index order, with the core mean field absorbed into the one-body part
    and the core energy into ``core_energy_shift``; the virtuals are
    dropped.
    """
    if partition.n_spatial != mol.n_spatial:
        raise ValueError("partition does not match the orbital count")
    core = list(partition.core)
    keep = sorted(partition.active)
    h1, eri = mol.h1, mol.eri
    e_core = 2.0 * sum(h1[c, c] for c in core)
    for c in core:
        for cp in core:
            e_core += 2.0 * eri[c, c, cp, cp] - eri[c, cp, cp, c]
    h_eff = h1[np.ix_(keep, keep)]
    for c in core:
        h_eff += 2.0 * eri[np.ix_(keep, keep, [c], [c])][:, :, 0, 0]
        h_eff -= eri[np.ix_(keep, [c], [c], keep)][:, 0, 0, :]
    return MolecularIntegrals(
        n_spatial=len(keep),
        e_nuc=mol.e_nuc,
        h1=h_eff,
        eri=mol.eri[np.ix_(keep, keep, keep, keep)],
        core_energy_shift=mol.core_energy_shift + e_core,
    )
