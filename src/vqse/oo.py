"""Orbital relaxation of active-space solutions over the full orbital set.

The energy is a functional of the active 1-/2-RDMs embedded into the full
space (doubly occupied core, empty virtuals) and of a one-body orbital
rotation U = U0 exp(kappa), with kappa antisymmetric over the
non-redundant (active, core or virtual) spatial pairs.  The relaxation
takes second-order steps in kappa (Helgaker, Jorgensen & Olsen,
Molecular Electronic-Structure Theory, ch. 10): the orbital gradient is
read off the generalized Fock matrix, the Hessian is its symmetrized
forward difference, and the augmented-Hessian (rational-function) step
of Sun, Yang & Chan (CPL 683, 291 (2017)), capped in length, goes
downhill from a saddle as well as from a slope.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .exceptions import VqseError
from .integrals import MolecularIntegrals, rotate_integrals
from .rdm import Rdm, composite_full_rdms, energy_from_rdms
from .spaces import OrbitalPartition, spatial_to_spin

UNITARITY_TOL = 1e-8
MAX_STEP = 0.5  # rad, norm of one step's kappa
HESSIAN_SHIFT = 1e-5  # rad, forward-difference step of the Hessian
STEP_TOL = 1e-7  # rad; a shorter step ends the relaxation
BACKTRACKS = 5  # tries of a step, halved after each, before the relaxation ends
MAX_STEPS = 50  # iterations of one relaxation


@dataclass
class RelaxationReport:
    initial_energy: float
    final_energy: float
    sweep_energies: list  # after each accepted step, non-increasing
    n_sweeps: int = 0  # step iterations
    n_evaluations: int = 0  # energies plus gradients


def occupied_support(rdm1: Rdm) -> np.ndarray:
    """Spatial orbitals with nonzero occupation in the spin-orbital 1-RDM.

    For an N-representable state a zero occupation <a+_p a_p> = |a_p Psi|^2
    means a_p Psi = 0, so every 1- and 2-RDM element with an index on p
    vanishes: the RDMs have no weight outside this support.
    """
    occupation = np.abs(np.diagonal(rdm1.tensor)).reshape(-1, 2).sum(axis=1)
    return np.flatnonzero(occupation)


def _occupied_blocks(rdm1: Rdm, rdm2: Rdm):
    """(support, rdm1 block, rdm2 block): the RDMs sliced to the spin
    orbitals of their ``occupied_support``."""
    support = occupied_support(rdm1)
    spin = np.array(spatial_to_spin(support), dtype=int)
    block1 = Rdm(1, spin.size, rdm1.tensor[np.ix_(spin, spin)])
    block2 = Rdm(2, spin.size, rdm2.tensor[np.ix_(spin, spin, spin, spin)])
    return support, block1, block2


def energy_of_rotation(u, mol: MolecularIntegrals, rdm1: Rdm, rdm2: Rdm) -> float:
    """Energy of the rotated orbitals with the state held fixed.

    ``u`` is a spatial unitary; the integrals are transformed by U and
    contracted with the untouched RDMs.
    Only the occupied columns of U enter: the RDMs are sliced to their
    support (``occupied_support``) and the integrals are rotated by the
    column block U[:, support], which costs O(n^4 m) for m occupied
    orbitals and builds a (2m)^4 spin tensor instead of a (2n)^4 one.

    ``u`` may also be that column block itself, n x m with orthonormal
    columns, with ``rdm1`` and ``rdm2`` already the blocks over its 2m spin
    orbitals; the relaxation slices the fixed RDMs once and passes them so.
    """
    u = np.asarray(u)
    if not np.allclose(u.conj().T @ u, np.eye(u.shape[1]), rtol=0.0, atol=UNITARITY_TOL):
        raise VqseError("rotation matrix is not unitary")
    if rdm1.n == 2 * u.shape[0]:
        support, rdm1, rdm2 = _occupied_blocks(rdm1, rdm2)
        u = u[:, support]
    c = u.real if np.isrealobj(mol.h1) else u
    return energy_from_rdms(rotate_integrals(mol, c), rdm1, rdm2)


def spin_summed_rdms(block1: Rdm, block2: Rdm):
    """(gamma, Gamma) over m spatial orbitals from spin-orbital RDMs over
    their 2m spin orbitals: gamma_pq = sum_s D1[ps, qs] and
    Gamma_pqrs = sum_st D2[rt, ps, st, qs], so that the electronic energy
    is sum h_pq gamma_pq + 1/2 sum (pq|rs) Gamma_pqrs.  Real orbital
    rotations of real integrals see only their real parts."""
    m = block1.n // 2
    d1 = block1.tensor.real.reshape(m, 2, m, 2)
    d2 = block2.tensor.real.reshape((m, 2) * 4)
    return np.einsum("pSqS->pq", d1), np.einsum("rTpSsTqS->pqrs", d2)


def orbital_gradient(u, mol: MolecularIntegrals, support, gamma, big_gamma) -> np.ndarray:
    """g_pq = 2 (F_pq - F_qp) = dE/dkappa_pq of E(U exp(kappa)) at kappa = 0,
    with kappa_qp = -kappa_pq, from the generalized Fock matrix
    F_pq = sum_r h_pr gamma_qr + sum_rst (pr|st) Gamma_qrst in the
    orbitals U.  ``gamma`` and ``big_gamma`` are ``spin_summed_rdms`` over
    the ``support`` orbitals, so F has nonzero columns only there."""
    n = mol.n_spatial
    rotated = rotate_integrals(mol, u)
    eri = rotated.eri[np.ix_(range(n), support, support, support)]
    f = np.zeros((n, n))
    f[:, support] = rotated.h1[:, support] @ gamma.T + np.einsum(
        "prst,qrst->pq", eri, big_gamma
    )
    return 2 * (f - f.T)


def rotation_pairs(partition: OrbitalPartition):
    """Non-redundant rotation pairs: active (outer, ascending) against
    core-then-virtual partners (inner, ascending)."""
    partners = list(partition.core) + list(partition.virtual)
    return tuple((i, b) for i in partition.active for b in partners)


def _rfo_step(g: np.ndarray, hessian: np.ndarray) -> np.ndarray:
    """Rational-function step: (v, t), the lowest eigenvector of the
    augmented Hessian [[H, g], [g, 0]], gives v / t = -(H - lambda)^-1 g
    with H - lambda positive definite, downhill whatever the curvature.
    It is scaled to at most MAX_STEP; at a stationary point of negative
    curvature t = 0 and the step runs MAX_STEP along v."""
    m = g.size
    augmented = np.zeros((m + 1, m + 1))
    augmented[:m, :m] = hessian
    augmented[:m, m] = augmented[m, :m] = g
    vectors = np.linalg.eigh(augmented)[1]
    v, t = vectors[:m, 0], vectors[m, 0]
    return v * (np.sign(t) or 1.0) / max(abs(t), np.linalg.norm(v) / MAX_STEP)


def givens_sweep(mol: MolecularIntegrals, rdm1: Rdm, rdm2: Rdm, partition: OrbitalPartition):
    """Second-order relaxation of the orbitals with the RDMs held fixed.

    Returns (U, RelaxationReport): the n x n orthogonal U = exp(kappa_1)
    exp(kappa_2) ... with each kappa over ``rotation_pairs``, and the
    ``energy_of_rotation`` at its start and after each accepted step.  An
    iteration takes the gradient, its forward-difference Hessian (one more
    gradient per pair) and the ``_rfo_step``.  The step, halved after each
    of up to BACKTRACKS tries, is accepted on the first strict drop of the
    energy; the iterations end when the step is shorter than STEP_TOL or
    no try lowers the energy.  ``n_sweeps`` counts the iterations and
    ``n_evaluations`` the energies plus the (1 + pairs) gradients of each
    iteration.
    """
    pairs = rotation_pairs(partition)
    active = np.array([i for i, _ in pairs], dtype=int)
    partner = np.array([b for _, b in pairs], dtype=int)
    n = mol.n_spatial
    support, block1, block2 = _occupied_blocks(rdm1, rdm2)
    gamma, big_gamma = spin_summed_rdms(block1, block2)

    def energy(u):
        return energy_of_rotation(u[:, support], mol, block1, block2)

    def gradient(u):
        return orbital_gradient(u, mol, support, gamma, big_gamma)[partner, active]

    def rotation(x):
        kappa = np.zeros((n, n))
        kappa[partner, active] = x
        kappa[active, partner] = -x
        return scipy.linalg.expm(kappa)

    u = np.eye(n)
    e0 = e_current = energy(u)
    n_energies = 1
    sweep_energies: list = []
    for n_sweeps in range(1, MAX_STEPS + 1):
        g = gradient(u)
        hessian = np.array(
            [gradient(u @ rotation(HESSIAN_SHIFT * unit)) - g for unit in np.eye(g.size)]
        ).reshape(g.size, g.size) / HESSIAN_SHIFT
        step = _rfo_step(g, (hessian + hessian.T) / 2)
        if np.linalg.norm(step) < STEP_TOL:
            break
        for _ in range(BACKTRACKS):
            trial = u @ rotation(step)
            e_trial = energy(trial)
            n_energies += 1
            if e_trial < e_current:
                break
            step = step / 2
        else:
            break
        u, e_current = trial, e_trial
        sweep_energies.append(e_current)
    return u, RelaxationReport(
        initial_energy=e0,
        final_energy=e_current,
        sweep_energies=sweep_energies,
        n_sweeps=n_sweeps,
        n_evaluations=n_energies + (1 + len(pairs)) * n_sweeps,
    )


def relax_then_resolve(
    mol: MolecularIntegrals,
    partition: OrbitalPartition,
    n_electrons: int,
    cycles: int = 1,
    sz: int = 0,
    energy_tol: float = 1e-12,
):
    """Alternate active-space exact solves with full-space orbital relaxation.

    Each cycle solves the (dressed) active-space ground state on the
    current orbitals, embeds its RDMs into the full space, and relaxes the
    orbitals by ``givens_sweep``; ``cycles = 1`` is the single-step
    post-processing.
    Returns (final MolecularIntegrals, per-cycle active energies, reports).
    """
    from .fci import build_hamiltonian_action, ground_state
    from .integrals import dress_core
    from .rdm import compute_rdm
    from .subspace import _slice_integrals

    if cycles < 1:
        raise VqseError("at least one cycle is required")
    mol_current = mol
    energies = []
    reports = []
    n_active_electrons = n_electrons - 2 * len(partition.core)
    dressed_partition = OrbitalPartition(
        (),
        tuple(range(len(partition.active))),
        tuple(range(len(partition.active), len(partition.active) + len(partition.virtual))),
    )
    for _ in range(cycles):
        dressed = dress_core(mol_current, partition)
        active_mol = _slice_integrals(dressed, dressed_partition.active)
        e_active, wfn = ground_state(
            build_hamiltonian_action(active_mol), n_active_electrons, sz
        )
        energies.append(float(e_active))
        d1 = compute_rdm(wfn, 1)
        d2 = compute_rdm(wfn, 2)
        full_d1, full_d2 = composite_full_rdms(d1, d2, partition)
        u, report = givens_sweep(mol_current, full_d1, full_d2, partition)
        reports.append(report)
        mol_current = rotate_integrals(mol_current, u)
        if len(energies) >= 2 and energies[-2] - energies[-1] < energy_tol:
            break
    return mol_current, energies, reports
