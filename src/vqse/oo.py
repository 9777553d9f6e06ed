"""Orbital relaxation of active-space solutions over the full orbital set.

The energy is a functional of the spin-summed 1- and 2-RDMs gamma and
Gamma over the core and active orbitals (the active state's, embedded
next to a doubly occupied core; the empty virtuals carry no RDM weight)
and of a one-body orbital rotation U = U0 exp(kappa), with
kappa antisymmetric over the non-redundant (active, core or virtual)
spatial pairs.  The relaxation takes second-order steps in kappa
(Helgaker, Jorgensen & Olsen, Molecular Electronic-Structure Theory,
ch. 10): the orbital gradient is read off the generalized Fock matrix,
the exact Hessian off its closed-form linear response to a rotation, read
at the rotation pairs, and the augmented-Hessian (rational-function) step
of Sun, Yang & Chan (CPL 683, 291 (2017)), capped in length, goes
downhill from a saddle as well as from a slope.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import PartitionError, VqseError
from .integrals import MolecularIntegrals, rotate_integrals
from .rdm import Rdm, energy_from_rdms, spin_summed_rdms
from .spaces import OrbitalPartition

UNITARITY_TOL = 1e-8
MAX_STEP = 0.5  # rad, norm of one step's kappa
STEP_TOL = 1e-7  # rad; a shorter step ends the relaxation
BACKTRACKS = 5  # tries of a step, halved after each, before the relaxation ends
MAX_STEPS = 50  # iterations of one relaxation
SZ = 0  # 2 * S_z of the active-space state
CYCLE_TOL = 1e-12  # Ha; a smaller drop of the active energy ends the cycles


@dataclass
class RelaxationReport:
    initial_energy: float
    final_energy: float
    sweep_energies: list  # after each accepted step, non-increasing
    n_sweeps: int = 0  # step iterations
    n_evaluations: int = 0  # energies plus one gradient-and-Hessian per iteration


def energy_of_rotation(u, mol: MolecularIntegrals, gamma, big_gamma) -> float:
    """Energy of the rotated orbitals with the state held fixed.

    ``u`` is n x m with orthonormal columns, the rotated orbitals that
    ``gamma`` and ``big_gamma`` (m x m and m^4, ``spin_summed_rdms``)
    span; the integrals over those orbitals are contracted with the
    untouched RDMs.  An n x n unitary goes with RDMs over all n orbitals;
    the relaxation passes the column block U[:, core + active] with
    ``core_active_rdms``, which costs O(n^4 m).
    """
    u = np.asarray(u)
    overlap = u.conj().T @ u
    overlap[np.diag_indices_from(overlap)] -= 1.0
    if not np.max(np.abs(overlap)) <= UNITARITY_TOL:  # a NaN fails too
        raise VqseError("rotation matrix is not unitary")
    return energy_from_rdms(rotate_integrals(mol, u), gamma, big_gamma)


def orbital_gradient_and_hessian(rotated: MolecularIntegrals, support, pairs, gamma, big_gamma):
    """(g, H): the gradient and the exact Hessian of E(U exp(kappa)) at
    kappa = 0 in the angles x of kappa = sum_a x_a K_a, K_a = E_bi - E_ib
    for each rotation pair (i, b) = ``pairs[a]`` (``rotation_pairs``, or
    any (n_pairs, 2) integer array of distinct pairs).

    ``rotated`` holds the integrals in the orbitals U.  g_a = 2 (F_bi -
    F_ib), from the generalized Fock matrix F_pq = sum_r h_pr gamma_qr +
    sum_rst (pr|st) Gamma_qrst.  ``gamma`` and ``big_gamma`` are
    ``spin_summed_rdms`` over the ``support`` orbitals, so F has nonzero
    columns only there.  The response of F to a rotation, U exp(t K), is
    dF_pq/dt = sum_xy M[p, x, q, y] K_xy with
    M[p, x, q, y] = h_px gamma_qy + sum_st (px|st) Gamma_qyst
    + sum_rt (pr|xt) Gamma_qryt + sum_rs (pr|sx) Gamma_qrsy + delta_py F_xq,
    nonzero for q in the support only.  R_ab, the change of g_a along
    K_b, reads four entries of M; its antisymmetric part is the
    1/2 [K_b, K_a] term of the gradient, so (R + R^T) / 2 is the Hessian.
    """
    h, eri = rotated.h1, rotated.eri
    n, m = rotated.n_spatial, len(support)
    eri_s = eri[:, support]  # (pr|st), r in the support
    eri_sss = eri_s[:, :, support][:, :, :, support]
    f = h[:, support] @ gamma.T + np.einsum("prst,qrst->pq", eri_sss, big_gamma)
    # M[px, qy]: the one-body term, then each two-body sum as one product
    response = np.multiply.outer(h, gamma).reshape(n * n, m * m)
    response += eri[:, :, support][:, :, :, support].reshape(n * n, -1) @ (
        big_gamma.reshape(m * m, -1).T
    )
    response += eri_s[:, :, :, support].transpose(0, 2, 1, 3).reshape(n * n, -1) @ (
        big_gamma.transpose(1, 3, 0, 2).reshape(m * m, -1)
    )
    response += eri_s[:, :, support].transpose(0, 3, 1, 2).reshape(n * n, -1) @ (
        big_gamma.transpose(1, 2, 0, 3).reshape(m * m, -1)
    )
    # slot m of a support axis is zero: F and M vanish off the support
    slot = np.full(n, m)
    slot[support] = np.arange(m)
    f_pad = np.zeros((n, m + 1))
    f_pad[:, :m] = f
    response_pad = np.zeros((n, n, m + 1, m + 1))
    response_pad[:, :, :m, :m] = response.reshape(n, n, m, m)

    # K_a = E_bi - E_ib: (p, q) runs over (b_a, i_a), (i_a, b_a), and
    # (x, y) over (b_b, i_b), (i_b, b_b), with signs +, -
    i, b = np.asarray(pairs, dtype=int).reshape(-1, 2).T
    p, q = np.array([b, i])[:, None, :, None], np.array([i, b])[:, None, :, None]
    x, y = np.array([b, i])[None, :, None, :], np.array([i, b])[None, :, None, :]
    r = response_pad[p, x, slot[q], slot[y]] + (p == y) * f_pad[x, slot[q]]
    r = 2 * (r[0, 0] - r[0, 1] - r[1, 0] + r[1, 1])
    return 2 * (f_pad[b, slot[i]] - f_pad[i, slot[b]]), (r + r.T) / 2


def rotation_pairs(partition: OrbitalPartition):
    """Non-redundant rotation pairs: active (outer, ascending) against
    core-then-virtual partners (inner, ascending)."""
    partners = list(partition.core) + list(partition.virtual)
    return tuple((i, b) for i in partition.active for b in partners)


def exp_antisymmetric(kappa: np.ndarray) -> np.ndarray:
    """exp(kappa) for a real antisymmetric kappa, the real orthogonal
    V diag(exp(i w)) V^+ from the eigenpairs (w, V) of the Hermitian
    -i kappa.  It keeps the relaxation loop on numpy's BLAS: scipy's expm
    runs on scipy's own OpenBLAS, and each switch between the two leaves
    the other library's worker thread spinning on a core."""
    w, v = np.linalg.eigh(-1j * kappa)
    return ((v * np.exp(1j * w)) @ v.conj().T).real


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


def core_active_rdms(active_rdm1: Rdm, active_rdm2: Rdm, partition: OrbitalPartition):
    """(gamma, Gamma) over the core and active orbitals, in ascending
    order: the ``spin_summed_rdms`` of the active state next to a doubly
    occupied core, the RDM form ``givens_sweep`` reads.  The core is a
    closed shell with no cumulant, so gamma is 2 on the core diagonal and
    Gamma_pqrs = gamma_pq gamma_rs - 1/2 gamma_ps gamma_rq wherever an
    index is a core orbital; the active block is the active state's Gamma.
    """
    if active_rdm1.n != 2 * len(partition.active):
        raise PartitionError("active RDM dimension does not match the partition")
    support = sorted(partition.core + partition.active)
    core = [support.index(p) for p in partition.core]
    active = [support.index(p) for p in partition.active]
    gamma_active, big_gamma_active = spin_summed_rdms(active_rdm1, active_rdm2)
    gamma = np.zeros((len(support),) * 2)
    gamma[core, core] = 2.0
    gamma[np.ix_(active, active)] = gamma_active
    big_gamma = np.einsum("pq,rs->pqrs", gamma, gamma)
    big_gamma -= 0.5 * np.einsum("ps,rq->pqrs", gamma, gamma)
    big_gamma[np.ix_(active, active, active, active)] = big_gamma_active
    return gamma, big_gamma


def givens_sweep(mol: MolecularIntegrals, gamma, big_gamma, partition: OrbitalPartition):
    """Second-order relaxation of the orbitals with the RDMs held fixed.

    ``gamma`` and ``big_gamma`` span the core and active orbitals
    (``core_active_rdms``); the virtuals carry no RDM weight.
    Returns (U, RelaxationReport): the n x n orthogonal U = exp(kappa_1)
    exp(kappa_2) ... with each kappa over the ``rotation_pairs``, and the
    ``energy_of_rotation`` at its start and after each accepted step.  An
    iteration takes the gradient and the exact Hessian
    (``orbital_gradient_and_hessian``) in the integrals of the current U,
    which are ``mol`` itself at the start and are rotated once per
    accepted step, and the ``_rfo_step``.  The step,
    halved after each of up to BACKTRACKS tries, is accepted on the first
    strict drop of the energy; the iterations end when the step is shorter
    than STEP_TOL or no try lowers the energy.  ``n_sweeps`` counts the
    iterations and ``n_evaluations`` the energies plus the one
    gradient-and-Hessian of each iteration.
    """
    pairs = np.array(rotation_pairs(partition), dtype=int).reshape(-1, 2)
    i, b = pairs.T
    support = np.array(sorted(partition.core + partition.active), dtype=int)

    def energy(u):
        return energy_of_rotation(u[:, support], mol, gamma, big_gamma)

    u = np.eye(mol.n_spatial)
    rotated = mol
    e0 = e_current = energy(u)
    n_energies = 1
    sweep_energies: list = []
    for n_sweeps in range(1, MAX_STEPS + 1):
        g, hessian = orbital_gradient_and_hessian(rotated, support, pairs, gamma, big_gamma)
        step = _rfo_step(g, hessian)
        if np.linalg.norm(step) < STEP_TOL:
            break
        for _ in range(BACKTRACKS):
            kappa = np.zeros_like(u)
            kappa[b, i] = step
            kappa[i, b] = -step
            trial = u @ exp_antisymmetric(kappa)
            e_trial = energy(trial)
            n_energies += 1
            if e_trial < e_current:
                break
            step = step / 2
        else:
            break
        u, e_current = trial, e_trial
        rotated = rotate_integrals(mol, u)
        sweep_energies.append(e_current)
    return u, RelaxationReport(
        initial_energy=e0,
        final_energy=e_current,
        sweep_energies=sweep_energies,
        n_sweeps=n_sweeps,
        n_evaluations=n_energies + n_sweeps,
    )


def relax_then_resolve(
    mol: MolecularIntegrals, partition: OrbitalPartition, n_electrons: int, cycles: int = 1
):
    """Alternate active-space exact solves with full-space orbital relaxation.

    Each cycle solves the active-space ground state (``dress_core``, at
    2 S_z = SZ) on the current orbitals, embeds its spin-summed RDMs over
    the core and active orbitals (``core_active_rdms``), and relaxes the
    orbitals by ``givens_sweep``; ``cycles = 1`` is the single-step
    post-processing.  The cycles end early once the active energy drops by
    less than CYCLE_TOL.  Returns (final MolecularIntegrals, per-cycle
    active energies, reports).
    """
    from .fci import build_hamiltonian_action, ground_state
    from .integrals import dress_core
    from .rdm import compute_rdm

    if cycles < 1:
        raise VqseError("at least one cycle is required")
    mol_current = mol
    energies = []
    reports = []
    n_active_electrons = n_electrons - 2 * len(partition.core)
    for _ in range(cycles):
        active_mol = dress_core(mol_current, partition)
        e_active, wfn = ground_state(
            build_hamiltonian_action(active_mol), n_active_electrons, SZ
        )
        energies.append(float(e_active))
        gamma, big_gamma = core_active_rdms(compute_rdm(wfn, 1), compute_rdm(wfn, 2), partition)
        u, report = givens_sweep(mol_current, gamma, big_gamma, partition)
        reports.append(report)
        mol_current = rotate_integrals(mol_current, u)
        if len(energies) >= 2 and energies[-2] - energies[-1] < CYCLE_TOL:
            break
    return mol_current, energies, reports
