"""Orbital relaxation of active-space solutions over the full orbital set.

The energy is a functional of the active 1-/2-RDMs embedded over the
core and active orbitals (doubly occupied core; the empty virtuals carry
no RDM weight) and of a one-body orbital rotation U = U0 exp(kappa), with
kappa antisymmetric over the non-redundant (active, core or virtual)
spatial pairs.  The relaxation takes second-order steps in kappa
(Helgaker, Jorgensen & Olsen, Molecular Electronic-Structure Theory,
ch. 10): the orbital gradient is read off the generalized Fock matrix,
the exact Hessian off its linear response to each rotation generator,
and the augmented-Hessian (rational-function) step of Sun, Yang & Chan
(CPL 683, 291 (2017)), capped in length, goes downhill from a saddle as
well as from a slope.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .exceptions import VqseError
from .integrals import MolecularIntegrals, rotate_integrals
from .rdm import Rdm, composite_full_rdms, energy_from_rdms
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


def energy_of_rotation(u, mol: MolecularIntegrals, rdm1: Rdm, rdm2: Rdm) -> float:
    """Energy of the rotated orbitals with the state held fixed.

    ``u`` is n x m with orthonormal columns, the rotated orbitals that
    ``rdm1`` and ``rdm2`` span over their 2m spin orbitals; the integrals
    over those orbitals are contracted with the untouched RDMs.  An n x n
    unitary goes with full-space RDMs; the relaxation passes the column
    block U[:, core + active] with ``core_active_rdms``, which costs
    O(n^4 m) and builds a (2m)^4 spin tensor instead of a (2n)^4 one.
    """
    u = np.asarray(u)
    if not np.allclose(u.conj().T @ u, np.eye(u.shape[1]), rtol=0.0, atol=UNITARITY_TOL):
        raise VqseError("rotation matrix is not unitary")
    return energy_from_rdms(rotate_integrals(mol, u), rdm1, rdm2)


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


def orbital_gradient_and_hessian(u, mol: MolecularIntegrals, support, gamma, big_gamma, generators):
    """(g, H): the gradient and the exact Hessian of E(U exp(kappa)) at
    kappa = 0 in the angles x of kappa = sum_a x_a K_a, for the
    antisymmetric ``generators`` K_a (``rotation_generators``).

    g_a = 2 sum_pq (K_a)_pq F_pq, from the generalized Fock matrix
    F_pq = sum_r h_pr gamma_qr + sum_rst (pr|st) Gamma_qrst in the orbitals
    U.  ``gamma`` and ``big_gamma`` are ``spin_summed_rdms`` over the
    ``support`` orbitals, so F has nonzero columns only there.  Row b of
    the response R is the change of g along U exp(t K_b): F's response to
    dh = K_b^T h + h K_b and to the four one-index terms of d(pr|st).  Its
    antisymmetric part is the 1/2 [K_b, K_a] term of the gradient, so
    (R + R^T) / 2 is the Hessian.  Both come from one ``rotate_integrals``.
    """
    every = np.arange(mol.n_spatial)
    ks = generators[:, :, support]
    rotated = rotate_integrals(mol, u)
    h, eri = rotated.h1, rotated.eri
    eri_s = eri[np.ix_(every, support, support, support)]
    f = h[:, support] @ gamma.T + np.einsum("prst,qrst->pq", eri_s, big_gamma)
    d_eri = (
        np.einsum("bup,urst->bprst", generators, eri_s)
        + np.einsum("bur,pust->bprst", ks, eri[np.ix_(every, every, support, support)])
        + np.einsum("bus,prut->bprst", ks, eri[np.ix_(every, support, every, support)])
        + np.einsum("but,prsu->bprst", ks, eri[np.ix_(every, support, support, every)])
    )
    d_h = h @ ks - generators @ h[:, support]
    d_f = d_h @ gamma.T + np.einsum("bprst,qrst->bpq", d_eri, big_gamma)
    response = 2 * np.tensordot(d_f, ks, axes=([1, 2], [1, 2]))
    return 2 * np.tensordot(ks, f, axes=2), (response + response.T) / 2


def rotation_pairs(partition: OrbitalPartition):
    """Non-redundant rotation pairs: active (outer, ascending) against
    core-then-virtual partners (inner, ascending)."""
    partners = list(partition.core) + list(partition.virtual)
    return tuple((i, b) for i in partition.active for b in partners)


def rotation_generators(partition: OrbitalPartition) -> np.ndarray:
    """K_a = E_bi - E_ib for each ``rotation_pairs`` pair (i, b), stacked
    into an (n_pairs, n, n) array."""
    pairs = rotation_pairs(partition)
    generators = np.zeros((len(pairs), partition.n_spatial, partition.n_spatial))
    for k, (i, b) in zip(generators, pairs):
        k[b, i], k[i, b] = 1.0, -1.0
    return generators


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
    """The active RDMs embedded over the core and active orbitals, in
    ascending order, with a doubly occupied core (``composite_full_rdms``
    without the virtuals, which carry no RDM weight): the RDM form
    ``givens_sweep`` reads."""
    support = sorted(partition.core + partition.active)
    local = OrbitalPartition(
        tuple(map(support.index, partition.core)),
        tuple(map(support.index, partition.active)),
        (),
    )
    return composite_full_rdms(active_rdm1, active_rdm2, local)


def givens_sweep(mol: MolecularIntegrals, rdm1: Rdm, rdm2: Rdm, partition: OrbitalPartition):
    """Second-order relaxation of the orbitals with the RDMs held fixed.

    ``rdm1`` and ``rdm2`` span the spin orbitals of the core and active
    orbitals (``core_active_rdms``); the virtuals carry no RDM weight.
    Returns (U, RelaxationReport): the n x n orthogonal U = exp(kappa_1)
    exp(kappa_2) ... with each kappa over ``rotation_generators``, and the
    ``energy_of_rotation`` at its start and after each accepted step.  An
    iteration takes the gradient and the exact Hessian
    (``orbital_gradient_and_hessian``) and the ``_rfo_step``.  The step,
    halved after each of up to BACKTRACKS tries, is accepted on the first
    strict drop of the energy; the iterations end when the step is shorter
    than STEP_TOL or no try lowers the energy.  ``n_sweeps`` counts the
    iterations and ``n_evaluations`` the energies plus the one
    gradient-and-Hessian of each iteration.
    """
    generators = rotation_generators(partition)
    support = np.array(sorted(partition.core + partition.active), dtype=int)
    if rdm1.n != 2 * support.size or rdm2.n != rdm1.n:
        raise VqseError("the RDMs must span the core and active spin orbitals")
    gamma, big_gamma = spin_summed_rdms(rdm1, rdm2)

    def energy(u):
        return energy_of_rotation(u[:, support], mol, rdm1, rdm2)

    def rotation(x):
        return scipy.linalg.expm(np.tensordot(x, generators, axes=1))

    u = np.eye(mol.n_spatial)
    e0 = e_current = energy(u)
    n_energies = 1
    sweep_energies: list = []
    for n_sweeps in range(1, MAX_STEPS + 1):
        g, hessian = orbital_gradient_and_hessian(u, mol, support, gamma, big_gamma, generators)
        step = _rfo_step(g, hessian)
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
        n_evaluations=n_energies + n_sweeps,
    )


def relax_then_resolve(
    mol: MolecularIntegrals, partition: OrbitalPartition, n_electrons: int, cycles: int = 1
):
    """Alternate active-space exact solves with full-space orbital relaxation.

    Each cycle solves the active-space ground state (``dress_core``, at
    2 S_z = SZ) on the current orbitals, embeds its RDMs over the core and
    active orbitals (``core_active_rdms``), and relaxes the orbitals by
    ``givens_sweep``; ``cycles = 1`` is the single-step post-processing.
    The cycles end early once the active energy drops by less than
    CYCLE_TOL.  Returns (final MolecularIntegrals, per-cycle active
    energies, reports).
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
        d1, d2 = core_active_rdms(compute_rdm(wfn, 1), compute_rdm(wfn, 2), partition)
        u, report = givens_sweep(mol_current, d1, d2, partition)
        reports.append(report)
        mol_current = rotate_integrals(mol_current, u)
        if len(energies) >= 2 and energies[-2] - energies[-1] < CYCLE_TOL:
            break
    return mol_current, energies, reports
