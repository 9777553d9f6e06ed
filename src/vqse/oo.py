"""Orbital relaxation of active-space solutions over the full orbital set.

The energy is a functional of the active 1-/2-RDMs embedded into the full
space (doubly occupied core, empty virtuals) and of a one-body orbital
rotation U.  U is parameterized as a product of Givens rotations over the
non-redundant (active, core or virtual) spatial pairs.  A sweep procedure
steps one angle at a time in closed form -- the energy along a single
Givens angle is a trigonometric polynomial with harmonics up to 4*theta,
so nine equally spaced samples determine it completely and its critical
points are polynomial roots -- and an optional derivative-free simplex
stage polishes all angles jointly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.optimize

from .exceptions import VqseError
from .integrals import MolecularIntegrals, rotate_integrals
from .rdm import Rdm, composite_full_rdms, energy_from_rdms
from .spaces import OrbitalPartition, spatial_to_spin

UNITARITY_TOL = 1e-8
HARMONICS = np.arange(-4, 5)  # of the energy along one Givens angle
# |E'(0)| below STATIONARY_TOL times the largest |E| sample is rounding;
# roots of E'(theta) z^4 within UNIT_CIRCLE_TOL of |z| = 1 are real angles
STATIONARY_TOL = 1e-13
UNIT_CIRCLE_TOL = 1e-6
RETRY_KICK = 1e-3  # rad; see givens_sweep
RETRY_SWEEPS = 3


@dataclass
class RotationParameters:
    """Orbital rotation over spatial orbitals.

    A list of Givens ``pairs`` with ``angles``; the unitary is the ordered
    product U = G(pair_1, angle_1) @ G(pair_2, angle_2) @ ..., i.e. later
    factors rotate the orbitals produced by earlier ones.
    """

    n_spatial: int
    pairs: tuple = ()
    angles: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        self.angles = np.atleast_1d(np.asarray(self.angles, dtype=float))
        if len(self.pairs) != self.angles.size:
            raise VqseError("pairs and angles disagree in length")
        # map angles to the principal branch (-pi, pi]
        self.angles = -(np.mod(-self.angles + np.pi, 2 * np.pi) - np.pi)

    def unitary(self) -> np.ndarray:
        u = np.eye(self.n_spatial)
        for (i, b), theta in zip(self.pairs, self.angles):
            u = u @ givens_matrix(self.n_spatial, i, b, theta)
        return u


def givens_matrix(n: int, i: int, b: int, theta: float) -> np.ndarray:
    """Plane rotation of spatial orbitals i and b by theta."""
    if i == b:
        raise VqseError("a Givens rotation needs two distinct orbitals")
    g = np.eye(n)
    c, s = np.cos(theta), np.sin(theta)
    g[i, i] = g[b, b] = c
    g[b, i] = s
    g[i, b] = -s
    return g


@dataclass
class RelaxationReport:
    initial_energy: float
    final_energy: float
    sweep_energies: list
    angle_table: list  # (pair, angle) rows
    n_sweeps: int = 0
    n_evaluations: int = 0
    budget_exhausted: bool = False


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
    orbitals; the sweeps slice the fixed RDMs once and pass them so.
    """
    u = np.asarray(u)
    if not np.allclose(u.conj().T @ u, np.eye(u.shape[1]), rtol=0.0, atol=UNITARITY_TOL):
        raise VqseError("rotation matrix is not unitary")
    if rdm1.n == 2 * u.shape[0]:
        support, rdm1, rdm2 = _occupied_blocks(rdm1, rdm2)
        u = u[:, support]
    c = u.real if np.isrealobj(mol.h1) else u
    return energy_from_rdms(rotate_integrals(mol, c), rdm1, rdm2)


def rotation_pairs(partition: OrbitalPartition):
    """Non-redundant Givens pairs: active (outer, ascending) against
    core-then-virtual partners (inner, ascending)."""
    partners = list(partition.core) + list(partition.virtual)
    return tuple((i, b) for i in partition.active for b in partners)


def minimize_single_angle(energy_fn):
    """Descent step along one angle of E(theta) = sum_k c_k exp(i k theta).

    Nine samples pin the c_k, k = -4..4.  The critical angles are the
    unit-circle roots z = exp(i theta) of sum_k k c_k z^(k+4).  The step
    goes to the nearest minimum in the downhill direction of E'(0), so the
    sweeps never hop into a distant orbital-swap basin; from a stationary
    maximum it goes toward negative theta.  It is 0 from any other
    stationary start, and when np.roots puts a multiple-root minimum off
    the unit circle.  Returns (theta, c).
    """
    thetas = 2 * np.pi * np.arange(HARMONICS.size) / HARMONICS.size
    samples = np.array([energy_fn(t) for t in thetas])
    c = np.exp(-1j * np.outer(HARMONICS, thetas)) @ samples / HARMONICS.size
    tol = STATIONARY_TOL * np.abs(samples).max()
    slope = float(np.real(1j * HARMONICS @ c))  # E'(0)
    if abs(slope) > tol:
        downhill = -np.sign(slope)
    elif np.real(HARMONICS**2 @ c) > tol:  # E''(0) < 0
        downhill = -1.0
    else:
        return 0.0, c
    roots = np.roots((HARMONICS * c)[::-1])
    critical = np.angle(roots[np.abs(np.abs(roots) - 1.0) < UNIT_CIRCLE_TOL])
    curvature = -np.real(np.exp(1j * np.outer(critical, HARMONICS)) @ (HARMONICS**2 * c))
    steps = np.mod(downhill * critical[curvature > 0], 2 * np.pi)
    return float(downhill * steps.min()) if steps.size else 0.0, c


def givens_sweep(
    mol: MolecularIntegrals,
    rdm1: Rdm,
    rdm2: Rdm,
    partition: OrbitalPartition,
    max_sweeps: int = 100,
    angle_tol: float = 1e-12,
):
    """Cyclic single-angle descent over the non-redundant pairs.

    Returns (RotationParameters with the accumulated Givens factors,
    RelaxationReport).  A step is accepted only if the recomputed energy
    drops; the sweeps stop at the first one that gains less than
    ``angle_tol``.  A point stationary along every single angle can be a
    saddle of the joint angles (H2/6-31G at 1.4 A with 3 active orbitals),
    so the first sweep that accepts no step is retried once: RETRY_SWEEPS
    sweeps from a fixed-seed kick of every angle by at most RETRY_KICK,
    kept only if they end more than ``angle_tol`` lower.  A kept retry adds
    its end energy to the non-increasing ``sweep_energies``; ``n_sweeps``
    and ``n_evaluations`` count the retry either way.
    """
    pairs = rotation_pairs(partition)
    n = mol.n_spatial
    support, block1, block2 = _occupied_blocks(rdm1, rdm2)

    def energy(u):
        return energy_of_rotation(u[:, support], mol, block1, block2)

    def sweep(u, e_current, taken):
        gain = 0.0
        for i, b in pairs:
            theta, _ = minimize_single_angle(lambda t: energy(u @ givens_matrix(n, i, b, t)))
            e_new = energy(u @ givens_matrix(n, i, b, theta))
            if e_new < e_current:
                u = u @ givens_matrix(n, i, b, theta)
                gain = max(gain, e_current - e_new)
                e_current = e_new
                taken.append(((i, b), theta))
        return u, e_current, gain

    u = np.eye(n)
    e0 = e_current = energy(u)
    taken: list = []
    sweep_energies: list = []
    n_sweeps = 0
    retried = False
    while n_sweeps < max_sweeps:
        u, e_current, gain = sweep(u, e_current, taken)
        n_sweeps += 1
        sweep_energies.append(e_current)
        if gain == 0.0 and not retried:
            retried = True
            kick = RETRY_KICK * np.random.default_rng(0).uniform(-1, 1, len(pairs))
            kicked = list(zip(pairs, kick))
            u_retry = u @ RotationParameters(n, pairs, kick).unitary()
            e_retry = energy(u_retry)
            for _ in range(min(RETRY_SWEEPS, max_sweeps - n_sweeps)):
                u_retry, e_retry, _ = sweep(u_retry, e_retry, kicked)
                n_sweeps += 1
            if e_retry < e_current - angle_tol:
                u, e_current = u_retry, e_retry
                taken += kicked
                sweep_energies.append(e_current)
                continue
        if gain < angle_tol:
            break
    params = RotationParameters(
        n, tuple(p for p, _ in taken), np.array([t for _, t in taken])
    )
    return params, RelaxationReport(
        initial_energy=e0,
        final_energy=e_current,
        sweep_energies=sweep_energies,
        angle_table=taken,
        n_sweeps=n_sweeps,
        # the start, the kicked start, and 9 samples plus the step per angle
        n_evaluations=1 + retried + (HARMONICS.size + 1) * len(pairs) * n_sweeps,
    )


def joint_optimize(
    mol: MolecularIntegrals,
    rdm1: Rdm,
    rdm2: Rdm,
    partition: OrbitalPartition,
    initial: RotationParameters | None = None,
    budget: int = 5000,
):
    """Derivative-free simplex minimization over all pair angles jointly.

    Starts from ``initial`` (or zero angles over the non-redundant pairs)
    and never returns something worse than the start; exhausting the
    budget sets a flag on the report rather than raising.
    """
    if budget < 0:
        raise VqseError("optimizer budget must be non-negative")
    if initial is None:
        pairs = rotation_pairs(partition)
        x0 = np.zeros(len(pairs))
    else:
        pairs = initial.pairs
        x0 = np.array(initial.angles, dtype=float)
    n = mol.n_spatial
    support, block1, block2 = _occupied_blocks(rdm1, rdm2)

    def energy_of(x):
        u = np.eye(n)
        for (i, b), theta in zip(pairs, x):
            u = u @ givens_matrix(n, i, b, theta)
        return energy_of_rotation(u[:, support], mol, block1, block2)

    e0 = energy_of(x0)
    best = {"x": x0.copy(), "e": e0, "count": 1}
    if budget == 0 or x0.size == 0:
        params = RotationParameters(n, pairs, x0)
        return params, RelaxationReport(
            e0, e0, [e0], list(zip(pairs, x0)), 0, best["count"], budget_exhausted=budget == 0
        )

    def objective(x):
        e = energy_of(x)
        best["count"] += 1
        if e < best["e"]:
            best["e"], best["x"] = e, x.copy()
        return e

    result = scipy.optimize.minimize(
        objective,
        x0,
        method="Nelder-Mead",
        options={"maxfev": budget, "xatol": 1e-12, "fatol": 1e-14},
    )
    params = RotationParameters(n, pairs, best["x"])
    report = RelaxationReport(
        initial_energy=e0,
        final_energy=best["e"],
        sweep_energies=[best["e"]],
        angle_table=list(zip(pairs, best["x"])),
        n_sweeps=1,
        n_evaluations=best["count"],
        budget_exhausted=not result.success and best["count"] >= budget,
    )
    return params, report


def relax_then_resolve(
    mol: MolecularIntegrals,
    partition: OrbitalPartition,
    n_electrons: int,
    cycles: int = 1,
    sz: int = 0,
    energy_tol: float = 1e-12,
):
    """Alternate active-space exact solves with full-space Givens sweeps.

    Each cycle solves the (dressed) active-space ground state on the
    current orbitals, embeds its RDMs into the full space, and relaxes the
    orbitals by a sweep; ``cycles = 1`` is the single-step post-processing.
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
        params, report = givens_sweep(mol_current, full_d1, full_d2, partition)
        reports.append(report)
        mol_current = rotate_integrals(mol_current, params.unitary())
        if len(energies) >= 2 and energies[-2] - energies[-1] < energy_tol:
            break
    return mol_current, energies, reports
