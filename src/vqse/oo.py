"""Orbital relaxation of active-space solutions over the full orbital set.

The energy is a functional of the active 1-/2-RDMs embedded into the full
space (doubly occupied core, empty virtuals) and of a one-body orbital
rotation U.  U is parameterized as a product of Givens rotations over the
non-redundant (active, core or virtual) spatial pairs.  A sweep procedure
minimizes one angle at a time exactly -- the energy along a single Givens
angle is a trigonometric polynomial with harmonics up to 4*theta, so nine
equally spaced samples determine it completely -- and an optional
derivative-free simplex stage polishes all angles jointly.
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
# The single-angle minimizer scans E(theta) on N_SCAN equispaced angles of
# (-pi, pi]; the exp(i k theta) table of the fitted harmonics k = -4..4 on
# that grid is fixed, so it is built once.
N_SCAN = 10000
_SCAN_GRID = np.linspace(-np.pi, np.pi, N_SCAN, endpoint=False)
_SCAN_TABLE = np.exp(1j * np.outer(_SCAN_GRID, np.arange(-4, 5)))


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

    ``u`` is a RotationParameters or an explicit spatial unitary; the
    integrals are transformed by U and contracted with the untouched RDMs.
    Only the occupied columns of U enter: the RDMs are sliced to their
    support (``occupied_support``) and the integrals are rotated by the
    column block U[:, support], which costs O(n^4 m) for m occupied
    orbitals and builds a (2m)^4 spin tensor instead of a (2n)^4 one.

    ``u`` may also be that column block itself, n x m with orthonormal
    columns, with ``rdm1`` and ``rdm2`` already the blocks over its 2m spin
    orbitals; the sweeps slice the fixed RDMs once and pass them so.
    """
    if isinstance(u, RotationParameters):
        u = u.unitary()
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


def _fit_trig_series(samples: np.ndarray) -> np.ndarray:
    """Fourier coefficients c_{-4..4} of E(theta) from 9 equispaced samples."""
    m = samples.size
    thetas = 2 * np.pi * np.arange(m) / m
    ks = np.arange(-(m // 2), m // 2 + 1)
    c = np.exp(-1j * np.outer(ks, thetas)) @ samples / m
    return c  # E(theta) = sum_k c_k exp(i k theta)


def _eval_trig_series(c: np.ndarray, theta) -> np.ndarray:
    ks = np.arange(-(c.size // 2), c.size // 2 + 1)
    return np.real(np.exp(1j * np.outer(np.atleast_1d(theta), ks)) @ c)


def minimize_single_angle(energy_fn, step: str = "global"):
    """Minimum of a trigonometric polynomial E(theta), harmonics <= 4.

    Nine samples pin the polynomial exactly; a dense scan plus bounded
    local refinement locates the minimum on (-pi, pi].  ``step="global"``
    takes the global minimum of the period; ``step="basin"`` walks
    downhill from theta = 0 into the nearest descent basin (the
    continuity choice used by the sweeps).  Returns (theta_min, fitted
    E(theta_min), Fourier coefficients).
    """
    thetas = 2 * np.pi * np.arange(9) / 9
    samples = np.array([energy_fn(t) for t in thetas])
    c = _fit_trig_series(samples)
    values = np.real(_SCAN_TABLE @ c)
    if step == "global":
        k = int(np.argmin(values))
    elif step == "basin":
        k0 = k = N_SCAN // 2  # theta = 0
        while True:
            kl, kr = (k - 1) % N_SCAN, (k + 1) % N_SCAN
            if values[kl] < values[k] and values[kl] <= values[kr]:
                k = kl
            elif values[kr] < values[k]:
                k = kr
            else:
                break
            if k == k0:
                break
    else:
        raise VqseError(f"unknown step mode {step!r}")
    span = 2 * np.pi / N_SCAN
    res = scipy.optimize.minimize_scalar(
        lambda t: float(_eval_trig_series(c, t)[0]),
        bounds=(_SCAN_GRID[k] - span, _SCAN_GRID[k] + span),
        method="bounded",
        options={"xatol": 1e-14},
    )
    theta = float(res.x) if res.fun <= values[k] else float(_SCAN_GRID[k])
    value = float(min(res.fun, values[k]))
    return theta, value, c


def givens_sweep(
    mol: MolecularIntegrals,
    rdm1: Rdm,
    rdm2: Rdm,
    partition: OrbitalPartition,
    max_sweeps: int = 100,
    angle_tol: float = 1e-12,
):
    """Cyclic exact single-angle minimization over the non-redundant pairs.

    Returns (RotationParameters with the accumulated Givens factors,
    RelaxationReport).  The energy trace is non-increasing because each
    angle update is accepted only if the recomputed energy does not rise.
    Each angle descends into the nearest minimum (``step="basin"``);
    taking the period-global minimum instead can hop into an orbital-swap
    basin from which the cyclic descent cannot escape, ending well above
    the joint optimum.
    """
    pairs = rotation_pairs(partition)
    n = mol.n_spatial
    u = np.eye(n)
    support, block1, block2 = _occupied_blocks(rdm1, rdm2)
    e0 = energy_of_rotation(u[:, support], mol, block1, block2)
    evaluations = 1
    sweep_energies = []
    taken: list = []
    e_current = e0
    for sweep in range(max_sweeps):
        best_improvement = 0.0
        for pair in pairs:
            i, b = pair

            def e_of(theta):
                c = (u @ givens_matrix(n, i, b, theta))[:, support]
                return energy_of_rotation(c, mol, block1, block2)

            theta, _, _ = minimize_single_angle(e_of, step="basin")
            evaluations += 9
            e_new = e_of(theta)
            evaluations += 1
            if e_new < e_current:
                u = u @ givens_matrix(n, i, b, theta)
                best_improvement = max(best_improvement, e_current - e_new)
                e_current = e_new
                taken.append((pair, theta))
        sweep_energies.append(e_current)
        if best_improvement < angle_tol:
            break
    params = RotationParameters(
        n, tuple(p for p, _ in taken), np.array([t for _, t in taken])
    )
    report = RelaxationReport(
        initial_energy=e0,
        final_energy=e_current,
        sweep_energies=sweep_energies,
        angle_table=taken,
        n_sweeps=len(sweep_energies),
        n_evaluations=evaluations,
    )
    return params, report


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
