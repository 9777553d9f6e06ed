import functools
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from vqse import ANGSTROM_PER_BOHR, wick
from vqse.fci import (
    Wavefunction,
    build_hamiltonian_action,
    ground_state,
    sector_determinants,
)
from vqse.integrals import (
    MolecularIntegrals,
    compute_ao_integrals,
    h2_geometry,
    load_basis,
    run_rhf,
    transform_to_mo,
)
from vqse.spaces import OrbitalPartition
from vqse.subspace import _slice_integrals

DATA_DIR = Path(__file__).parent / "data"


def h2_case(r_angstrom: float, basis: str, n_active_spatial: int = 2):
    """Shared pipeline state at one bond length (cached across tests)."""
    return _h2_case(r_angstrom, basis, n_active_spatial)


# Keyed on the normalized arguments, so h2_case(r, b) and h2_case(r, b, 2)
# share one entry; sized to hold a 23-point grid for each of the four
# (basis, active size) combinations the acceptance tests scan.
@functools.lru_cache(maxsize=128)
def _h2_case(r_angstrom: float, basis: str, n_active_spatial: int):
    r_bohr = r_angstrom / ANGSTROM_PER_BOHR
    ao = compute_ao_integrals(h2_geometry(r_bohr), load_basis(basis))
    scf = run_rhf(ao, 2)
    mol = transform_to_mo(ao, scf.mo_coefficients)
    partition = OrbitalPartition.from_counts(0, n_active_spatial, mol.n_spatial)
    active_mol = _slice_integrals(mol, partition.active)
    e_ref, wfn = ground_state(build_hamiltonian_action(active_mol), 2, sz=0)
    return {
        "r_bohr": r_bohr,
        "ao": ao,
        "scf": scf,
        "mol": mol,
        "partition": partition,
        "active_mol": active_mol,
        "e_ref": float(e_ref),
        "wfn": wfn,
    }


@functools.lru_cache(maxsize=128)
def h2_fci(r_angstrom: float, basis: str) -> float:
    case = h2_case(r_angstrom, basis)
    energy, _ = ground_state(build_hamiltonian_action(case["mol"]), 2, sz=0)
    return float(energy)


@functools.lru_cache(maxsize=128)
def casscf_2_2(r_angstrom: float, basis: str) -> float:
    """Brute-force CASSCF(2,2) energy: the lowest 2-electron ground state of
    the 2-orbital active space over all rotations that mix the active
    orbitals with the virtuals.

    Shares no code with ``vqse.oo``: U = expm(kappa) with kappa
    antisymmetric over the active-virtual pairs, the active columns of U
    rotate the MO integrals by einsum, and the rotated 2-orbital problem
    is diagonalized as a dense FCI matrix.  BFGS minimizes from kappa = 0
    and from three fixed-seed random starts; the lowest minimum wins.
    """
    case = h2_case(r_angstrom, basis)
    mol, partition = case["mol"], case["partition"]
    active = list(partition.active)
    virt, act = zip(*((v, a) for a in partition.active for v in partition.virtual))
    dets = sector_determinants(2 * len(active), 2, 0)

    def energy(x):
        kappa = np.zeros((mol.n_spatial, mol.n_spatial))
        kappa[virt, act] = x
        kappa[act, virt] = -x
        c = scipy.linalg.expm(kappa)[:, active]
        rotated = MolecularIntegrals(
            n_spatial=len(active),
            e_nuc=mol.e_nuc,
            h1=c.T @ mol.h1 @ c,
            eri=np.einsum("pqrs,pi,qj,rk,sl->ijkl", mol.eri, c, c, c, c),
        )
        return np.linalg.eigvalsh(build_hamiltonian_action(rotated).dense_matrix(dets))[0]

    rng = np.random.default_rng(0)
    starts = [np.zeros(len(act))] + [rng.uniform(-np.pi, np.pi, len(act)) for _ in range(3)]
    return min(
        float(scipy.optimize.minimize(energy, x0, method="BFGS").fun) for x0 in starts
    )


def embed_wavefunction(wfn: Wavefunction, partition: OrbitalPartition, n_full: int):
    """Map an active-space wavefunction into the full Fock space (other
    spin orbitals empty; amplitudes keep their signs because the active
    spin orbitals are listed ascending)."""
    spots = partition.active_spin
    amplitudes = {}
    for det, amp in wfn.amplitudes.items():
        full = 0
        for i in range(wfn.n_spin_orbitals):
            if det >> i & 1:
                full |= 1 << spots[i]
        amplitudes[full] = amp
    return Wavefunction(amplitudes, n_full, wfn.n_electrons)


def random_wavefunction(n_spin_orbitals, n_electrons, rng, sz=None, complex_amps=False):
    from vqse.fci import sector_determinants

    dets = sector_determinants(n_spin_orbitals, n_electrons, sz)
    amps = rng.normal(size=len(dets))
    if complex_amps:
        amps = amps + 1j * rng.normal(size=len(dets))
    return Wavefunction(dict(zip(dets, amps)), n_spin_orbitals, n_electrons).normalized()


def wick_expectation(ops, rdms, partition: OrbitalPartition) -> complex:
    """<Psi_ref (x) vac| ops |Psi_ref (x) vac> through the two primitives the
    subspace assembly uses: virtual pairings from ``contract_virtuals_symbolic``
    and active residues from ``active_pattern_tensor``.  ``ops`` is a
    sequence of (full-space spin orbital, dagger) pairs, leftmost first."""
    active = {so: k for k, so in enumerate(partition.active_spin)}
    pattern = tuple((wick.ACTIVE if i in active else wick.VIRTUAL, d) for i, d in ops)
    total = 0.0
    for sign, vpairs, slots in wick.contract_virtuals_symbolic(pattern):
        if all(ops[a][0] == ops[c][0] for a, c in vpairs):
            tensor = wick.active_pattern_tensor(tuple(ops[s][1] for s in slots), rdms)
            total += sign * tensor[tuple(active[ops[s][0]] for s in slots)]
    return complex(total)
