import functools
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from vqse import ANGSTROM_PER_BOHR, wick
from vqse.fci import Wavefunction, build_hamiltonian_action, ground_state
from vqse.integrals import (
    Geometry,
    MolecularIntegrals,
    compute_ao_integrals,
    h2_geometry,
    load_basis,
    run_rhf,
    transform_to_mo,
)
from vqse.rdm import delta2, wedge
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


@functools.lru_cache(maxsize=None)
def h4_chain_mol(basis: str) -> MolecularIntegrals:
    """Linear H4 at 1.8 bohr spacing in the RHF orbital basis."""
    geometry = Geometry.from_list([("H", 1.0, (0.0, 0.0, 1.8 * k)) for k in range(4)])
    ao = compute_ao_integrals(geometry, load_basis(basis))
    return transform_to_mo(ao, run_rhf(ao, 4).mo_coefficients)


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
        return np.linalg.eigvalsh(SlaterCondon(rotated).dense_matrix(dets))[0]

    rng = np.random.default_rng(0)
    starts = [np.zeros(len(act))] + [rng.uniform(-np.pi, np.pi, len(act)) for _ in range(3)]
    return min(
        float(scipy.optimize.minimize(energy, x0, method="BFGS").fun) for x0 in starts
    )


def sector_determinants(n_spin_orbitals: int, n_electrons: int, sz=None) -> list[int]:
    """All determinants of the sector, sorted ascending by bitmask value.

    ``sz`` is the spin projection in units of 1/2 electrons counted as
    (n_alpha - n_beta); alpha spin orbitals are the even indices.
    """
    dets = []
    for occ in combinations(range(n_spin_orbitals), n_electrons):
        if sz is not None:
            n_alpha = sum(1 for i in occ if i % 2 == 0)
            if n_alpha - (n_electrons - n_alpha) != sz:
                continue
        det = 0
        for i in occ:
            det |= 1 << i
        dets.append(det)
    dets.sort()
    return dets


def _parity_below(det: int, index: int) -> int:
    """(-1)^(number of occupied spin orbitals below index)."""
    return -1 if bin(det & ((1 << index) - 1)).count("1") % 2 else 1


class SlaterCondon:
    """Small-case FCI oracle: Hamiltonian matrix elements between
    interleaved spin-orbital determinants by the Slater-Condon rules, one
    element at a time, and the Hamiltonian as an explicit ladder-string
    list for ``full_space_expectation``.  Shares no code with the
    string-factored solver in ``vqse.fci``."""

    def __init__(self, mol: MolecularIntegrals):
        self.mol = mol
        self.n_spin = mol.n_spin
        self.h1s = mol.h1_spin()
        self.vas = mol.eri_phys_antisym()  # <ij||kl>
        self.constant = mol.constant

    def hamiltonian_terms(self):
        """Explicit (coefficient, ladder string) list."""
        terms = [(self.constant, [])]
        h2 = self.mol.h2_spin()
        n = self.n_spin
        for i in range(n):
            for j in range(n):
                if self.h1s[i, j] != 0.0:
                    terms.append((self.h1s[i, j], [(i, True), (j, False)]))
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for l in range(n):
                        if h2[i, j, k, l] != 0.0:
                            terms.append(
                                (0.5 * h2[i, j, k, l], [(i, True), (j, True), (k, False), (l, False)])
                            )
        return terms

    def diagonal(self, det: int) -> float:
        occ = [i for i in range(self.n_spin) if det >> i & 1]
        val = self.constant + sum(self.h1s[p, p] for p in occ)
        for a, p in enumerate(occ):
            for q in occ[a + 1 :]:
                val += self.vas[p, q, p, q]
        return float(val)

    def element(self, det_i: int, det_j: int) -> float:
        """<det_i|H|det_j>."""
        diff = det_i ^ det_j
        ndiff = bin(diff).count("1")
        if ndiff == 0:
            return self.diagonal(det_i)
        if ndiff == 2:
            p = (diff & det_j).bit_length() - 1  # occupied in j, hole in i
            q = (diff & det_i).bit_length() - 1
            sign = _parity_below(det_j, p) * _parity_below(det_j & ~(1 << p), q)
            occ = [m for m in range(self.n_spin) if det_j >> m & 1 and m != p]
            val = self.h1s[q, p] + sum(self.vas[q, m, p, m] for m in occ)
            return float(sign * val)
        if ndiff == 4:
            holes = [i for i in range(self.n_spin) if det_j >> i & 1 and diff >> i & 1]
            parts = [i for i in range(self.n_spin) if det_i >> i & 1 and diff >> i & 1]
            p, q = holes  # p < q
            r, s = parts  # r < s
            d = det_j
            sign = _parity_below(d, q)
            d &= ~(1 << q)
            sign *= _parity_below(d, p)
            d &= ~(1 << p)
            sign *= _parity_below(d, r)
            d |= 1 << r
            sign *= _parity_below(d, s)
            return float(sign * self.vas[r, s, p, q])
        return 0.0

    def dense_matrix(self, dets) -> np.ndarray:
        n = len(dets)
        h = np.zeros((n, n))
        for a in range(n):
            for b in range(a, n):
                h[a, b] = h[b, a] = self.element(dets[a], dets[b])
        return h


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


def higher_cumulants(rdms):
    """Connected 3- and 4-body parts Delta3, Delta4 (normalized convention)
    of the RDMs ``{1: .., 4: ..}``, from the cumulant expansion written out
    with ``wedge``:

        D3 / 3! = Delta3 + 3 Delta2 ^ D1 + D1 ^ D1 ^ D1
        D4 / 4! = Delta4 + 4 Delta3 ^ D1 + 3 Delta2 ^ Delta2
                  + 6 Delta2 ^ D1 ^ D1 + D1 ^ D1 ^ D1 ^ D1
    """
    d1 = rdms[1].tensor
    d2c = delta2(rdms[1], rdms[2])
    w111 = wedge(wedge(d1, d1), d1)
    delta3 = rdms[3].tensor / 6.0 - 3.0 * wedge(d2c, d1) - w111
    delta4 = (
        rdms[4].tensor / 24.0
        - 4.0 * wedge(delta3, d1)
        - 3.0 * wedge(d2c, d2c)
        - 6.0 * wedge(wedge(d2c, d1), d1)
        - wedge(w111, d1)
    )
    return delta3, delta4
