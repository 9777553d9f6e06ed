import dataclasses
import functools
import math
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from vqse import ANGSTROM_PER_BOHR, wick
from vqse.exceptions import VqseError
from vqse.fci import Wavefunction, build_hamiltonian_action, ground_state
from vqse.integrals import (
    Atom,
    BasisSet,
    Geometry,
    MolecularIntegrals,
    compute_ao_integrals,
    dress_core,
    h2_geometry,
    load_basis,
    run_rhf,
    transform_to_mo,
)
from vqse.integrals.gaussians import build_ao_basis
from vqse.rdm import Rdm, _antisymmetric_packed, _unpack, delta2, wedge
from vqse.spaces import OrbitalPartition
from vqse.subspace import ExpansionOperator

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
    active_mol = dress_core(mol, partition)
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


# ---------------------------------------------------------------------------
# test-only views of package objects


def wavefunction_norm(wfn: Wavefunction) -> float:
    return float(np.sqrt(sum(abs(a) ** 2 for a in wfn.amplitudes.values())))


def normalized(wfn: Wavefunction) -> Wavefunction:
    n = wavefunction_norm(wfn)
    if n == 0:
        raise ValueError("cannot normalize the zero vector")
    return Wavefunction(
        {d: a / n for d, a in wfn.amplitudes.items()}, wfn.n_spin_orbitals, wfn.n_electrons
    )


def overlap(bra: Wavefunction, ket: Wavefunction) -> complex:
    """<bra|ket> over the determinants both carry."""
    small, big = bra.amplitudes, ket.amplitudes
    return sum(np.conj(small[d]) * big[d] for d in small.keys() & big.keys())


def rdm_trace(rdm: Rdm) -> complex:
    """Trace of the RDM as an (n^k, n^k) matrix, N! / (N - k)!."""
    size = rdm.n**rdm.k
    return complex(np.trace(rdm.tensor.reshape(size, size)))


def antisymmetry_project(t: np.ndarray) -> np.ndarray:
    """Projection onto tensors antisymmetric in upper and lower index
    groups, through the package's packed projection."""
    return _unpack(_antisymmetric_packed(t), t.shape[0], t.ndim // 2)


def hermitized(rdm: Rdm) -> Rdm:
    """(D + D+) / 2 with D+ the conjugate swap of the upper and lower groups."""
    k = rdm.k
    dag = np.conj(rdm.tensor.transpose(tuple(range(k, 2 * k)) + tuple(range(k))))
    return Rdm(k, rdm.n, 0.5 * (rdm.tensor + dag))


def translated(geometry: Geometry, shift) -> Geometry:
    """The geometry with every atom moved by ``shift`` (bohr)."""
    shift = np.asarray(shift, dtype=float)
    return Geometry(
        tuple(
            Atom(a.symbol, a.charge, tuple(np.asarray(a.position) + shift))
            for a in geometry.atoms
        )
    )


def validate_symmetry(mol: MolecularIntegrals, tol: float = 1e-12) -> None:
    """Raise unless h1 is symmetric and the ERIs have 8-fold symmetry."""
    if np.max(np.abs(mol.h1 - mol.h1.T)) > tol:
        raise ValueError("h1 is not symmetric")
    for perm in ((1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1)):
        if np.max(np.abs(mol.eri - mol.eri.transpose(perm))) > tol:
            raise ValueError(f"eri violates permutation symmetry {perm}")


def eri_phys_antisym(mol: MolecularIntegrals) -> np.ndarray:
    """Antisymmetrized physicist integrals <ij||kl> over spin orbitals."""
    v = mol.h2_spin().transpose(0, 1, 3, 2)  # <ij|kl> = h_{ijlk}
    return v - v.transpose(0, 1, 3, 2)


def adjoint_ops(op: ExpansionOperator) -> tuple:
    """(index, dagger) pairs of the operator's adjoint, leftmost first."""
    return tuple((i, not d) for i, d in reversed(op.ladder_ops()))


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


@dataclasses.dataclass
class RotationParameters:
    """Orbital rotation over spatial orbitals, the saddle tests' oracle
    parameterization.

    A list of Givens ``pairs`` with ``angles``; the unitary is the ordered
    product U = G(pair_1, angle_1) @ G(pair_2, angle_2) @ ..., i.e. later
    factors rotate the orbitals produced by earlier ones.
    """

    n_spatial: int
    pairs: tuple = ()
    angles: np.ndarray = dataclasses.field(default_factory=lambda: np.zeros(0))

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
        self.vas = eri_phys_antisym(mol)  # <ij||kl>
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


def scalar_ao_integrals(geometry: Geometry, basis: BasisSet):
    """Small-case AO integral oracle: (S, T, V, (pq|rs)) by the scalar
    McMurchie-Davidson scheme, one primitive pair or quartet at a time, on
    the normalized functions of ``build_ao_basis``.  Shares no integral code
    with ``vqse.integrals.gaussians``: its own Boys series, its own Hermite
    recursions, the kinetic energy through overlaps with shifted functions,
    and an explicit 8-way scatter of each canonical quartet."""
    aos = build_ao_basis(geometry, basis)
    n = len(aos)
    S, T, V = np.zeros((n, n)), np.zeros((n, n)), np.zeros((n, n))
    pairs = {}
    for i in range(n):
        for j in range(i + 1):
            pairs[i, j] = _MdPair(aos[i], aos[j])
            S[i, j] = S[j, i] = _md_overlap(aos[i], aos[j])
            T[i, j] = T[j, i] = _md_kinetic(aos[i], aos[j])
            V[i, j] = V[j, i] = _md_nuclear(pairs[i, j], geometry)
    eri = np.zeros((n, n, n, n))
    for i, j, k, l in product(range(n), repeat=4):
        if j > i or l > k or i * (i + 1) // 2 + j < k * (k + 1) // 2 + l:
            continue
        val = _md_eri(pairs[i, j], pairs[k, l])
        for a, b in ((i, j), (j, i)):
            for c, d in ((k, l), (l, k)):
                eri[a, b, c, d] = eri[c, d, a, b] = val
    return S, T, V, eri


def _md_boys_row(mmax: int, x: float) -> np.ndarray:
    """F_0(x) .. F_mmax(x): Kummer series and downward recursion below
    x = 25, erf and upward recursion above."""
    out = np.empty(mmax + 1)
    ex = math.exp(-x)
    if x < 25.0:
        term = acc = 1.0 / (2 * mmax + 1)
        k = 1
        while True:
            term *= x / (mmax + k + 0.5)
            acc += term
            if term < 1e-17 * acc:
                break
            k += 1
        out[mmax] = ex * acc
        for m in range(mmax - 1, -1, -1):
            out[m] = (2.0 * x * out[m + 1] + ex) / (2 * m + 1)
    else:
        sx = math.sqrt(x)
        out[0] = math.sqrt(math.pi) / (2.0 * sx) * math.erf(sx)
        for m in range(1, mmax + 1):
            out[m] = ((2 * m - 1) * out[m - 1] - ex) / (2.0 * x)
    return out


def _md_hermite_coefficients(la: int, lb: int, p: float, xpa: float, xpb: float):
    """1D Hermite expansion coefficients E_t^{ij} for i <= la, j <= lb,
    without the Gaussian-product prefactor."""
    E = np.zeros((la + 1, lb + 1, la + lb + 1))
    E[0, 0, 0] = 1.0
    inv2p = 1.0 / (2.0 * p)
    for i in range(la + 1):
        for j in range(lb + 1):
            if i == 0 and j == 0:
                continue
            prev, x = (E[i - 1, 0], xpa) if j == 0 else (E[i, j - 1], xpb)
            for t in range(i + j + 1):
                val = x * prev[t]
                if t > 0:
                    val += inv2p * prev[t - 1]
                if t + 1 <= i + j - 1:
                    val += (t + 1) * prev[t + 1]
                E[i, j, t] = val
    return E


def _md_hermite_coulomb(tmax: int, umax: int, vmax: int, alpha: float, pc):
    """Hermite Coulomb integrals R_tuv = R^0_tuv(alpha, PC) on a full grid."""
    nmax = tmax + umax + vmax
    boys = _md_boys_row(nmax, alpha * float(pc @ pc))
    R = np.zeros((nmax + 1, tmax + 1, umax + 1, vmax + 1))
    for n in range(nmax + 1):
        R[n, 0, 0, 0] = (-2.0 * alpha) ** n * boys[n]
    for t in range(1, tmax + 1):
        for n in range(nmax - t + 1):
            val = pc[0] * R[n + 1, t - 1, 0, 0]
            if t > 1:
                val += (t - 1) * R[n + 1, t - 2, 0, 0]
            R[n, t, 0, 0] = val
    for u in range(1, umax + 1):
        for t in range(tmax + 1):
            for n in range(nmax - t - u + 1):
                val = pc[1] * R[n + 1, t, u - 1, 0]
                if u > 1:
                    val += (u - 1) * R[n + 1, t, u - 2, 0]
                R[n, t, u, 0] = val
    for v in range(1, vmax + 1):
        for u in range(umax + 1):
            for t in range(tmax + 1):
                for n in range(nmax - t - u - v + 1):
                    val = pc[2] * R[n + 1, t, u, v - 1]
                    if v > 1:
                        val += (v - 1) * R[n + 1, t, u, v - 2]
                    R[n, t, u, v] = val
    return R[0]


class _MdPair:
    """Gaussian-product data of one pair of contracted functions: per
    primitive pair p, P, the coefficient with exp(-mu AB^2) folded in, and
    per dimension the Hermite coefficients E_t of the pair's powers."""

    def __init__(self, a, b):
        aa = a.exponents[:, None]
        bb = b.exponents[None, :]
        ab = a.center - b.center
        self.p = (aa + bb).ravel()
        P = (aa[..., None] * a.center + bb[..., None] * b.center) / (aa + bb)[..., None]
        self.P = P.reshape(-1, 3)
        mu = (aa * bb / (aa + bb)).ravel()
        self.coef = (a.coefficients[:, None] * b.coefficients[None, :]).ravel() * np.exp(
            -mu * float(ab @ ab)
        )
        la, lb = a.powers, b.powers
        self.E = []
        for d in range(3):
            Ed = np.empty((len(self.p), la[d] + lb[d] + 1))
            for k, (pk, Pk) in enumerate(zip(self.p, self.P)):
                Ed[k] = _md_hermite_coefficients(
                    la[d], lb[d], pk, Pk[d] - a.center[d], Pk[d] - b.center[d]
                )[la[d], lb[d]]
            self.E.append(Ed)


def _md_overlap(a, b) -> float:
    pair = _MdPair(a, b)
    val = pair.coef * (math.pi / pair.p) ** 1.5
    for d in range(3):
        val = val * pair.E[d][:, 0]
    return float(val.sum())


def _md_kinetic(a, b) -> float:
    """T = -1/2 <a|laplacian|b>, through overlaps with b's powers raised or
    lowered by 2 and its coefficients weighted by its exponents."""
    val = (2.0 * sum(b.powers) + 3.0) * _md_overlap(
        a, dataclasses.replace(b, coefficients=b.coefficients * b.exponents)
    )
    for d in range(3):
        up = list(b.powers)
        up[d] += 2
        weighted = b.coefficients * b.exponents**2
        val -= 2.0 * _md_overlap(a, dataclasses.replace(b, powers=tuple(up), coefficients=weighted))
        nb = b.powers[d]
        if nb >= 2:
            down = list(b.powers)
            down[d] -= 2
            val -= 0.5 * nb * (nb - 1) * _md_overlap(a, dataclasses.replace(b, powers=tuple(down)))
    return val


def _md_nuclear(pair: _MdPair, geometry: Geometry) -> float:
    tmax, umax, vmax = (E.shape[1] - 1 for E in pair.E)
    val = 0.0
    for atom in geometry.atoms:
        C = np.asarray(atom.position)
        for k in range(len(pair.p)):
            R = _md_hermite_coulomb(tmax, umax, vmax, pair.p[k], pair.P[k] - C)
            s = 0.0
            for t, u, v in product(range(tmax + 1), range(umax + 1), range(vmax + 1)):
                s += pair.E[0][k, t] * pair.E[1][k, u] * pair.E[2][k, v] * R[t, u, v]
            val -= atom.charge * pair.coef[k] * 2.0 * math.pi / pair.p[k] * s
    return val


def _md_eri(ab: _MdPair, cd: _MdPair) -> float:
    t1, u1, v1 = (E.shape[1] - 1 for E in ab.E)
    t2, u2, v2 = (E.shape[1] - 1 for E in cd.E)
    bra = list(product(range(t1 + 1), range(u1 + 1), range(v1 + 1)))
    ket = list(product(range(t2 + 1), range(u2 + 1), range(v2 + 1)))
    val = 0.0
    for k1 in range(len(ab.p)):
        p = ab.p[k1]
        for k2 in range(len(cd.p)):
            q = cd.p[k2]
            R = _md_hermite_coulomb(t1 + t2, u1 + u2, v1 + v2, p * q / (p + q), ab.P[k1] - cd.P[k2])
            s = 0.0
            for t, u, v in bra:
                e1 = ab.E[0][k1, t] * ab.E[1][k1, u] * ab.E[2][k1, v]
                for tt, uu, vv in ket:
                    e2 = cd.E[0][k2, tt] * cd.E[1][k2, uu] * cd.E[2][k2, vv]
                    sign = -1.0 if (tt + uu + vv) % 2 else 1.0
                    s += e1 * e2 * sign * R[t + tt, u + uu, v + vv]
            val += ab.coef[k1] * cd.coef[k2] * 2.0 * math.pi**2.5 / (p * q * math.sqrt(p + q)) * s
    return val


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
    return normalized(Wavefunction(dict(zip(dets, amps)), n_spin_orbitals, n_electrons))


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
