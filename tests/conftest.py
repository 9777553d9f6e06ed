import dataclasses
import functools
import math
from itertools import combinations, product
from pathlib import Path

import numpy as np
import scipy.linalg
import scipy.optimize

from vqse import ANGSTROM_PER_BOHR, wick
from vqse.exceptions import VqseError
from vqse.fci import (
    CiState,
    SectorBlock,
    build_hamiltonian_action,
    ground_state,
    string_table,
)
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
from vqse.integrals.gaussians import _boys_rows, build_ao_basis
from vqse.rdm import Rdm, _sorted_index, _tuples, spin_summed_rdms, wedge
from vqse.spaces import OrbitalPartition, spatial_to_spin
from vqse.subspace import (
    DEFAULT_EPS,
    VqseOptions,
    _dense_columns,
    _retained_directions,
    build_pool,
    reference_rdms,
)

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


@dataclasses.dataclass
class Wavefunction:
    """Sparse determinant -> amplitude map over a fixed particle sector:
    the determinant form of a state that the Fock-space oracles read.
    Determinants are integer bitmasks (bit i set means spin orbital i is
    occupied) with |det> = a+_{i1} a+_{i2} ... |0>, i1 < i2 < ...;
    spatial orbital p holds spin orbitals 2p (alpha) and 2p+1 (beta)."""

    amplitudes: dict
    n_spin_orbitals: int
    n_electrons: int


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
    """Trace of the RDM as an (n^k, n^k) matrix, N! / (N - k)!: k! times
    the trace of the packed matrix, since each ascending tuple stands for
    its k! orderings, each with the square of its sorting sign, and a
    tuple with a repeated index is zero."""
    return complex(math.factorial(rdm.k) * np.trace(rdm.packed))


def rdm_from_tensor(t: np.ndarray) -> Rdm:
    """The Rdm of a dense antisymmetric tensor (n,)*2k: its entries at the
    ascending upper and lower index tuples."""
    n, k = t.shape[0], t.ndim // 2
    cols = _tuples(n, k).T
    return Rdm(k, n, t[tuple(c[:, None] for c in cols) + tuple(c[None, :] for c in cols)])


def unpack_ends(t: np.ndarray, n: int, first: int, last: int) -> np.ndarray:
    """Oracle of the assembly's packed reads: the 3-D ``t``, its first axis
    packed over the ascending ``first``-tuples and its last axis over the
    ascending ``last``-tuples of range(n), written out flat over all tuples
    (n**first and n**last entries).  Each tuple reads the entry of its
    ascending order with the sign of sorting it, and a tuple with a
    repeated index reads zero.  An axis of at most one index is already
    flat."""
    rows, row_signs = _sorted_index(n, first)
    cols, col_signs = _sorted_index(n, last)
    if first > 1:
        t = t.take(rows, axis=0)
    if last > 1:
        t = t.take(cols, axis=2)
    return t * (row_signs[:, np.newaxis, np.newaxis] * col_signs)


def dense_w_first(w, w_spec: str, tensor, d_spec: str, out: str) -> np.ndarray:
    """Oracle of the assembly's W-first kernel: W contracted with the dense
    RDM tensor over their shared letters by one einsum, with the output
    letters in the order ``out``."""
    return np.einsum(f"{w_spec},{d_spec}->{out}", w, tensor, optimize=True)


def hermitized(rdm: Rdm) -> Rdm:
    """(D + D+) / 2 with D+ the conjugate swap of the upper and lower groups."""
    k = rdm.k
    dag = np.conj(rdm.tensor.transpose(tuple(range(k, 2 * k)) + tuple(range(k))))
    return rdm_from_tensor(0.5 * (rdm.tensor + dag))


def exact_rdms(state: CiState) -> wick.RdmSet:
    """The exact RDMs of ranks 1-4 of a CI state, as the scan prepares
    them without shot noise or cumulants."""
    return reference_rdms(state, VqseOptions())


def canonical_orthogonalize(s: np.ndarray, eps: float = DEFAULT_EPS):
    """(X, discarded eigenvalues ascending, number of blocks) of the
    per-block canonical orthogonalization ``solve_gevp`` runs, with X dense
    over every metric row; X+ S X = identity."""
    directions, discarded, n_blocks = _retained_directions(s, eps)
    return _dense_columns(directions, len(s)), discarded, n_blocks


def dense_canonical_orthogonalize(s: np.ndarray, eps: float):
    """(X, discarded eigenvalues) from one dense ``eigh`` of the whole
    metric: the oracle of the per-block canonical orthogonalization."""
    evals, evecs = np.linalg.eigh(s)
    keep = evals > eps * evals[-1]
    return evecs[:, keep] / np.sqrt(evals[keep]), evals[~keep]


def dense_gevp(pair, eps: float) -> np.ndarray:
    """Every root of H C = S C E, ascending, from one dense ``eigh`` of
    H~ = X+ H X, with X from ``canonical_orthogonalize`` kept to its
    non-zero rows: the oracle of ``solve_gevp``, which finds the lowest
    root alone and never forms H~."""
    x, _, _ = canonical_orthogonalize(pair.s, eps)
    rows = np.flatnonzero(x.any(axis=1))
    x = x[rows]
    h_tilde = x.conj().T @ pair.h[np.ix_(rows, rows)] @ x
    h_tilde = 0.5 * (h_tilde + h_tilde.conj().T)
    return np.linalg.eigvalsh(h_tilde)


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


def h1_spin(mol: MolecularIntegrals) -> np.ndarray:
    """One-body coefficients h_ij over the interleaved spin orbitals."""
    n = mol.n_spin
    out = np.zeros((n, n))
    out[0::2, 0::2] = mol.h1
    out[1::2, 1::2] = mol.h1
    return out


def h2_spin(mol: MolecularIntegrals) -> np.ndarray:
    """Two-body coefficients h_ijkl of a+_i a+_j a_k a_l over the spin
    orbitals, h_ijkl = delta(s_i,s_l) delta(s_j,s_k) (il|jk), without the
    1/2 prefactor of the Hamiltonian."""
    n = mol.n_spin
    sp = np.arange(n) // 2
    sz = np.arange(n) % 2
    g = mol.eri[
        sp[:, None, None, None],
        sp[None, None, None, :],
        sp[None, :, None, None],
        sp[None, None, :, None],
    ]
    g = g * (sz[:, None, None, None] == sz[None, None, None, :])
    g = g * (sz[None, :, None, None] == sz[None, None, :, None])
    return g


def eri_phys_antisym(mol: MolecularIntegrals) -> np.ndarray:
    """Antisymmetrized physicist integrals <ij||kl> over spin orbitals."""
    v = h2_spin(mol).transpose(0, 1, 3, 2)  # <ij|kl> = h_{ijlk}
    return v - v.transpose(0, 1, 3, 2)


def restricted_pool(partition: OrbitalPartition, targets) -> list:
    """The canonical pool cut to the operators whose annihilated active
    spin orbitals (p of a single, q and r of a double) all lie in
    ``targets``."""
    return [
        op for op in build_pool(partition)
        if all(i in targets for i, dagger in op if not dagger)
    ]


def ordered_pair_pool(partition: OrbitalPartition) -> list:
    """The S_z-conserving pool with its doubles a+_mu a_q a+_nu a_r over
    ordered active pairs (q, r), q = r included, in the loop order of
    :func:`vqse.subspace.build_pool`: the oracle of its q < r doubles.
    Each (r, q) double with q != r is minus the (q, r) one, and each q = r
    double is zero, so it spans what ``build_pool`` spans, and
    ``build_pool`` is a subsequence of it."""
    active, virtual = partition.active_spin, partition.virtual_spin
    pool = [()]
    pool += [
        ((i, True), (p, False))
        for i in sorted(active + virtual)
        for p in active
        if i % 2 == p % 2
    ]
    pool += [
        ((mu, True), (q, False), (nu, True), (r, False))
        for mu, nu in combinations(sorted(virtual), 2)
        for q in active
        for r in active
        if mu % 2 + nu % 2 == q % 2 + r % 2
    ]
    return pool


def adjoint_ops(op: tuple) -> tuple:
    """The ladder string of the operator's adjoint: ``op`` reversed, with
    each dagger flipped."""
    return tuple((i, not d) for i, d in reversed(op))


def delta_sz(op: tuple) -> int:
    """Change in 2 S_z caused by a ladder string (alpha = even index)."""
    return sum((1 if d else -1) * (1 if i % 2 == 0 else -1) for i, d in op)


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


def sector_blocks(action, n_electrons: int, sz=None) -> list[SectorBlock]:
    """The (n_alpha, n_beta) blocks of the sector, n_alpha ascending: the
    one block ``sz`` names, or every block when ``sz`` is None."""
    n = action.n_spatial
    if sz is None:
        counts = range(n_electrons + 1)
    else:
        counts = [(n_electrons + sz) // 2] if (n_electrons + sz) % 2 == 0 else []
    return [
        SectorBlock(action, a, n_electrons - a)
        for a in counts
        if 0 <= a <= n and 0 <= n_electrons - a <= n
    ]


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


def apply_ladder(det: int, index: int, dagger: bool) -> tuple[int, int]:
    """Apply a single ladder operator; returns (sign, new_det), sign 0 if killed."""
    bit = 1 << index
    if dagger:
        if det & bit:
            return 0, det
        return _parity_below(det, index), det | bit
    if not det & bit:
        return 0, det
    return _parity_below(det, index), det & ~bit


def apply_ladder_string(string, det: int, n_spin_orbitals: int | None = None):
    """Apply a product of ladder operators (leftmost acts last).

    ``string`` is a sequence of (spin-orbital index, dagger flag). Returns
    (sign in {-1, 0, +1}, determinant).
    """
    sign = 1
    for index, dagger in reversed(list(string)):
        if n_spin_orbitals is not None and not 0 <= index < n_spin_orbitals:
            raise ValueError(f"spin-orbital index {index} out of range")
        s, det = apply_ladder(det, index, dagger)
        if s == 0:
            return 0, det
        sign *= s
    return sign, det


def ci_determinants(n_spatial: int, n_alpha: int, n_beta: int) -> list:
    """(sign, interleaved determinant) of each product state of the
    (n_alpha, n_beta) block, in block order: A(I_a) B(I_b) |0> = sign |det>,
    from applying the string's alpha creators and then its beta
    creators, each ascending, to the vacuum."""
    out = []
    for alpha in string_table(n_spatial, n_alpha).strings:
        for beta in string_table(n_spatial, n_beta).strings:
            creators = [(2 * p, True) for p in range(n_spatial) if alpha >> p & 1]
            creators += [(2 * p + 1, True) for p in range(n_spatial) if beta >> p & 1]
            out.append(apply_ladder_string(creators, 0))
    return out


def fock_state(state) -> Wavefunction:
    """The determinant form of a state: a ``Wavefunction`` as it is, and a
    ``CiState`` through :func:`ci_determinants`, ascending by determinant,
    with its zero amplitudes dropped."""
    if isinstance(state, Wavefunction):
        return state
    dets = ci_determinants(state.n_spatial, state.n_alpha, state.n_beta)
    amplitudes = {
        det: sign * amp for (sign, det), amp in zip(dets, state.c.ravel().tolist()) if amp != 0
    }
    return Wavefunction(
        dict(sorted(amplitudes.items())), 2 * state.n_spatial, state.n_alpha + state.n_beta
    )


def oracle_rdm(state, k: int) -> Rdm:
    """Brute-force k-RDM of a normalized state in either form, the oracle
    of ``compute_rdm``: D = B+ B, with one row of B per reduced
    determinant r and one column per ascending tuple p1 < ... < pk,
    a_{p1} ... a_{pk} |psi> = sum_r B[r, (p1..pk)] |r>, gathered one
    determinant and one k-subset at a time through ``apply_ladder``."""
    wfn = fock_state(state)
    n = wfn.n_spin_orbitals
    col_of = {combo: c for c, combo in enumerate(combinations(range(n), k))}
    row_of: dict[int, int] = {}
    rows, cols, values = [], [], []
    for det, amp in wfn.amplitudes.items():
        occ = [i for i in range(n) if det >> i & 1]
        for combo in combinations(occ, k):
            # apply a_{p_k} first (rightmost), ascending combo
            sign, d = 1, det
            for p in reversed(combo):
                s, d = apply_ladder(d, p, False)
                sign *= s
            rows.append(row_of.setdefault(d, len(row_of)))
            cols.append(col_of[combo])
            values.append(sign * amp)
    values = np.asarray(values)
    b = np.zeros((len(row_of), len(col_of)), dtype=np.result_type(float, values))
    b[rows, cols] = values
    return Rdm(k, n, b.conj().T @ b)


def oracle_rdms(state) -> wick.RdmSet:
    """The brute-force RDMs of ranks 1-4 (:func:`oracle_rdm`)."""
    return wick.RdmSet({k: oracle_rdm(state, k) for k in range(1, 5)})


def full_space_expectation(bra, terms, ket) -> complex:
    """Brute-force oracle for the RDM and Wick modules:
    <bra| sum_t coeff_t string_t |ket> by explicit determinant application,
    on states in either form (:func:`fock_state`)."""
    bra, ket = fock_state(bra), fock_state(ket)
    if bra.n_spin_orbitals != ket.n_spin_orbitals:
        raise ValueError("bra and ket live in different Fock spaces")
    total = 0.0 + 0.0j
    for coeff, string in terms:
        for det, amp in ket.amplitudes.items():
            sign, new = apply_ladder_string(string, det, ket.n_spin_orbitals)
            if sign and new in bra.amplitudes:
                total += coeff * sign * np.conj(bra.amplitudes[new]) * amp
    return complex(total)


def rotation_generators(n_spatial: int, pairs) -> np.ndarray:
    """K_a = E_bi - E_ib for each rotation pair (i, b), stacked into an
    (n_pairs, n, n) array: the rotation kappa = sum_a x_a K_a of angles x."""
    generators = np.zeros((len(pairs), n_spatial, n_spatial))
    for k, (i, b) in zip(generators, pairs):
        k[b, i], k[i, b] = 1.0, -1.0
    return generators


def boys_function(m: int, x: float) -> float:
    """Boys function F_m(x) = int_0^1 t^{2m} exp(-x t^2) dt at one x, read
    off the package's batched Boys rows."""
    return float(_boys_rows(m, np.array([float(x)]))[m, 0])


class SlaterCondon:
    """Small-case FCI oracle: Hamiltonian matrix elements between
    interleaved spin-orbital determinants by the Slater-Condon rules, one
    element at a time, and the Hamiltonian as an explicit ladder-string
    list for ``full_space_expectation``.  Shares no code with the
    string-factored solver in ``vqse.fci``."""

    def __init__(self, mol: MolecularIntegrals):
        self.mol = mol
        self.n_spin = mol.n_spin
        self.h1s = h1_spin(mol)
        self.vas = eri_phys_antisym(mol)  # <ij||kl>
        self.constant = mol.constant

    def hamiltonian_terms(self):
        """Explicit (coefficient, ladder string) list."""
        terms = [(self.constant, [])]
        h2 = h2_spin(self.mol)
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


def embed_wavefunction(state, partition: OrbitalPartition, n_full: int):
    """Map an active-space state (in either form, :func:`fock_state`) into
    the full Fock space of ``n_full`` spin orbitals, next to a doubly
    occupied core (virtuals empty): active spin orbital k becomes
    ``partition.active_spin[k]``, in any order of the active orbitals.
    Each determinant takes the sign of putting its mapped creators in
    ascending order; a core pair commutes with every creator."""
    wfn = fock_state(state)
    spots = partition.active_spin
    core_spin = spatial_to_spin(partition.core)
    core = sum(1 << so for so in core_spin)
    amplitudes = {}
    for det, amp in wfn.amplitudes.items():
        occupied = [spots[i] for i in range(wfn.n_spin_orbitals) if det >> i & 1]
        inversions = sum(a > b for a, b in combinations(occupied, 2))
        amplitudes[core | sum(1 << so for so in occupied)] = (-1) ** inversions * amp
    return Wavefunction(amplitudes, n_full, wfn.n_electrons + len(core_spin))


def lifted_rdms(state, partition: OrbitalPartition):
    """(gamma, Gamma) over every orbital of ``partition``: the spin-summed
    brute-force RDMs of the active state lifted next to its doubly
    occupied core (``embed_wavefunction``)."""
    full = embed_wavefunction(state, partition, 2 * partition.n_spatial)
    return spin_summed_rdms(oracle_rdm(full, 1), oracle_rdm(full, 2))


def random_wavefunction(n_spin_orbitals, n_electrons, rng, sz=None, complex_amps=False):
    dets = sector_determinants(n_spin_orbitals, n_electrons, sz)
    amps = rng.normal(size=len(dets))
    if complex_amps:
        amps = amps + 1j * rng.normal(size=len(dets))
    return normalized(Wavefunction(dict(zip(dets, amps)), n_spin_orbitals, n_electrons))


def random_ci_state(n_spatial, n_alpha, n_beta, rng, complex_amps=False) -> CiState:
    """A normalized CI state of the (n_alpha, n_beta) block with
    independent normal amplitudes (real and imaginary parts with
    ``complex_amps``)."""
    shape = (math.comb(n_spatial, n_alpha), math.comb(n_spatial, n_beta))
    c = rng.normal(size=shape)
    if complex_amps:
        c = c + 1j * rng.normal(size=shape)
    return CiState(c / np.linalg.norm(c), n_spatial, n_alpha, n_beta)


def sector_states(n_spatial, n_electrons, rng, complex_amps=False) -> list:
    """One :func:`random_ci_state` per (n_alpha, n_beta) block of
    ``n_electrons`` over ``n_spatial`` orbitals, n_alpha ascending: the
    blocks that a state of no fixed S_z spans."""
    return [
        random_ci_state(n_spatial, a, n_electrons - a, rng, complex_amps)
        for a in range(max(0, n_electrons - n_spatial), min(n_electrons, n_spatial) + 1)
    ]


def determinant_state(n_spatial: int, det: int) -> CiState:
    """The CI state of one interleaved determinant ``det``, amplitude 1 on
    its product state (the determinant up to sign)."""
    alpha = sum((det >> 2 * p & 1) << p for p in range(n_spatial))
    beta = sum((det >> 2 * p + 1 & 1) << p for p in range(n_spatial))
    n_alpha, n_beta = bin(alpha).count("1"), bin(beta).count("1")
    rows = string_table(n_spatial, n_alpha).strings
    cols = string_table(n_spatial, n_beta).strings
    c = np.zeros((len(rows), len(cols)))
    c[rows.index(alpha), cols.index(beta)] = 1.0
    return CiState(c, n_spatial, n_alpha, n_beta)


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


def combined(*terms) -> Rdm:
    """The Rdm sum of coefficient * rdm over the (coefficient, rdm) pairs,
    all of one rank over one orbital count."""
    first = terms[0][1]
    return Rdm(first.k, first.n, sum(c * r.packed for c, r in terms))


def higher_cumulants(rdms):
    """Cumulants Delta2, Delta3, Delta4 (normalized convention, packed) of
    the RDMs ``{1: .., 4: ..}``, from the cumulant expansion written out
    with ``wedge``:

        D2 / 2! = Delta2 + D1 ^ D1
        D3 / 3! = Delta3 + 3 Delta2 ^ D1 + D1 ^ D1 ^ D1
        D4 / 4! = Delta4 + 4 Delta3 ^ D1 + 3 Delta2 ^ Delta2
                  + 6 Delta2 ^ D1 ^ D1 + D1 ^ D1 ^ D1 ^ D1
    """
    d1 = rdms[1]
    w11 = wedge(d1, d1)
    w111 = wedge(w11, d1)
    delta2 = combined((0.5, rdms[2]), (-1.0, w11))
    w21 = wedge(delta2, d1)
    delta3 = combined((1 / 6, rdms[3]), (-3.0, w21), (-1.0, w111))
    delta4 = combined(
        (1 / 24, rdms[4]),
        (-4.0, wedge(delta3, d1)),
        (-3.0, wedge(delta2, delta2)),
        (-6.0, wedge(w21, d1)),
        (-1.0, wedge(w111, d1)),
    )
    return delta2, delta3, delta4
