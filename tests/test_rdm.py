"""RDMs, wedge products, cumulant reconstruction, and noise injection."""

import math
import tracemalloc
from itertools import combinations, permutations

import numpy as np
import pytest

from conftest import (
    SlaterCondon,
    Wavefunction,
    combined,
    determinant_state,
    embed_wavefunction,
    fock_state,
    full_space_expectation,
    h2_case,
    hermitized,
    higher_cumulants,
    lifted_rdms,
    oracle_rdm,
    random_ci_state,
    random_wavefunction,
    rdm_from_tensor,
    rdm_trace,
    sector_states,
)
from vqse import ANGSTROM_PER_BOHR
from vqse.exceptions import PartitionError
from vqse.fci import build_hamiltonian_action, ground_state
from vqse.integrals import rotate_integrals
from vqse.oo import core_active_rdms
from vqse.rdm import (
    Rdm,
    _split_index,
    compute_rdm,
    cumulant_rdms,
    energy_from_rdms,
    inject_shot_noise,
    spin_summed_rdms,
    wedge,
)
from vqse.spaces import OrbitalPartition

TOL_EXACT = 1e-12
TOL_RECON = 1e-10


def _perm_sign(perm):
    sign = 1
    p = list(perm)
    for i in range(len(p)):
        while p[i] != i:
            j = p[i]
            p[i], p[j] = p[j], p[i]
            sign = -sign
    return sign


def wedge_oracle(a, b):
    """Full double permutation sum; assumes both operands antisymmetric."""
    ka, kb = a.ndim // 2, b.ndim // 2
    k = ka + kb
    n = a.shape[0]
    out = np.zeros((n,) * (2 * k), dtype=np.result_type(a, b))
    core = np.multiply.outer(a, b)
    for pu in permutations(range(k)):
        su = _perm_sign(pu)
        for pl in permutations(range(k)):
            sl = _perm_sign(pl)
            # core axes: a_up, a_lo, b_up, b_lo
            dest = (
                [pu[i] for i in range(ka)]
                + [k + pl[i] for i in range(ka)]
                + [pu[ka + i] for i in range(kb)]
                + [k + pl[ka + i] for i in range(kb)]
            )
            out += su * sl * np.moveaxis(core, range(2 * k), dest)
    return out / (math.factorial(k) ** 2)


def antisymmetry_oracle(t):
    """Signed average of every one of the k!^2 transposes of the full
    tensor within its upper and lower index groups."""
    k = t.ndim // 2
    out = np.zeros_like(t)
    for pu in permutations(range(k)):
        su = _perm_sign(pu)
        tu = t.transpose(tuple(pu) + tuple(range(k, 2 * k)))
        for pl in permutations(range(k)):
            sl = _perm_sign(pl)
            out += su * sl * tu.transpose(tuple(range(k)) + tuple(k + i for i in pl))
    return out / (math.factorial(k) ** 2)


# ---------------------------------------------------------------------------
# compute_rdm basics


def test_determinant_1rdm_is_occupation_diagonal():
    d1 = compute_rdm(determinant_state(3, 0b001101), 1)
    assert np.allclose(d1.tensor, np.diag([1.0, 0.0, 1.0, 1.0, 0.0, 0.0]), atol=TOL_EXACT)


def test_trace_identities():
    """On a complex state of every (n_alpha, n_beta) block of 4 electrons
    over 4 spatial orbitals."""
    n_e = 4
    for state in sector_states(4, n_e, np.random.default_rng(21), complex_amps=True):
        for k in range(1, 5):
            d = compute_rdm(state, k)
            expected = math.factorial(n_e) / math.factorial(n_e - k)
            assert rdm_trace(d).real == pytest.approx(expected, abs=1e-9)
            assert abs(rdm_trace(d).imag) < 1e-9


def test_rdm_matches_fock_space_oracle():
    """Every ordered element of the 1- to 4-RDM of a correlated complex
    4-electron state of each block over 3 spatial orbitals equals the
    brute-force expectation <a+_uk .. a+_u1 a_p1 .. a_pk>; the dtype
    follows the CI matrix."""
    rng = np.random.default_rng(24)
    for state in sector_states(3, 4, rng, complex_amps=True):
        wfn = fock_state(state)
        for k in range(1, 5):
            t = compute_rdm(state, k).tensor
            assert t.dtype == np.complex128
            for upper in combinations(range(6), k):
                for lower in combinations(range(6), k):
                    ops = [(u, True) for u in reversed(upper)] + [(p, False) for p in lower]
                    ref = full_space_expectation(wfn, [(1.0, ops)], wfn)
                    assert t[upper + lower] == pytest.approx(ref, abs=TOL_EXACT)
    for state in sector_states(3, 4, rng):
        assert all(compute_rdm(state, k).tensor.dtype == np.float64 for k in range(1, 5))


@pytest.mark.parametrize("n_spatial", [4, 6], ids=["8so", "12so"])
@pytest.mark.parametrize("n_alpha, n_beta", [(2, 2), (3, 1), (2, 0), (0, 0)])
@pytest.mark.parametrize("complex_amps", [False, True], ids=["real", "complex"])
def test_rdm_matches_brute_force_oracle(n_spatial, n_alpha, n_beta, complex_amps):
    """The packed RDMs of ranks 1-4 of a random CI state equal the
    brute-force gather over its determinants to 1e-14, on 8 and 12 spin
    orbitals, in the dtype of the CI matrix; ranks above n_alpha, and
    above the electron count (the zero matrix), included."""
    rng = np.random.default_rng(100 * n_spatial + 10 * n_alpha + n_beta)
    state = random_ci_state(n_spatial, n_alpha, n_beta, rng, complex_amps)
    for k in range(1, 5):
        d = compute_rdm(state, k)
        assert d.packed.dtype == (np.complex128 if complex_amps else np.float64)
        assert d.packed.shape == (math.comb(2 * n_spatial, k),) * 2
        assert np.max(np.abs(d.packed - oracle_rdm(state, k).packed)) < 1e-14, k
        if k > n_alpha + n_beta:
            assert not np.any(d.packed)


def test_rdm_peak_memory_over_sixteen_spin_orbitals():
    """A 4 alpha, 4 beta CI matrix over 8 orbitals (4900 determinants):
    ranks 1-2 equal the brute-force gather, ranks 3-4 pass the
    partial-trace identity, contracting one upper-lower pair of D_k to
    (N - k + 1) D_(k-1), and the rank 1-4 build stays under 45 MB.  The
    four packed outputs take 29.1 MB (26.5 MB for the 1820 x 1820 4-RDM),
    and the largest split of the 4-RDM holds a 784 x 784 B block, its
    B+ B and its scatter indices (14 MB together) while it runs."""
    state = random_ci_state(8, 4, 4, np.random.default_rng(16))
    tracemalloc.start()
    try:
        rdms = {k: compute_rdm(state, k) for k in range(1, 5)}
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    print(f"rank 1-4 build peak over 16 spin orbitals: {peak / 1e6:.1f} MB")
    assert peak < 45e6
    for k in (1, 2):
        assert np.max(np.abs(rdms[k].packed - oracle_rdm(state, k).packed)) < 1e-14, k
    for k in (3, 4):
        # sum_r D_k[(r, U), (r, P)] over the spin orbitals r, read at the
        # packed index and sign of each joined tuple (r, U)
        positions, signs = (a.reshape(16, -1) for a in _split_index(16, k, 1))
        traced = sum(
            np.outer(s, s) * rdms[k].packed[np.ix_(p, p)] for p, s in zip(positions, signs)
        )
        assert np.max(np.abs(traced - (8 - k + 1) * rdms[k - 1].packed)) < 1e-12, k


def test_rdm_vanishes_beyond_electron_count():
    for state in sector_states(3, 2, np.random.default_rng(22)):
        assert not np.any(compute_rdm(state, 3).tensor)


def test_rdm_hermiticity_and_antisymmetry():
    for state in sector_states(3, 3, np.random.default_rng(23), complex_amps=True):
        d2 = compute_rdm(state, 2)
        herm = hermitized(d2)
        assert np.max(np.abs(herm.tensor - d2.tensor)) < TOL_EXACT
        assert np.max(np.abs(antisymmetry_oracle(d2.tensor) - d2.tensor)) < TOL_EXACT
        # swapping two creators flips the sign
        assert np.max(np.abs(d2.tensor + d2.tensor.transpose(1, 0, 2, 3))) >= 0.0
        assert np.allclose(d2.tensor, -d2.tensor.transpose(1, 0, 2, 3), atol=TOL_EXACT)


def test_contracted_rdm_recursion():
    """Contracting one upper-lower index pair of D_k gives (N - k + 1) D_{k-1},
    read on the packed matrices: sum_r D_k[(r, U), (r, P)] at the packed
    index and sign of each joined tuple (r, U)."""
    n_e = 4
    for state in sector_states(4, n_e, np.random.default_rng(24)):
        for k in (2, 3, 4):
            dk = compute_rdm(state, k)
            dk1 = compute_rdm(state, k - 1)
            positions, signs = (a.reshape(8, -1) for a in _split_index(8, k, 1))
            traced = sum(
                np.outer(s, s) * dk.packed[np.ix_(p, p)] for p, s in zip(positions, signs)
            )
            assert np.max(np.abs(traced - (n_e - k + 1) * dk1.packed)) < 1e-9


def test_energy_from_rdms_matches_fci_eigenvalue():
    for basis in ("sto-3g", "6-31g"):
        case = h2_case(1.4 * ANGSTROM_PER_BOHR, basis)
        mol = case["mol"]
        energy, wfn = ground_state(build_hamiltonian_action(mol), 2, sz=0)
        gamma, big_gamma = spin_summed_rdms(compute_rdm(wfn, 1), compute_rdm(wfn, 2))
        assert energy_from_rdms(mol, gamma, big_gamma) == pytest.approx(energy, abs=TOL_RECON)


# ---------------------------------------------------------------------------
# wedge products


def test_wedge_with_zero_is_zero():
    rng = np.random.default_rng(25)
    a = Rdm(1, 3, rng.normal(size=(3, 3)))
    assert not np.any(wedge(a, Rdm(1, 3, np.zeros((3, 3)))).packed)


def test_wedge_determinant_reconstructs_2rdm():
    wfn = Wavefunction({0b0101: 1.0}, 4, 2)
    d1 = oracle_rdm(wfn, 1)
    d2 = oracle_rdm(wfn, 2)
    assert np.max(np.abs(2.0 * wedge(d1, d1).packed - d2.packed)) < TOL_EXACT


def test_wedge_matches_permutation_sum_oracle():
    rng = np.random.default_rng(26)
    n = 4
    a1 = rng.normal(size=(n, n))
    b1 = rng.normal(size=(n, n))
    a2 = antisymmetry_oracle(rng.normal(size=(n,) * 4))
    b2 = antisymmetry_oracle(rng.normal(size=(n,) * 4) + 1j * rng.normal(size=(n,) * 4))
    a3 = antisymmetry_oracle(rng.normal(size=(n,) * 6))
    for a, b in ((a1, b1), (a1, a2), (a2, b1), (a2, b2), (a3, b1), (b1, a3)):
        packed = wedge(rdm_from_tensor(a), rdm_from_tensor(b))
        assert np.max(np.abs(packed.tensor - wedge_oracle(a, b))) < TOL_EXACT


# ---------------------------------------------------------------------------
# cumulants


def test_determinant_cumulants_vanish_beyond_rank_one():
    wfn = Wavefunction({0b00110011: 1.0}, 8, 4)
    rdms = {k: oracle_rdm(wfn, k) for k in (1, 2, 3, 4)}
    for cumulant in higher_cumulants(rdms):
        assert np.max(np.abs(cumulant.packed)) < TOL_RECON


@pytest.mark.parametrize(
    "det, n_electrons",
    [(0b11, 2), (0b00001111, 4), (0b01010101, 4), (0b11000011, 4), (0b00011011, 4)],
    ids=["0b11", "0b00001111", "0b01010101", "0b11000011", "0b00011011"],
)
def test_cumulant_rdms_exact_on_determinants(det, n_electrons):
    """The rank-3 and rank-4 RDMs of a single determinant over 8 spin
    orbitals are rebuilt exactly from its 1- and 2-RDMs."""
    wfn = Wavefunction({det: 1.0}, 8, n_electrons)
    rebuilt = cumulant_rdms(oracle_rdm(wfn, 1), oracle_rdm(wfn, 2))
    for k in (3, 4):
        assert np.max(np.abs(rebuilt[k].packed - oracle_rdm(wfn, k).packed)) < TOL_RECON


@pytest.mark.parametrize("n, n_electrons", [(6, 3), (8, 2), (8, 4), (10, 4)])
def test_cumulant_rdms_match_the_explicit_expansion(n, n_electrons):
    """The recursion equals the cumulant expansion written out term by
    term with Delta3 = Delta4 = 0:
    D3 / 3! = 3 Delta2 ^ D1 + D1 ^ D1 ^ D1 and
    D4 / 4! = 3 Delta2 ^ Delta2 + 6 Delta2 ^ D1 ^ D1 + D1 ^ D1 ^ D1 ^ D1."""
    wfn = random_wavefunction(n, n_electrons, np.random.default_rng(n + n_electrons))
    d1, d2 = oracle_rdm(wfn, 1), oracle_rdm(wfn, 2)
    w11 = wedge(d1, d1)
    w111 = wedge(w11, d1)
    delta2 = combined((0.5, d2), (-1.0, w11))
    w21 = wedge(delta2, d1)
    expected = {
        3: combined((18.0, w21), (6.0, w111)),
        4: combined(
            (72.0, wedge(delta2, delta2)), (144.0, wedge(w21, d1)), (24.0, wedge(w111, d1))
        ),
    }
    rebuilt = cumulant_rdms(d1, d2)
    for k in (3, 4):
        assert np.max(np.abs(rebuilt[k].packed - expected[k].packed)) < 1e-15


def test_cumulant_rdms_peak_memory_over_twelve_spin_orbitals():
    """The rebuild reads and writes packed entries only: under 16 MB at 12
    spin orbitals, where one dense rank-3 tensor alone takes 24 MB."""
    wfn = random_wavefunction(12, 4, np.random.default_rng(32))
    d1, d2 = oracle_rdm(wfn, 1), oracle_rdm(wfn, 2)
    tracemalloc.start()
    try:
        cumulant_rdms(d1, d2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    print(f"cumulant rebuild peak over 12 spin orbitals: {peak / 1e6:.1f} MB")
    assert peak < 16e6


def test_two_electron_state_has_zero_4rdm_and_reports_error():
    state = random_ci_state(4, 1, 1, np.random.default_rng(28))
    d4 = compute_rdm(state, 4)
    assert not np.any(d4.packed)
    recon = cumulant_rdms(compute_rdm(state, 1), compute_rdm(state, 2))[4]
    err = float(np.max(np.abs(recon.packed)))
    print(f"rank-2 truncated 4-RDM reconstruction error, 2-electron state: {err:.3e}")
    assert err >= 0.0  # reported, nonzero in general


def test_correlated_four_electron_reconstruction_error_reported():
    """Two stacked two-orbital subsystems, 4 electrons in 8 spin orbitals."""
    rng = np.random.default_rng(29)
    wfn = random_wavefunction(8, 4, rng, sz=0)
    rdms = {k: oracle_rdm(wfn, k) for k in (1, 2, 3, 4)}
    exact = rdms[4].packed
    scale = float(np.max(np.abs(exact)))
    _, delta3, delta4 = higher_cumulants(rdms)
    rank2 = cumulant_rdms(rdms[1], rdms[2])[4].packed
    rank3 = rank2 + 24.0 * 4.0 * wedge(delta3, rdms[1]).packed
    for rank, recon in ((2, rank2), (3, rank3)):
        err = float(np.max(np.abs(recon - exact)))
        print(f"truncation rank {rank}: max 4-RDM reconstruction error {err:.3e} "
              f"(exact scale {scale:.3e})")
        assert err > 0.0
    # retaining every cumulant reproduces the exact tensor identically
    full = rank3 + 24.0 * delta4.packed
    assert np.max(np.abs(full - exact)) < TOL_RECON


def test_cumulant_4rdm_validation():
    rng = np.random.default_rng(30)
    d1 = oracle_rdm(random_wavefunction(4, 2, rng), 1)
    d2 = oracle_rdm(random_wavefunction(6, 2, rng), 2)
    for reconstruct in (cumulant_rdms, wedge):
        with pytest.raises(ValueError):
            reconstruct(d1, d2)


# ---------------------------------------------------------------------------
# spin-summed RDMs over the core and active orbitals


def test_composite_passthrough_without_core_or_virtual():
    """With no core and no virtual, ``core_active_rdms`` is the active
    state's own spin-summed RDMs."""
    rng = np.random.default_rng(31)
    wfn = random_wavefunction(6, 3, rng)
    d1, d2 = oracle_rdm(wfn, 1), oracle_rdm(wfn, 2)
    partition = OrbitalPartition(core=(), active=(0, 1, 2), virtual=())
    gamma, big_gamma = core_active_rdms(d1, d2, partition)
    expected1, expected2 = spin_summed_rdms(d1, d2)
    assert np.max(np.abs(gamma - expected1)) < TOL_EXACT
    assert np.max(np.abs(big_gamma - expected2)) < TOL_EXACT


def test_composite_all_core_gives_determinant_rdms():
    partition = OrbitalPartition(core=(0, 1), active=(), virtual=())
    empty1 = rdm_from_tensor(np.zeros((0, 0)))
    empty2 = rdm_from_tensor(np.zeros((0, 0, 0, 0)))
    gamma, big_gamma = core_active_rdms(empty1, empty2, partition)
    det = Wavefunction({0b1111: 1.0}, 4, 4)
    expected1, expected2 = spin_summed_rdms(oracle_rdm(det, 1), oracle_rdm(det, 2))
    assert np.max(np.abs(gamma - expected1)) < TOL_EXACT
    assert np.max(np.abs(big_gamma - expected2)) < TOL_EXACT


def test_composite_dimension_mismatch_raises():
    rng = np.random.default_rng(32)
    wfn = random_wavefunction(4, 2, rng)
    partition = OrbitalPartition(core=(0,), active=(1, 2, 3), virtual=())
    with pytest.raises(PartitionError):
        core_active_rdms(oracle_rdm(wfn, 1), oracle_rdm(wfn, 2), partition)


def test_composite_energy_identity_with_core():
    """The energy of ``core_active_rdms`` over the core and active
    orbitals equals the explicit full-Fock-space expectation of the
    embedded (core x active) state, H2/6-31G, 1 core."""
    rng = np.random.default_rng(33)
    case = h2_case(1.4 * ANGSTROM_PER_BOHR, "6-31g")
    mol = case["mol"]
    partition = OrbitalPartition(core=(0,), active=(1, 2), virtual=(3,))
    wfn = random_wavefunction(4, 2, rng, sz=0)
    gamma, big_gamma = core_active_rdms(oracle_rdm(wfn, 1), oracle_rdm(wfn, 2), partition)
    occupied = rotate_integrals(mol, np.eye(4)[:, [0, 1, 2]])
    e_rdm = energy_from_rdms(occupied, gamma, big_gamma)
    embedded = embed_wavefunction(wfn, partition, 8)
    terms = SlaterCondon(mol).hamiltonian_terms()
    e_ref = full_space_expectation(embedded, terms, embedded)
    assert e_rdm == pytest.approx(e_ref.real, abs=TOL_RECON)


def test_composite_embedding_matches_direct_rdms():
    """The closed-form ``core_active_rdms`` equals the spin-summed RDMs of
    the explicitly lifted core x active state: a core between active
    orbitals, a core with no active electron, two cores around three
    active orbitals, and random states with no S_z restriction (not a
    singlet) and of 2 S_z = 2."""
    rng = np.random.default_rng(34)
    between = OrbitalPartition(core=(1,), active=(0, 2), virtual=(3,))
    below = OrbitalPartition(core=(0,), active=(1, 2), virtual=(3,))
    two_cores = OrbitalPartition(core=(0, 2), active=(1, 3, 4), virtual=(5,))
    cases = (
        (between, random_wavefunction(4, 2, rng)),
        (between, random_wavefunction(4, 2, rng, sz=2)),
        (below, Wavefunction({0: 1.0}, 4, 0)),
        (below, random_wavefunction(4, 3, rng)),
        (two_cores, random_wavefunction(6, 3, rng)),
    )
    for partition, wfn in cases:
        gamma, big_gamma = core_active_rdms(oracle_rdm(wfn, 1), oracle_rdm(wfn, 2), partition)
        full1, full2 = lifted_rdms(wfn, partition)
        support = sorted(partition.core + partition.active)
        expected1, expected2 = full1[np.ix_(support, support)], full2[np.ix_(*[support] * 4)]
        assert np.max(np.abs(gamma - expected1)) < TOL_EXACT, partition
        assert np.max(np.abs(big_gamma - expected2)) < TOL_EXACT, partition


# ---------------------------------------------------------------------------
# shot noise


def test_shot_noise_deterministic():
    rng = np.random.default_rng(35)
    wfn = random_wavefunction(6, 2, rng)
    d2 = oracle_rdm(wfn, 2)
    a = inject_shot_noise(d2, 1e4, seed=7)
    b = inject_shot_noise(d2, 1e4, seed=7)
    assert np.array_equal(a.tensor, b.tensor)
    c = inject_shot_noise(d2, 1e4, seed=8)
    assert np.max(np.abs(a.tensor - c.tensor)) > 0.0


def test_shot_noise_infinite_limit():
    rng = np.random.default_rng(36)
    wfn = random_wavefunction(6, 2, rng)
    d2 = oracle_rdm(wfn, 2)
    noisy = inject_shot_noise(d2, 1e16, seed=0)
    assert np.max(np.abs(noisy.tensor - d2.tensor)) < 1e-7


def test_shot_noise_preserves_structure():
    rng = np.random.default_rng(37)
    wfn = random_wavefunction(6, 2, rng)
    d2 = oracle_rdm(wfn, 2)
    noisy = inject_shot_noise(d2, 1e4, seed=1)
    assert np.max(np.abs(noisy.tensor - hermitized(noisy).tensor)) < TOL_EXACT
    assert np.max(np.abs(noisy.tensor - antisymmetry_oracle(noisy.tensor))) < TOL_EXACT
    with pytest.raises(ValueError):
        inject_shot_noise(d2, 0, seed=0)


def test_shot_noise_is_packed_gaussian_of_std_over_k_factorial():
    """The noise on the packed entries is i.i.d. Gaussian with std
    n_shots^-1/2 / k!, the projection of i.i.d. dense noise of std
    n_shots^-1/2: after the Hermitization each diagonal entry keeps that
    std and each entry above it has 1/sqrt(2) of it, at ranks 1-3."""
    n, n_shots = 12, 100.0
    for k in (1, 2, 3):
        zero = Rdm(k, n, np.zeros((math.comb(n, k),) * 2))
        upper = np.triu_indices(math.comb(n, k), 1)
        samples, seed = [], 0
        while sum(x.size for x in samples) < 20000:
            noise = inject_shot_noise(zero, n_shots, seed).packed
            samples += [np.diag(noise), np.sqrt(2.0) * noise[upper]]
            seed += 1
        z = np.concatenate(samples) * n_shots**0.5 * math.factorial(k)
        print(f"rank {k}: std {z.std():.4f} over {z.size} entries, mean {z.mean():+.4f}")
        assert abs(z.std() - 1.0) < 0.03, k
        assert abs(z.mean()) < 0.03, k


def test_rank4_shot_noise_over_eight_spin_orbitals():
    """The noisy 4-RDM of a 4-electron state over 8 spin orbitals is
    antisymmetric, Hermitian and fixed by its seed."""
    rng = np.random.default_rng(40)
    d4 = oracle_rdm(random_wavefunction(8, 4, rng, sz=0), 4)
    noisy = inject_shot_noise(d4, 1e4, seed=5)
    # Hermitian as a packed matrix: swapping the upper and lower groups of
    # the tensor transposes the matrix over ascending tuples
    p = noisy.packed
    assert np.max(np.abs(p - p.conj().T)) < TOL_EXACT
    assert np.max(np.abs(p - d4.packed)) > 0.0
    assert np.array_equal(p, inject_shot_noise(d4, 1e4, seed=5).packed)
    t = noisy.tensor  # gathered once, 8^8 entries
    buf = np.empty_like(t)  # one 8^8 temporary for every check
    # odd under each adjacent transposition within the upper and lower groups
    for i in (0, 1, 2, 4, 5, 6):
        swap = list(range(8))
        swap[i], swap[i + 1] = swap[i + 1], swap[i]
        np.add(t, t.transpose(swap), out=buf)
        assert np.max(np.abs(buf, out=buf)) < TOL_EXACT, i
    sub = np.ix_(*[[0, 2, 3, 5, 7]] * 8)
    assert np.max(np.abs(t[sub] - antisymmetry_oracle(t[sub]))) < TOL_EXACT
