"""RDMs, wedge products, cumulant reconstruction, and noise injection."""

import math
from itertools import combinations, permutations

import numpy as np
import pytest

from conftest import (
    SlaterCondon,
    antisymmetry_project,
    embed_wavefunction,
    h2_case,
    hermitized,
    higher_cumulants,
    random_wavefunction,
    rdm_trace,
)
from vqse import ANGSTROM_PER_BOHR
from vqse.exceptions import PartitionError
from vqse.fci import Wavefunction, build_hamiltonian_action, full_space_expectation, ground_state
from vqse.rdm import (
    Rdm,
    composite_full_rdms,
    compute_rdm,
    cumulant_3rdm,
    cumulant_4rdm,
    delta2,
    energy_from_rdms,
    inject_shot_noise,
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
    wfn = Wavefunction({0b01101: 1.0}, 5, 3)
    d1 = compute_rdm(wfn, 1)
    assert np.allclose(d1.tensor, np.diag([1.0, 0.0, 1.0, 1.0, 0.0]), atol=TOL_EXACT)


def test_trace_identities():
    rng = np.random.default_rng(21)
    wfn = random_wavefunction(8, 4, rng, complex_amps=True)
    n_e = 4
    for k in range(1, 5):
        d = compute_rdm(wfn, k)
        expected = math.factorial(n_e) / math.factorial(n_e - k)
        assert rdm_trace(d).real == pytest.approx(expected, abs=1e-9)
        assert abs(rdm_trace(d).imag) < 1e-9


def test_rdm_matches_fock_space_oracle():
    """Every ordered element of the 1- to 4-RDM of a correlated complex
    4-electron state equals the brute-force expectation
    <a+_uk .. a+_u1 a_p1 .. a_pk>; the dtype follows the amplitudes."""
    rng = np.random.default_rng(24)
    wfn = random_wavefunction(6, 4, rng, complex_amps=True)
    for k in range(1, 5):
        d = compute_rdm(wfn, k)
        assert d.tensor.dtype == np.complex128
        for upper in combinations(range(6), k):
            for lower in combinations(range(6), k):
                ops = [(u, True) for u in reversed(upper)] + [(p, False) for p in lower]
                ref = full_space_expectation(wfn, [(1.0, ops)], wfn)
                assert d.tensor[upper + lower] == pytest.approx(ref, abs=TOL_EXACT)
    real = random_wavefunction(6, 4, rng)
    assert all(compute_rdm(real, k).tensor.dtype == np.float64 for k in range(1, 5))


def test_rdm_vanishes_beyond_electron_count():
    rng = np.random.default_rng(22)
    wfn = random_wavefunction(6, 2, rng)
    d3 = compute_rdm(wfn, 3)
    assert not np.any(d3.tensor)


def test_rdm_hermiticity_and_antisymmetry():
    rng = np.random.default_rng(23)
    wfn = random_wavefunction(6, 3, rng, complex_amps=True)
    d2 = compute_rdm(wfn, 2)
    herm = hermitized(d2)
    assert np.max(np.abs(herm.tensor - d2.tensor)) < TOL_EXACT
    assert np.max(np.abs(antisymmetry_project(d2.tensor) - d2.tensor)) < TOL_EXACT
    # swapping two creators flips the sign
    assert np.max(np.abs(d2.tensor + d2.tensor.transpose(1, 0, 2, 3))) >= 0.0
    assert np.allclose(d2.tensor, -d2.tensor.transpose(1, 0, 2, 3), atol=TOL_EXACT)


def test_contracted_rdm_recursion():
    """Contracting one upper-lower index pair of D_k gives (N - k + 1) D_{k-1}."""
    rng = np.random.default_rng(24)
    wfn = random_wavefunction(8, 4, rng)
    n_e = 4
    for k in (2, 3, 4):
        dk = compute_rdm(wfn, k)
        dk1 = compute_rdm(wfn, k - 1)
        traced = np.trace(dk.tensor, axis1=0, axis2=k)
        assert np.max(np.abs(traced - (n_e - k + 1) * dk1.tensor)) < 1e-9


def test_energy_from_rdms_matches_fci_eigenvalue():
    for basis in ("sto-3g", "6-31g"):
        case = h2_case(1.4 * ANGSTROM_PER_BOHR, basis)
        mol = case["mol"]
        energy, wfn = ground_state(build_hamiltonian_action(mol), 2, sz=0)
        d1 = compute_rdm(wfn, 1)
        d2 = compute_rdm(wfn, 2)
        assert energy_from_rdms(mol, d1, d2) == pytest.approx(energy, abs=TOL_RECON)


# ---------------------------------------------------------------------------
# wedge products


def test_wedge_with_zero_is_zero():
    rng = np.random.default_rng(25)
    a = rng.normal(size=(3, 3))
    assert not np.any(wedge(a, np.zeros((3, 3))))


def test_wedge_determinant_reconstructs_2rdm():
    wfn = Wavefunction({0b0101: 1.0}, 4, 2)
    d1 = compute_rdm(wfn, 1)
    d2 = compute_rdm(wfn, 2)
    assert np.max(np.abs(2.0 * wedge(d1.tensor, d1.tensor) - d2.tensor)) < TOL_EXACT


def test_wedge_matches_permutation_sum_oracle():
    rng = np.random.default_rng(26)
    n = 4
    a1 = rng.normal(size=(n, n))
    b1 = rng.normal(size=(n, n))
    assert np.max(np.abs(wedge(a1, b1) - wedge_oracle(a1, b1))) < TOL_EXACT
    a2 = antisymmetry_project(rng.normal(size=(n,) * 4))
    assert np.max(np.abs(wedge(a1, a2) - wedge_oracle(a1, a2))) < TOL_EXACT
    assert np.max(np.abs(wedge(a2, b1) - wedge_oracle(a2, b1))) < TOL_EXACT
    b2 = antisymmetry_project(rng.normal(size=(n,) * 4) + 1j * rng.normal(size=(n,) * 4))
    assert np.max(np.abs(wedge(a2, b2) - wedge_oracle(a2, b2))) < TOL_EXACT
    a3 = antisymmetry_project(rng.normal(size=(n,) * 6))
    assert np.max(np.abs(wedge(a3, b1) - wedge_oracle(a3, b1))) < TOL_EXACT
    assert np.max(np.abs(wedge(b1, a3) - wedge_oracle(b1, a3))) < TOL_EXACT


# ---------------------------------------------------------------------------
# cumulants


def test_determinant_cumulants_vanish_beyond_rank_one():
    wfn = Wavefunction({0b00110011: 1.0}, 8, 4)
    rdms = {k: compute_rdm(wfn, k) for k in (1, 2, 3, 4)}
    delta3, delta4 = higher_cumulants(rdms)
    assert np.max(np.abs(delta2(rdms[1], rdms[2]))) < TOL_RECON
    assert np.max(np.abs(delta3)) < TOL_RECON
    assert np.max(np.abs(delta4)) < TOL_RECON


def test_cumulant_4rdm_exact_on_determinants():
    # the mean-field determinant of a 4-orbital (8 spin orbital) problem
    # and a 4-electron determinant
    hf = Wavefunction({0b11: 1.0}, 8, 2)
    for wfn in (hf, Wavefunction({0b01010101: 1.0}, 8, 4)):
        d1 = compute_rdm(wfn, 1)
        d2 = compute_rdm(wfn, 2)
        d4 = compute_rdm(wfn, 4)
        recon = cumulant_4rdm(d1, d2)
        assert np.max(np.abs(recon.tensor - d4.tensor)) < TOL_RECON


def test_cumulant_3rdm_exact_on_determinants():
    wfn = Wavefunction({0b00011011: 1.0}, 8, 4)
    recon = cumulant_3rdm(compute_rdm(wfn, 1), compute_rdm(wfn, 2))
    assert np.max(np.abs(recon.tensor - compute_rdm(wfn, 3).tensor)) < TOL_RECON


def test_two_electron_state_has_zero_4rdm_and_reports_error():
    rng = np.random.default_rng(28)
    wfn = random_wavefunction(8, 2, rng, sz=0)
    d4 = compute_rdm(wfn, 4)
    assert not np.any(d4.tensor)
    recon = cumulant_4rdm(compute_rdm(wfn, 1), compute_rdm(wfn, 2))
    err = float(np.max(np.abs(recon.tensor)))
    print(f"rank-2 truncated 4-RDM reconstruction error, 2-electron state: {err:.3e}")
    assert err >= 0.0  # reported, nonzero in general


def test_correlated_four_electron_reconstruction_error_reported():
    """Two stacked two-orbital subsystems, 4 electrons in 8 spin orbitals."""
    rng = np.random.default_rng(29)
    wfn = random_wavefunction(8, 4, rng, sz=0)
    rdms = {k: compute_rdm(wfn, k) for k in (1, 2, 3, 4)}
    exact = rdms[4].tensor
    scale = float(np.max(np.abs(exact)))
    delta3, delta4 = higher_cumulants(rdms)
    rank2 = cumulant_4rdm(rdms[1], rdms[2]).tensor
    rank3 = rank2 + 24.0 * 4.0 * wedge(delta3, rdms[1].tensor)
    for rank, recon in ((2, rank2), (3, rank3)):
        err = float(np.max(np.abs(recon - exact)))
        print(f"truncation rank {rank}: max 4-RDM reconstruction error {err:.3e} "
              f"(exact scale {scale:.3e})")
        assert err > 0.0
    # retaining every cumulant reproduces the exact tensor identically
    full = rank3 + 24.0 * delta4
    assert np.max(np.abs(full - exact)) < TOL_RECON


def test_cumulant_4rdm_validation():
    rng = np.random.default_rng(30)
    d1 = compute_rdm(random_wavefunction(4, 2, rng), 1)
    d2 = compute_rdm(random_wavefunction(6, 2, rng), 2)
    for reconstruct in (delta2, cumulant_3rdm, cumulant_4rdm):
        with pytest.raises(ValueError):
            reconstruct(d1, d2)


# ---------------------------------------------------------------------------
# composite full-space RDMs


def test_composite_passthrough_without_core_or_virtual():
    rng = np.random.default_rng(31)
    wfn = random_wavefunction(6, 3, rng)
    d1, d2 = compute_rdm(wfn, 1), compute_rdm(wfn, 2)
    partition = OrbitalPartition(core=(), active=(0, 1, 2), virtual=())
    f1, f2 = composite_full_rdms(d1, d2, partition)
    assert np.max(np.abs(f1.tensor - d1.tensor)) < TOL_EXACT
    assert np.max(np.abs(f2.tensor - d2.tensor)) < TOL_EXACT


def test_composite_all_core_gives_determinant_rdms():
    partition = OrbitalPartition(core=(0, 1), active=(), virtual=())
    empty1 = Rdm(1, 0, np.zeros((0, 0)))
    empty2 = Rdm(2, 0, np.zeros((0, 0, 0, 0)))
    f1, f2 = composite_full_rdms(empty1, empty2, partition)
    det = Wavefunction({0b1111: 1.0}, 4, 4)
    assert np.max(np.abs(f1.tensor - compute_rdm(det, 1).tensor)) < TOL_EXACT
    assert np.max(np.abs(f2.tensor - compute_rdm(det, 2).tensor)) < TOL_EXACT


def test_composite_dimension_mismatch_raises():
    rng = np.random.default_rng(32)
    wfn = random_wavefunction(4, 2, rng)
    partition = OrbitalPartition(core=(0,), active=(1, 2, 3), virtual=())
    with pytest.raises(PartitionError):
        composite_full_rdms(compute_rdm(wfn, 1), compute_rdm(wfn, 2), partition)


def test_composite_energy_identity_with_core():
    """Energy from composite RDMs equals the explicit full-Fock-space
    expectation of the embedded (core x active) state, H2/6-31G, 1 core."""
    rng = np.random.default_rng(33)
    case = h2_case(1.4 * ANGSTROM_PER_BOHR, "6-31g")
    mol = case["mol"]
    partition = OrbitalPartition(core=(0,), active=(1, 2), virtual=(3,))
    wfn = random_wavefunction(4, 2, rng, sz=0)
    d1, d2 = compute_rdm(wfn, 1), compute_rdm(wfn, 2)
    f1, f2 = composite_full_rdms(d1, d2, partition)
    e_rdm = energy_from_rdms(mol, f1, f2)
    lifted = {}
    for det, amp in wfn.amplitudes.items():
        full = 0b11  # core spin orbitals 0, 1 occupied
        for bit, so in enumerate(partition.active_spin):
            if det >> bit & 1:
                full |= 1 << so
        lifted[full] = amp
    embedded = Wavefunction(lifted, 8, 4)
    terms = SlaterCondon(mol).hamiltonian_terms()
    e_ref = full_space_expectation(embedded, terms, embedded)
    assert e_rdm == pytest.approx(e_ref.real, abs=TOL_RECON)


def test_composite_embedding_matches_direct_rdms():
    """Composite tensors equal the RDMs of the explicitly embedded state."""
    rng = np.random.default_rng(34)
    partition = OrbitalPartition(core=(0,), active=(1, 2), virtual=(3,))
    wfn = random_wavefunction(4, 2, rng, sz=0)
    f1, f2 = composite_full_rdms(compute_rdm(wfn, 1), compute_rdm(wfn, 2), partition)
    lifted = {}
    for det, amp in wfn.amplitudes.items():
        full = 0b11
        for bit, so in enumerate(partition.active_spin):
            if det >> bit & 1:
                full |= 1 << so
        lifted[full] = amp
    embedded = Wavefunction(lifted, 8, 4)
    assert np.max(np.abs(f1.tensor - compute_rdm(embedded, 1).tensor)) < TOL_RECON
    assert np.max(np.abs(f2.tensor - compute_rdm(embedded, 2).tensor)) < TOL_RECON


# ---------------------------------------------------------------------------
# shot noise


def test_shot_noise_deterministic():
    rng = np.random.default_rng(35)
    wfn = random_wavefunction(6, 2, rng)
    d2 = compute_rdm(wfn, 2)
    a = inject_shot_noise(d2, 1e4, seed=7)
    b = inject_shot_noise(d2, 1e4, seed=7)
    assert np.array_equal(a.tensor, b.tensor)
    c = inject_shot_noise(d2, 1e4, seed=8)
    assert np.max(np.abs(a.tensor - c.tensor)) > 0.0


def test_shot_noise_infinite_limit():
    rng = np.random.default_rng(36)
    wfn = random_wavefunction(6, 2, rng)
    d2 = compute_rdm(wfn, 2)
    noisy = inject_shot_noise(d2, 1e16, seed=0)
    assert np.max(np.abs(noisy.tensor - d2.tensor)) < 1e-7


def test_shot_noise_preserves_structure():
    rng = np.random.default_rng(37)
    wfn = random_wavefunction(6, 2, rng)
    d2 = compute_rdm(wfn, 2)
    noisy = inject_shot_noise(d2, 1e4, seed=1)
    assert np.max(np.abs(noisy.tensor - hermitized(noisy).tensor)) < TOL_EXACT
    assert np.max(np.abs(noisy.tensor - antisymmetry_project(noisy.tensor))) < TOL_EXACT
    with pytest.raises(ValueError):
        inject_shot_noise(d2, 0, seed=0)


def test_antisymmetry_project_idempotent():
    rng = np.random.default_rng(38)
    t = rng.normal(size=(3,) * 4)
    once = antisymmetry_project(t)
    assert np.max(np.abs(antisymmetry_project(once) - once)) < TOL_EXACT


def test_antisymmetry_project_matches_transpose_oracle():
    """The packed projection equals the signed average of all k!^2 full
    transposes, real and complex, at ranks 1-4."""
    rng = np.random.default_rng(39)
    for k, n in ((1, 6), (2, 6), (3, 6), (4, 5)):
        t = rng.normal(size=(n,) * (2 * k))
        for tensor in (t, t + 1j * rng.normal(size=t.shape)):
            projected = antisymmetry_project(tensor)
            assert projected.dtype == tensor.dtype
            assert np.max(np.abs(projected - antisymmetry_oracle(tensor))) < TOL_EXACT, k


def test_rank4_shot_noise_over_eight_spin_orbitals():
    """The noisy 4-RDM of a 4-electron state over 8 spin orbitals is
    antisymmetric, Hermitian and fixed by its seed."""
    rng = np.random.default_rng(40)
    d4 = compute_rdm(random_wavefunction(8, 4, rng, sz=0), 4)
    noisy = inject_shot_noise(d4, 1e4, seed=5)
    t = noisy.tensor
    assert np.max(np.abs(t - hermitized(noisy).tensor)) < TOL_EXACT
    # odd under each adjacent transposition within the upper and lower groups
    for i in (0, 1, 2, 4, 5, 6):
        swap = list(range(8))
        swap[i], swap[i + 1] = swap[i + 1], swap[i]
        assert np.max(np.abs(t + t.transpose(swap))) < TOL_EXACT, i
    sub = np.ix_(*[[0, 2, 3, 5, 7]] * 8)
    assert np.max(np.abs(t[sub] - antisymmetry_oracle(t[sub]))) < TOL_EXACT
    assert np.max(np.abs(t - d4.tensor)) > 0.0
    assert np.array_equal(t, inject_shot_noise(d4, 1e4, seed=5).tensor)
