"""Determinant algebra, the string-factored Hamiltonian, and exact solves."""

import functools
import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from conftest import (
    SlaterCondon,
    apply_ladder_string,
    full_space_expectation,
    h2_case,
    h4_chain_mol,
    normalized,
    overlap,
    random_wavefunction,
    sector_blocks,
    sector_determinants,
    wavefunction_norm,
)
from test_integrals import random_symmetric_integrals
from vqse import ANGSTROM_PER_BOHR, fci
from vqse.exceptions import ConvergenceError
from vqse.fci import (
    Wavefunction,
    apply_ladder,
    build_hamiltonian_action,
    ground_state,
)
from vqse.integrals import MolecularIntegrals

TOL_EXACT = 1e-12
TOL_VECTOR = 1e-10


def sector_matrix(mol, n_electrons, sz=None):
    """The production blocks put together over the sector's interleaved
    determinants, ascending, with zeros between blocks."""
    dets, blocks = [], []
    for block in sector_blocks(build_hamiltonian_action(mol), n_electrons, sz):
        phase = block.phase()
        dets += block.determinants().tolist()
        blocks.append(phase[:, None] * block.matrix() * phase[None, :])
    order = np.argsort(dets)
    h = scipy.linalg.block_diag(*blocks)
    return [dets[i] for i in order], h[np.ix_(order, order)]


@functools.lru_cache(maxsize=None)
def h4_oracle():
    """Determinants and Slater-Condon matrix of the H4/6-31G Sz = 0 sector."""
    mol = h4_chain_mol("6-31g")
    dets = sector_determinants(mol.n_spin, 4, 0)
    return dets, SlaterCondon(mol).dense_matrix(dets)


# ---------------------------------------------------------------------------
# ladder operators


def test_creation_on_vacuum():
    assert apply_ladder(0b0, 0, True) == (1, 0b1)


def test_double_annihilation_kills():
    sign, _ = apply_ladder_string([(0, False), (0, False)], 0b1)
    assert sign == 0


def test_double_creation_kills():
    sign, _ = apply_ladder(0b1, 0, True)
    assert sign == 0


def test_anticommutation_sign():
    # a1+ a0+ |vac> vs a0+ a1+ |vac>: same determinant, opposite signs
    s_a, det_a = apply_ladder_string([(1, True), (0, True)], 0b0)
    s_b, det_b = apply_ladder_string([(0, True), (1, True)], 0b0)
    assert det_a == det_b == 0b11
    assert s_a == -s_b


def test_parity_accumulates_through_occupied():
    # annihilating orbital 2 of |0111> crosses two occupied orbitals
    sign, det = apply_ladder(0b0111, 2, False)
    assert (sign, det) == (1, 0b0011)
    sign, det = apply_ladder(0b0110, 2, False)
    assert (sign, det) == (-1, 0b0010)


def test_ladder_string_index_validation():
    with pytest.raises(ValueError):
        apply_ladder_string([(5, True)], 0b0, n_spin_orbitals=4)


# ---------------------------------------------------------------------------
# sectors and wavefunctions


def test_sector_determinant_counts():
    assert len(sector_determinants(4, 2)) == 6
    assert len(sector_determinants(4, 2, sz=0)) == 4
    assert len(sector_determinants(8, 2, sz=0)) == 16
    assert len(sector_determinants(6, 3, sz=1)) == math.comb(3, 2) * math.comb(3, 1)


def test_sector_determinants_sorted_and_sz_filtered():
    dets = sector_determinants(4, 2, sz=0)
    assert dets == sorted(dets)
    for det in dets:
        n_alpha = sum(1 for i in (0, 2) if det >> i & 1)
        n_beta = sum(1 for i in (1, 3) if det >> i & 1)
        assert n_alpha == n_beta == 1


def test_normalized_and_overlap():
    wfn = Wavefunction({0b0011: 3.0, 0b1100: 4.0}, 4, 2)
    assert wavefunction_norm(wfn) == pytest.approx(5.0, abs=TOL_EXACT)
    unit = normalized(wfn)
    assert wavefunction_norm(unit) == pytest.approx(1.0, abs=TOL_EXACT)
    assert overlap(unit, unit) == pytest.approx(1.0, abs=TOL_EXACT)


# ---------------------------------------------------------------------------
# Hamiltonian action


def test_one_orbital_closed_form_diagonal():
    mol = MolecularIntegrals(
        n_spatial=1, e_nuc=0.4, h1=np.array([[-1.0]]), eri=np.full((1, 1, 1, 1), 0.5)
    )
    assert SlaterCondon(mol).diagonal(0b11) == pytest.approx(-2.0 + 0.5 + 0.4, abs=TOL_EXACT)
    assert sector_matrix(mol, 2, 0)[1][0, 0] == pytest.approx(-2.0 + 0.5 + 0.4, abs=TOL_EXACT)


def test_zero_integrals_zero_action():
    mol = MolecularIntegrals(
        n_spatial=2, e_nuc=0.0, h1=np.zeros((2, 2)), eri=np.zeros((2, 2, 2, 2))
    )
    for block in sector_blocks(build_hamiltonian_action(mol), 2):
        c = np.zeros(block.shape)
        c[0, 0] = 1.0
        assert np.all(np.abs(block.sigma(c)) < TOL_EXACT)
        assert np.all(np.abs(block.matrix()) < TOL_EXACT)


def test_dense_matrix_matches_operator_string_application():
    """Slater-Condon elements vs explicit term-by-term ladder application."""
    rng = np.random.default_rng(5)
    mol = random_symmetric_integrals(3, rng, e_nuc=0.2)
    oracle = SlaterCondon(mol)
    terms = oracle.hamiltonian_terms()
    dets = sector_determinants(6, 3)
    h_fast = oracle.dense_matrix(dets)
    for a, da in enumerate(dets):
        bra = Wavefunction({da: 1.0}, 6, 3)
        for b, db in enumerate(dets):
            ket = Wavefunction({db: 1.0}, 6, 3)
            ref = full_space_expectation(bra, terms, ket)
            assert h_fast[a, b] == pytest.approx(ref.real, abs=TOL_EXACT), (da, db)


def test_apply_matches_dense_matrix():
    """The sigma-build of every 2-electron block against the oracle matrix."""
    rng = np.random.default_rng(6)
    mol = random_symmetric_integrals(3, rng, e_nuc=-0.1)
    action = build_hamiltonian_action(mol)
    dets = sector_determinants(6, 2)
    h = SlaterCondon(mol).dense_matrix(dets)
    x = rng.normal(size=len(dets))
    ref = dict(zip(dets, h @ x))
    for block in sector_blocks(action, 2):
        phase = block.phase()
        xb = np.array([x[dets.index(d)] for d in block.determinants()]) * phase
        hx = block.sigma(xb.reshape(block.shape)).ravel() * phase
        for det, value in zip(block.determinants(), hx):
            assert value == pytest.approx(ref[det], abs=1e-10)


@pytest.mark.parametrize("n_electrons, sz", [(3, None), (3, 1), (2, 0), (0, 0), (6, 0)])
def test_string_matrix_matches_slater_condon(n_electrons, sz):
    """Random integrals over 3 spatial orbitals, including the 0-electron
    sector and the 1-determinant (filled) sector."""
    mol = random_symmetric_integrals(3, np.random.default_rng(21), e_nuc=0.4)
    dets, h = sector_matrix(mol, n_electrons, sz)
    assert dets == sector_determinants(6, n_electrons, sz)
    assert np.max(np.abs(h - SlaterCondon(mol).dense_matrix(dets))) < TOL_EXACT


def test_string_matrix_matches_slater_condon_h4_631g():
    dets, h = sector_matrix(h4_chain_mol("6-31g"), 4, 0)
    ref_dets, ref = h4_oracle()
    assert dets == ref_dets and len(dets) == 784
    assert np.max(np.abs(h - ref)) < TOL_EXACT


@pytest.mark.parametrize("molecule", ["h2", "h4"])
def test_sigma_matches_dense_matrix(molecule):
    """On random CI vectors, over every block of the sector."""
    if molecule == "h2":
        mol, n_electrons = h2_case(1.4 * ANGSTROM_PER_BOHR, "6-31g")["mol"], 2
    else:
        mol, n_electrons = h4_chain_mol("6-31g"), 4
    rng = np.random.default_rng(22)
    for block in sector_blocks(build_hamiltonian_action(mol), n_electrons):
        c = rng.normal(size=block.shape)
        ref = block.matrix() @ c.ravel()
        assert np.max(np.abs(block.sigma(c).ravel() - ref)) < TOL_EXACT


# ---------------------------------------------------------------------------
# ground states


def test_ground_state_matches_oracle_eigenvector():
    dets, h = h4_oracle()
    evals, evecs = np.linalg.eigh(h)
    ref = evecs[:, 0] * np.sign(evecs[np.argmax(np.abs(evecs[:, 0])), 0])
    energy, wfn = ground_state(build_hamiltonian_action(h4_chain_mol("6-31g")), 4, sz=0)
    assert energy == pytest.approx(evals[0], abs=TOL_VECTOR)
    assert list(wfn.amplitudes) == dets
    amps = np.array(list(wfn.amplitudes.values()))
    assert np.max(np.abs(amps - ref)) < TOL_VECTOR


def test_davidson_branch_matches_dense_and_is_deterministic(monkeypatch):
    """Above DENSE_LIMIT the solve goes through Davidson over the
    sigma-build; its fixed start subspace makes repeated calls
    bit-identical."""
    action = build_hamiltonian_action(h4_chain_mol("6-31g"))
    (block,) = sector_blocks(action, 4, sz=0)
    assert block.size == 784 > fci.DENSE_LIMIT
    e_first, first = ground_state(action, 4, sz=0)
    e_second, second = ground_state(action, 4, sz=0)
    monkeypatch.setattr(fci, "DENSE_LIMIT", block.size)
    e_dense, dense = ground_state(action, 4, sz=0)
    assert e_first == e_second
    assert list(first.amplitudes.items()) == list(second.amplitudes.items())
    assert e_first == pytest.approx(e_dense, abs=TOL_VECTOR)
    assert list(first.amplitudes) == list(dense.amplitudes)
    diff = [first.amplitudes[d] - a for d, a in dense.amplitudes.items()]
    assert np.max(np.abs(diff)) < TOL_VECTOR


def test_block_diagonal_matches_dense_matrix():
    for block in sector_blocks(build_hamiltonian_action(h4_chain_mol("6-31g")), 4):
        assert np.max(np.abs(block.diagonal().ravel() - np.diag(block.matrix()))) < TOL_EXACT


def test_davidson_finds_flip_odd_ground_state(monkeypatch):
    """A 2-electron S_z = 0 block whose ground state a start from one
    closed-shell determinant cannot reach.

    With one alpha and one beta string set equal, sigma and the diagonal
    both map a symmetric CI matrix to a symmetric one, so from the
    symmetric start C = e_I e_I^T every Davidson iterate stays symmetric;
    this ground state's C is antisymmetric, orthogonal to all of them.
    """
    mol = random_symmetric_integrals(3, np.random.default_rng(118))
    action = build_hamiltonian_action(mol)
    (block,) = sector_blocks(action, 2, sz=0)
    assert block.size == 9
    evals, evecs = np.linalg.eigh(block.matrix())
    ground = evecs[:, 0].reshape(block.shape)
    assert np.max(np.abs(ground + ground.T)) < TOL_EXACT
    diag = block.diagonal()
    assert np.allclose(diag, diag.T, rtol=0, atol=TOL_EXACT)
    i, j = np.unravel_index(np.argmin(diag), block.shape)
    assert i == j
    c = np.random.default_rng(0).normal(size=block.shape)
    image = block.sigma(c + c.T)
    assert np.max(np.abs(image - image.T)) < TOL_EXACT

    _, dense = ground_state(action, 2, sz=0)
    monkeypatch.setattr(fci, "DENSE_LIMIT", 8)
    energy, wfn = ground_state(action, 2, sz=0)
    assert energy == pytest.approx(evals[0], abs=TOL_EXACT)
    assert energy < evals[1] - 0.1  # not the flip-even -2.5009 Ha
    assert list(wfn.amplitudes) == list(dense.amplitudes)
    diff = [wfn.amplitudes[d] - a for d, a in dense.amplitudes.items()]
    assert np.max(np.abs(diff)) < TOL_VECTOR


def test_davidson_stops_once_its_subspace_spans_the_matrix():
    """On matrices of 2 to 9 rows with norms up to 1e8 the residual can
    stay above the stopping tolerance from rounding alone; once the
    subspace spans every dimension its lowest Ritz pair is exact and is
    returned."""
    rng = np.random.default_rng(40)
    for _ in range(100):
        n = int(rng.integers(2, 10))
        q = np.linalg.qr(rng.normal(size=(n, n)))[0]
        a = q @ np.diag(rng.normal(size=n) * 10.0 ** rng.uniform(0, 8)) @ q.T
        a = 0.5 * (a + a.T)
        energy, x = fci.lowest_eigenpair(lambda v: a @ v, np.diag(a).copy())
        evals = np.linalg.eigvalsh(a)
        scale = max(1.0, np.max(np.abs(evals)))
        assert abs(energy - evals[0]) <= 1e-13 * scale
        assert np.linalg.norm(a @ x - energy * x) <= 1e-13 * scale


def test_davidson_converges_on_a_dense_matrix_of_large_norm():
    """A 60 x 60 dense symmetric matrix with eigenvalues of order 1e6: the
    whole subspace is kept, so the solve converges (it reaches the spanning
    stop) instead of running out of iterations."""
    rng = np.random.default_rng(2)
    q = np.linalg.qr(rng.normal(size=(60, 60)))[0]
    scale = 1e6
    a = q @ np.diag(rng.normal(size=60) * scale) @ q.T
    energy, x = fci.lowest_eigenpair(lambda v: a @ v, np.diag(a).copy())
    assert abs(energy - np.linalg.eigvalsh(a)[0]) <= 1e-13 * scale
    assert np.linalg.norm(a @ x - energy * x) <= 1e-13 * scale


def test_davidson_out_of_iterations_raises(monkeypatch):
    action = build_hamiltonian_action(h4_chain_mol("6-31g"))
    (block,) = sector_blocks(action, 4, sz=0)
    assert block.size > fci.DENSE_LIMIT
    e_dense = np.linalg.eigvalsh(block.matrix())[0]
    monkeypatch.setattr(fci, "_DAVIDSON_MAX_ITER", 2)
    with pytest.raises(ConvergenceError) as info:
        ground_state(action, 4, sz=0)
    assert e_dense < info.value.last_energy < e_dense + 1.0


def test_near_degenerate_dense_block_warns(monkeypatch):
    """Two orbitals with equal h1 and no interaction: the four
    determinants of the 2-electron S_z = 0 block share one energy.  A
    dense block is gap-checked; above ``DENSE_LIMIT`` only the lowest
    eigenvalue is computed, and nothing is checked."""
    mol = MolecularIntegrals(
        n_spatial=2, e_nuc=0.0, h1=np.diag([-0.5, -0.5]), eri=np.zeros((2,) * 4)
    )
    action = build_hamiltonian_action(mol)
    with pytest.warns(UserWarning, match="nearly degenerate"):
        energy, _ = ground_state(action, 2, sz=0)
    assert energy == pytest.approx(-1.0, abs=TOL_EXACT)
    monkeypatch.setattr(fci, "DENSE_LIMIT", 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        energy, _ = ground_state(action, 2, sz=0)
    assert energy == pytest.approx(-1.0, abs=TOL_EXACT)


def test_determinants_past_63_spin_orbitals():
    """Past 63 spin orbitals an interleaved determinant does not fit in
    int64; the 2-electron block over 32 orbitals still lists every one,
    and its ground state is ordered by them."""
    mol = random_symmetric_integrals(32, np.random.default_rng(31))
    action = build_hamiltonian_action(mol)
    (block,) = sector_blocks(action, 2, sz=0)
    dets = sector_determinants(64, 2, 0)
    assert max(dets) >= 2**63
    assert sorted(block.determinants().tolist()) == dets
    _, wfn = ground_state(action, 2, sz=0)
    assert list(wfn.amplitudes) == [d for d in dets if d in wfn.amplitudes]


def test_h4_ccpvdz_ground_state_above_dense_limit():
    """H4/cc-pVDZ at 1.8 bohr: 36 100 determinants, past DENSE_LIMIT with
    no patching.  The residual bound is ten times the solver's stopping
    tolerance on |H v - E v|."""
    action = build_hamiltonian_action(h4_chain_mol("cc-pvdz"))
    energy, wfn = ground_state(action, 4, sz=0)
    assert energy == pytest.approx(-2.260047334, abs=1e-9)
    (block,) = sector_blocks(action, 4, sz=0)
    assert block.size == 36100 > fci.DENSE_LIMIT
    v = block.phase() * np.array([wfn.amplitudes.get(d, 0.0) for d in block.determinants()])
    residual = block.sigma(v.reshape(block.shape)).ravel() - energy * v
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=TOL_EXACT)
    assert np.linalg.norm(residual) < 1e-9


def test_h2_sto3g_ground_energy():
    case = h2_case(1.4 * ANGSTROM_PER_BOHR, "sto-3g")
    energy, wfn = ground_state(build_hamiltonian_action(case["mol"]), 2, sz=0)
    assert energy == pytest.approx(-1.137, abs=1e-3)
    # eigenpair residual
    dets = sector_determinants(case["mol"].n_spin, 2)
    x = np.array([wfn.amplitudes.get(d, 0.0) for d in dets])
    hx = SlaterCondon(case["mol"]).dense_matrix(dets) @ x
    for k, det in enumerate(dets):
        assert hx[k] == pytest.approx(energy * x[k], abs=1e-10)


def test_noninteracting_sum_of_orbital_energies():
    diag = np.array([-2.0, -0.5, 0.7])
    mol = MolecularIntegrals(
        n_spatial=3, e_nuc=0.3, h1=np.diag(diag), eri=np.zeros((3,) * 4)
    )
    energy, _ = ground_state(build_hamiltonian_action(mol), 2, sz=0)
    assert energy == pytest.approx(2 * diag[0] + 0.3, abs=TOL_EXACT)
    energy4, _ = ground_state(build_hamiltonian_action(mol), 4, sz=0)
    assert energy4 == pytest.approx(2 * diag[0] + 2 * diag[1] + 0.3, abs=TOL_EXACT)


def test_one_dimensional_sector_is_diagonal_element():
    rng = np.random.default_rng(8)
    mol = random_symmetric_integrals(1, rng, e_nuc=0.9)
    energy, wfn = ground_state(build_hamiltonian_action(mol), 2, sz=0)
    assert energy == pytest.approx(SlaterCondon(mol).diagonal(0b11), abs=TOL_EXACT)
    assert wfn.amplitudes == {0b11: 1.0}


def test_ground_state_variational_under_sz_restriction():
    """The sz = 0 ground state of H2 is the lowest over every 2-electron
    sector, sz = -2, 0 and 2."""
    case = h2_case(1.4 * ANGSTROM_PER_BOHR, "6-31g")
    action = build_hamiltonian_action(case["mol"])
    e_sz0, _ = ground_state(action, 2, sz=0)
    e_all = min(ground_state(action, 2, sz=sz)[0] for sz in (-2, 0, 2))
    assert e_sz0 == pytest.approx(e_all, abs=1e-10)


def test_empty_sector_raises():
    mol = MolecularIntegrals(
        n_spatial=1, e_nuc=0.0, h1=np.zeros((1, 1)), eri=np.zeros((1,) * 4)
    )
    action = build_hamiltonian_action(mol)
    with pytest.raises(ValueError):
        ground_state(action, 3, sz=1)  # 2 alpha electrons in 1 orbital
    with pytest.raises(ValueError):
        ground_state(action, 2, sz=1)  # 2 S_z of odd parity


# ---------------------------------------------------------------------------
# expectation oracle


def test_identity_term_gives_overlap():
    rng = np.random.default_rng(9)
    bra = random_wavefunction(6, 2, rng, complex_amps=True)
    ket = random_wavefunction(6, 2, rng, complex_amps=True)
    val = full_space_expectation(bra, [(1.0, [])], ket)
    assert val == pytest.approx(overlap(bra, ket), abs=TOL_EXACT)


def test_number_operator_on_occupied_orbital():
    wfn = Wavefunction({0b0101: 1.0}, 4, 2)
    for i, expect in ((0, 1.0), (1, 0.0), (2, 1.0), (3, 0.0)):
        val = full_space_expectation(wfn, [(1.0, [(i, True), (i, False)])], wfn)
        assert val == pytest.approx(expect, abs=TOL_EXACT)


def test_expectation_energy_matches_eigenvalue():
    case = h2_case(1.4 * ANGSTROM_PER_BOHR, "sto-3g")
    energy, wfn = ground_state(build_hamiltonian_action(case["mol"]), 2, sz=0)
    val = full_space_expectation(wfn, SlaterCondon(case["mol"]).hamiltonian_terms(), wfn)
    assert val.real == pytest.approx(energy, abs=1e-10)
    assert abs(val.imag) < TOL_EXACT
