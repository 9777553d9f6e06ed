"""Determinant algebra, the string-factored Hamiltonian, and exact solves."""

import functools
import math

import numpy as np
import pytest
import scipy.linalg

from conftest import (
    SlaterCondon,
    h2_case,
    h4_chain_mol,
    normalized,
    overlap,
    random_wavefunction,
    sector_determinants,
    wavefunction_norm,
)
from test_integrals import random_symmetric_integrals
from vqse import ANGSTROM_PER_BOHR, fci
from vqse.fci import (
    Wavefunction,
    apply_ladder,
    apply_ladder_string,
    build_hamiltonian_action,
    full_space_expectation,
    ground_state,
)
from vqse.integrals import MolecularIntegrals

TOL_EXACT = 1e-12
TOL_VECTOR = 1e-10


def sector_matrix(mol, n_electrons, sz=None):
    """The production blocks put together over the sector's interleaved
    determinants, ascending, with zeros between blocks."""
    dets, blocks = [], []
    for block in build_hamiltonian_action(mol).blocks(n_electrons, sz):
        phase = block.phase()
        dets += block.determinants()
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
    for block in build_hamiltonian_action(mol).blocks(2):
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
    for block in action.blocks(2):
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
    for block in build_hamiltonian_action(mol).blocks(n_electrons):
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


def test_lanczos_branch_is_deterministic(monkeypatch):
    """Above DENSE_LIMIT the solve goes through eigsh over the sigma-build;
    its fixed start vector makes repeated calls bit-identical."""
    action = build_hamiltonian_action(h4_chain_mol("6-31g"))
    e_dense, dense = ground_state(action, 4, sz=0)
    monkeypatch.setattr(fci, "DENSE_LIMIT", 500)
    e_first, first = ground_state(action, 4, sz=0)
    e_second, second = ground_state(action, 4, sz=0)
    assert e_first == e_second
    assert list(first.amplitudes.items()) == list(second.amplitudes.items())
    assert e_first == pytest.approx(e_dense, abs=TOL_VECTOR)
    assert list(first.amplitudes) == list(dense.amplitudes)
    diff = [first.amplitudes[d] - a for d, a in dense.amplitudes.items()]
    assert np.max(np.abs(diff)) < TOL_VECTOR


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
    """The sz = 0 ground state of H2 equals the unrestricted one."""
    case = h2_case(1.4 * ANGSTROM_PER_BOHR, "6-31g")
    action = build_hamiltonian_action(case["mol"])
    e_sz0, _ = ground_state(action, 2, sz=0)
    e_all, _ = ground_state(action, 2)
    assert e_sz0 == pytest.approx(e_all, abs=1e-10)


def test_empty_sector_raises():
    mol = MolecularIntegrals(
        n_spatial=1, e_nuc=0.0, h1=np.zeros((1, 1)), eri=np.zeros((1,) * 4)
    )
    with pytest.raises(ValueError):
        ground_state(build_hamiltonian_action(mol), 3)


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
