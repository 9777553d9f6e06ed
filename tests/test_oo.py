"""Orbital rotations: rotated energies, the orbital gradient, the
second-order relaxation step and the relax-then-resolve loop."""

import numpy as np
import pytest
import scipy.linalg

import vqse.oo
from conftest import (
    RotationParameters,
    SlaterCondon,
    givens_matrix,
    h2_case,
    random_wavefunction,
)
from vqse import ANGSTROM_PER_BOHR
from vqse.exceptions import VqseError
from vqse.fci import Wavefunction, build_hamiltonian_action, full_space_expectation, ground_state
from vqse.integrals import dress_core, rotate_integrals
from vqse.oo import (
    core_active_rdms,
    energy_of_rotation,
    givens_sweep,
    orbital_gradient_and_hessian,
    relax_then_resolve,
    rotation_generators,
    rotation_pairs,
    spin_summed_rdms,
)
from vqse.rdm import Rdm, compute_rdm, composite_full_rdms, energy_from_rdms
from vqse.spaces import OrbitalPartition, spatial_to_spin

TOL_EXACT = 1e-12
TOL_ORACLE = 1e-10
R_A = 1.4 * ANGSTROM_PER_BOHR


def full_rdms(case):
    wfn = case["wfn"]
    return composite_full_rdms(
        compute_rdm(wfn, 1), compute_rdm(wfn, 2), case["partition"]
    )


def sweep_rdms(case):
    """The core+active RDMs ``givens_sweep`` reads."""
    wfn = case["wfn"]
    return core_active_rdms(compute_rdm(wfn, 1), compute_rdm(wfn, 2), case["partition"])


# ---------------------------------------------------------------------------
# rotation parameterization (the saddle test's oracle, in conftest)


def test_givens_matrix_is_special_orthogonal():
    g = givens_matrix(4, 1, 3, 0.7)
    assert np.max(np.abs(g.T @ g - np.eye(4))) < TOL_EXACT
    assert np.linalg.det(g) == pytest.approx(1.0, abs=TOL_EXACT)
    with pytest.raises(VqseError):
        givens_matrix(4, 2, 2, 0.1)


def test_rotation_parameters_principal_branch():
    params = RotationParameters(3, ((0, 1), (0, 2)), np.array([3 * np.pi, -np.pi]))
    assert params.angles[0] == pytest.approx(np.pi, abs=TOL_EXACT)
    assert params.angles[1] == pytest.approx(np.pi, abs=TOL_EXACT)


def test_rotation_parameters_validation():
    with pytest.raises(VqseError):
        RotationParameters(3, ((0, 1),), np.array([0.1, 0.2]))


def test_givens_product_order():
    p = RotationParameters(3, ((0, 1), (1, 2)), np.array([0.3, -0.4]))
    expected = givens_matrix(3, 0, 1, 0.3) @ givens_matrix(3, 1, 2, -0.4)
    assert np.max(np.abs(p.unitary() - expected)) < TOL_EXACT


def test_rotation_pairs_enumeration():
    partition = OrbitalPartition(core=(0,), active=(1, 2), virtual=(3, 4))
    pairs = rotation_pairs(partition)
    assert pairs == ((1, 0), (1, 3), (1, 4), (2, 0), (2, 3), (2, 4))
    generators = rotation_generators(partition)
    assert generators.shape == (6, 5, 5)
    for k, (i, b) in zip(generators, pairs):
        assert k[b, i] == 1.0 and k[i, b] == -1.0 and np.count_nonzero(k) == 2


# ---------------------------------------------------------------------------
# rotated energies


def test_identity_rotation_reproduces_rdm_energy():
    case = h2_case(R_A, "6-31g")
    d1, d2 = full_rdms(case)
    e0 = energy_from_rdms(case["mol"], d1, d2)
    assert energy_of_rotation(np.eye(4), case["mol"], d1, d2) == pytest.approx(
        e0, abs=TOL_EXACT
    )
    assert e0 == pytest.approx(case["e_ref"], abs=TOL_ORACLE)


def test_integral_and_rdm_rotation_paths_agree():
    """Rotating the integrals by U equals counter-rotating the RDMs by U
    and keeping the integrals, for a full-size rotation."""
    case = h2_case(R_A, "6-31g")
    d1, d2 = full_rdms(case)
    rng = np.random.default_rng(62)
    a = rng.normal(size=(4, 4))
    u = scipy.linalg.expm(a - a.T)
    e_int = energy_of_rotation(u, case["mol"], d1, d2)
    us = np.kron(u, np.eye(2))  # interleaved alpha/beta spin orbitals
    r1 = us @ d1.tensor @ us.conj().T
    r2 = np.einsum("ip,jq,kr,ls,pqrs->ijkl", us, us, us.conj(), us.conj(), d2.tensor, optimize=True)
    e_rdm = energy_from_rdms(case["mol"], Rdm(1, d1.n, r1), Rdm(2, d2.n, r2))
    assert e_int == pytest.approx(e_rdm, abs=TOL_ORACLE)


def test_non_unitary_rotation_rejected():
    case = h2_case(R_A, "6-31g")
    d1, d2 = full_rdms(case)
    with pytest.raises(VqseError):
        energy_of_rotation(np.full((4, 4), 0.5), case["mol"], d1, d2)


def test_rotation_matches_full_space_oracle():
    """Rotating the integrals with the state fixed equals the explicit
    expectation of the embedded state under the rotated Hamiltonian, for
    a small rotation and for a full-size one."""
    case = h2_case(R_A, "6-31g")
    d1, d2 = full_rdms(case)
    wfn = case["wfn"]
    embedded = Wavefunction(dict(wfn.amplitudes), 8, 2)
    for seed, scale in ((63, 0.1), (62, 1.0)):
        gen = scale * np.random.default_rng(seed).normal(size=(4, 4))
        u = scipy.linalg.expm(gen - gen.T)
        e_fast = energy_of_rotation(u, case["mol"], d1, d2)
        terms = SlaterCondon(rotate_integrals(case["mol"], u)).hamiltonian_terms()
        e_ref = full_space_expectation(embedded, terms, embedded)
        assert e_fast == pytest.approx(e_ref.real, abs=TOL_ORACLE), seed


def test_occupied_block_matches_full_rotation():
    """energy_of_rotation over the column block U[:, core + active] with
    core_active_rdms, as the relaxation calls it, equals rotating every
    integral and contracting with the full-space RDMs: with a core
    orbital, with no active electron (core only), and over the ten cc-pVDZ
    orbitals."""
    rng = np.random.default_rng(65)
    with_core = OrbitalPartition(core=(0,), active=(1, 2), virtual=(3,))
    mol_631g = h2_case(R_A, "6-31g")["mol"]
    cc = h2_case(R_A, "cc-pvdz")
    cases = (
        (mol_631g, with_core, random_wavefunction(4, 2, rng)),
        (mol_631g, with_core, Wavefunction({0: 1.0}, 4, 0)),
        (cc["mol"], cc["partition"], cc["wfn"]),
    )
    for mol, partition, wfn in cases:
        a1, a2 = compute_rdm(wfn, 1), compute_rdm(wfn, 2)
        d1, d2 = composite_full_rdms(a1, a2, partition)
        a = rng.normal(size=(mol.n_spatial, mol.n_spatial))
        u = scipy.linalg.expm(a - a.T)
        e_full = energy_from_rdms(rotate_integrals(mol, u), d1, d2)
        support = sorted(partition.core + partition.active)
        e_block = energy_of_rotation(u[:, support], mol, *core_active_rdms(a1, a2, partition))
        assert e_block == pytest.approx(e_full, abs=TOL_ORACLE)


def test_core_active_rdms_are_the_full_embedding_block():
    """core_active_rdms is the block of composite_full_rdms over the spin
    orbitals of the core and active orbitals in ascending order, also when
    a core orbital lies between active ones; givens_sweep reads only that
    form."""
    rng = np.random.default_rng(66)
    wfn = random_wavefunction(4, 2, rng)
    d1, d2 = compute_rdm(wfn, 1), compute_rdm(wfn, 2)
    for partition in (
        OrbitalPartition(core=(0,), active=(1, 2), virtual=(3,)),
        OrbitalPartition(core=(1,), active=(2, 0), virtual=(3, 4)),
    ):
        full1, full2 = composite_full_rdms(d1, d2, partition)
        block1, block2 = core_active_rdms(d1, d2, partition)
        spin = spatial_to_spin(sorted(partition.core + partition.active))
        assert np.array_equal(block1.tensor, full1.tensor[np.ix_(spin, spin)])
        assert np.array_equal(block2.tensor, full2.tensor[np.ix_(spin, spin, spin, spin)])
    case = h2_case(R_A, "6-31g")
    with pytest.raises(VqseError):
        givens_sweep(case["mol"], *full_rdms(case), case["partition"])


def test_relaxation_builds_no_full_space_rdm(monkeypatch):
    """relax_then_resolve composes and contracts RDMs over the core and
    active spin orbitals only, never over all 2n of them."""
    case = h2_case(R_A, "cc-pvdz")
    sizes = []
    compose, contract = vqse.oo.composite_full_rdms, vqse.oo.energy_from_rdms

    def composed(*args):
        rdms = compose(*args)
        sizes.extend(r.n for r in rdms)
        return rdms

    def contracted(mol, rdm1, rdm2):
        sizes.extend((rdm1.n, rdm2.n))
        return contract(mol, rdm1, rdm2)

    monkeypatch.setattr(vqse.oo, "composite_full_rdms", composed)
    monkeypatch.setattr(vqse.oo, "energy_from_rdms", contracted)
    relax_then_resolve(case["mol"], case["partition"], 2, cycles=2)
    assert sizes and set(sizes) == {4}


# ---------------------------------------------------------------------------
# orbital gradient and the second-order step


def _derivative_cases(rng):
    """(mol, partition, wfn): a core orbital with a random active state,
    3 active orbitals, and the cc-pVDZ orbitals."""
    with_core = OrbitalPartition(core=(0,), active=(1, 2), virtual=(3,))
    cases = [(h2_case(R_A, "6-31g")["mol"], with_core, random_wavefunction(4, 2, rng))]
    for basis, n_active in (("6-31g", 3), ("cc-pvdz", 2)):
        case = h2_case(R_A, basis, n_active)
        cases.append((case["mol"], case["partition"], case["wfn"]))
    return cases


def _derivatives_at_random_rotation(mol, partition, wfn, rng):
    """(energy, generators, g, H) at a random, non-stationary U: energy(K)
    is energy_of_rotation at U exp(K) with the core+active RDMs."""
    d1, d2 = core_active_rdms(compute_rdm(wfn, 1), compute_rdm(wfn, 2), partition)
    a = rng.normal(size=(mol.n_spatial, mol.n_spatial))
    u = scipy.linalg.expm(a - a.T)
    generators = rotation_generators(partition)
    support = sorted(partition.core + partition.active)
    gamma, big_gamma = spin_summed_rdms(d1, d2)
    g, hessian = orbital_gradient_and_hessian(u, mol, support, gamma, big_gamma, generators)

    def energy(kappa):
        return energy_of_rotation((u @ scipy.linalg.expm(kappa))[:, support], mol, d1, d2)

    return energy, generators, g, hessian


def test_orbital_gradient_matches_central_differences():
    """The generalized-Fock gradient at a random U equals central
    differences of energy_of_rotation along each rotation_pairs generator,
    U exp(+-h K) with K_bi = 1 = -K_ib: with a core orbital and a random
    active state, with 3 active orbitals, and over the cc-pVDZ orbitals."""
    rng = np.random.default_rng(68)
    h = 1e-5
    for mol, partition, wfn in _derivative_cases(rng):
        energy, generators, g, _ = _derivatives_at_random_rotation(mol, partition, wfn, rng)
        for a, k in enumerate(generators):
            central = (energy(h * k) - energy(-h * k)) / (2 * h)
            assert g[a] == pytest.approx(central, abs=1e-8), (mol.n_spatial, a)


def test_orbital_hessian_matches_central_differences():
    """The symmetrized Fock response at a random U is the Hessian of
    E(U exp(x_a K_a + x_b K_b)): it equals second central differences of
    energy_of_rotation along each pair of rotation_pairs generators, in
    the same three cases as the gradient."""
    rng = np.random.default_rng(69)
    h = 1e-4
    for mol, partition, wfn in _derivative_cases(rng):
        energy, generators, _, hessian = _derivatives_at_random_rotation(mol, partition, wfn, rng)
        for a, ka in enumerate(generators):
            for b, kb in enumerate(generators):
                second = (
                    energy(h * (ka + kb))
                    - energy(h * (ka - kb))
                    - energy(h * (kb - ka))
                    + energy(-h * (ka + kb))
                ) / (4 * h * h)
                assert hessian[a, b] == pytest.approx(second, abs=1e-6), (mol.n_spatial, a, b)


def test_sweep_monotone_and_below_start():
    case = h2_case(R_A, "6-31g")
    d1, d2 = full_rdms(case)
    u, report = givens_sweep(case["mol"], *sweep_rdms(case), case["partition"])
    assert report.final_energy <= report.initial_energy + 1e-12
    trace = [report.initial_energy] + report.sweep_energies
    assert all(a >= b - 1e-12 for a, b in zip(trace, trace[1:]))
    assert energy_of_rotation(u, case["mol"], d1, d2) == pytest.approx(
        report.final_energy, abs=TOL_ORACLE
    )


def test_sweep_stationary_at_optimum():
    """Relaxing again in the relaxed orbitals finds no further rotation."""
    case = h2_case(R_A, "6-31g")
    d1, d2 = sweep_rdms(case)
    u, report = givens_sweep(case["mol"], d1, d2, case["partition"])
    relaxed = rotate_integrals(case["mol"], u)
    u2, report2 = givens_sweep(relaxed, d1, d2, case["partition"])
    assert np.max(np.abs(u2 - np.eye(4))) < 1e-6
    assert report2.final_energy == pytest.approx(report.final_energy, abs=1e-9)


# ---------------------------------------------------------------------------
# iterated relaxation


def test_relax_single_step_never_raises_energy():
    for basis in ("sto-3g", "6-31g"):
        case = h2_case(R_A, basis)
        partition = case["partition"]
        _, energies, reports = relax_then_resolve(case["mol"], partition, 2, cycles=1)
        assert len(energies) == 1
        assert reports[0].final_energy <= reports[0].initial_energy + 1e-12
        assert energies[0] == pytest.approx(case["e_ref"], abs=TOL_ORACLE)


def test_relax_cycles_match_manual_single_step():
    case = h2_case(R_A, "6-31g")
    partition = case["partition"]
    _, energies, reports = relax_then_resolve(case["mol"], partition, 2, cycles=1)
    _, manual = givens_sweep(case["mol"], *sweep_rdms(case), partition)
    assert reports[0].final_energy == pytest.approx(manual.final_energy, abs=TOL_ORACLE)


def test_relax_iteration_improves_on_single_step():
    case = h2_case(R_A, "6-31g")
    partition = case["partition"]
    _, _, one = relax_then_resolve(case["mol"], partition, 2, cycles=1)
    _, energies, many = relax_then_resolve(case["mol"], partition, 2, cycles=10)
    assert many[-1].final_energy <= one[0].final_energy + 1e-12
    # the active-space energies it resolves are non-increasing as well
    assert all(a >= b - 1e-10 for a, b in zip(energies, energies[1:]))


def test_relaxed_orbitals_are_not_a_saddle():
    """With the active space re-solved on the orbitals relax_then_resolve
    returns, no direction of the pair angles lowers the fixed-CI energy:
    the central-difference Hessian of energy_of_rotation over the
    rotation_pairs angles has no eigenvalue below -1e-6.  H2/6-31G at
    1.4 A and 1.8 A with 3 active orbitals and at 0.6 A with 2 pass through
    saddles that are stationary along every single angle."""
    h = 1e-3
    for r, n_active in ((1.4, 3), (1.8, 3), (0.6, 2)):
        case = h2_case(r, "6-31g", n_active)
        partition = case["partition"]
        mol, _, _ = relax_then_resolve(case["mol"], partition, 2, cycles=12)
        active_mol = dress_core(mol, partition)
        _, wfn = ground_state(build_hamiltonian_action(active_mol), 2, sz=0)
        d1, d2 = composite_full_rdms(compute_rdm(wfn, 1), compute_rdm(wfn, 2), partition)
        pairs = rotation_pairs(partition)

        def energy(x):
            u = RotationParameters(mol.n_spatial, pairs, x).unitary()
            return energy_of_rotation(u, mol, d1, d2)

        steps = h * np.eye(len(pairs))
        hessian = np.array([
            [
                energy(a + b) - energy(a - b) - energy(b - a) + energy(-a - b)
                for b in steps
            ]
            for a in steps
        ]) / (4 * h * h)
        lowest = np.linalg.eigvalsh(hessian).min()
        assert lowest >= -1e-6, (r, n_active, lowest)


def test_relax_full_active_space_is_idempotent():
    case = h2_case(R_A, "sto-3g", n_active_spatial=2)
    partition = case["partition"]
    assert not partition.virtual and not partition.core
    _, energies, reports = relax_then_resolve(case["mol"], partition, 2, cycles=3)
    assert reports[0].final_energy == pytest.approx(energies[0], abs=TOL_ORACLE)
    u, _ = givens_sweep(case["mol"], *sweep_rdms(case), partition)
    assert np.array_equal(u, np.eye(2))
    with pytest.raises(VqseError):
        relax_then_resolve(case["mol"], partition, 2, cycles=0)


def test_relax_with_core_uses_dressed_problem():
    """One frozen core orbital: the resolved active energy matches the
    dressed-Hamiltonian ground state."""
    case = h2_case(R_A, "6-31g")
    partition = OrbitalPartition(core=(0,), active=(1, 2), virtual=(3,))
    active = dress_core(case["mol"], partition)
    e_active, _ = ground_state(build_hamiltonian_action(active), 0, sz=0)
    _, energies, _ = relax_then_resolve(case["mol"], partition, 2, cycles=1)
    assert energies[0] == pytest.approx(e_active, abs=TOL_ORACLE)
