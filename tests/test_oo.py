"""Orbital rotations: rotated energies, the orbital gradient, the
second-order relaxation step and the relax-then-resolve loop."""

import numpy as np
import pytest
import scipy.linalg

import vqse.oo
from conftest import (
    RotationParameters,
    SlaterCondon,
    Wavefunction,
    fock_state,
    full_space_expectation,
    givens_matrix,
    h2_case,
    lifted_rdms,
    oracle_rdm,
    random_wavefunction,
    rotation_generators,
)
from vqse import ANGSTROM_PER_BOHR
from vqse.exceptions import VqseError
from vqse.fci import build_hamiltonian_action, ground_state
from vqse.integrals import dress_core, rotate_integrals
from vqse.oo import (
    core_active_rdms,
    energy_of_rotation,
    exp_antisymmetric,
    givens_sweep,
    orbital_gradient_and_hessian,
    relax_then_resolve,
    rotation_pairs,
)
from vqse.rdm import compute_rdm, energy_from_rdms
from vqse.spaces import OrbitalPartition

TOL_EXACT = 1e-12
TOL_ORACLE = 1e-10
R_A = 1.4 * ANGSTROM_PER_BOHR


def full_rdms(case):
    return lifted_rdms(case["wfn"], case["partition"])


def sweep_rdms(case):
    """The core+active (gamma, Gamma) ``givens_sweep`` reads."""
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
    generators = rotation_generators(partition.n_spatial, pairs)
    assert generators.shape == (6, 5, 5)
    for k, (i, b) in zip(generators, pairs):
        assert k[b, i] == 1.0 and k[i, b] == -1.0 and np.count_nonzero(k) == 2


def test_exp_antisymmetric_matches_expm():
    """The relaxation's numpy exponential equals scipy's expm and is
    orthogonal to 1e-13, on random steps of length up to MAX_STEP over the
    rotation generators of a partition with a core orbital and of 2-4
    active orbitals among ten."""
    rng = np.random.default_rng(70)
    partitions = [OrbitalPartition(core=(0,), active=(1, 2), virtual=(3, 4))]
    partitions += [OrbitalPartition.from_counts(0, m, 10) for m in (2, 3, 4)]
    for partition in partitions:
        generators = rotation_generators(partition.n_spatial, rotation_pairs(partition))
        for _ in range(50):
            x = rng.normal(size=len(generators))
            x *= rng.uniform(0, vqse.oo.MAX_STEP) / np.linalg.norm(x)
            kappa = np.tensordot(x, generators, axes=1)
            u = exp_antisymmetric(kappa)
            assert u.dtype == np.float64
            assert np.max(np.abs(u - scipy.linalg.expm(kappa))) < 1e-13
            assert np.max(np.abs(u.T @ u - np.eye(partition.n_spatial))) < 1e-13


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
    r1 = u @ d1 @ u.T
    r2 = np.einsum("ap,bq,cr,ds,pqrs->abcd", u, u, u, u, d2, optimize=True)
    e_rdm = energy_from_rdms(case["mol"], r1, r2)
    assert e_int == pytest.approx(e_rdm, abs=TOL_ORACLE)


def test_non_unitary_rotation_rejected():
    case = h2_case(R_A, "6-31g")
    d1, d2 = full_rdms(case)
    for u in (np.full((4, 4), 0.5), np.full((4, 4), np.nan)):
        with pytest.raises(VqseError):
            energy_of_rotation(u, case["mol"], d1, d2)


def test_rotation_matches_full_space_oracle():
    """Rotating the integrals with the state fixed equals the explicit
    expectation of the embedded state under the rotated Hamiltonian, for
    a small rotation and for a full-size one."""
    case = h2_case(R_A, "6-31g")
    d1, d2 = full_rdms(case)
    wfn = case["wfn"]
    embedded = Wavefunction(dict(fock_state(wfn).amplitudes), 8, 2)
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
    integral and contracting with the RDMs of the lifted state over all
    orbitals: with a core orbital, with no active electron (core only),
    and over the ten cc-pVDZ orbitals."""
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
        a1, a2 = oracle_rdm(wfn, 1), oracle_rdm(wfn, 2)
        a = rng.normal(size=(mol.n_spatial, mol.n_spatial))
        u = scipy.linalg.expm(a - a.T)
        e_full = energy_from_rdms(rotate_integrals(mol, u), *lifted_rdms(wfn, partition))
        support = sorted(partition.core + partition.active)
        e_block = energy_of_rotation(u[:, support], mol, *core_active_rdms(a1, a2, partition))
        assert e_block == pytest.approx(e_full, abs=TOL_ORACLE)


def test_core_active_rdms_are_the_full_embedding_block():
    """core_active_rdms is the block over the core and active orbitals, in
    ascending order, of the spin-summed RDMs of the lifted state, also
    when a core orbital lies between active ones and when the active
    orbitals are not in ascending order."""
    rng = np.random.default_rng(66)
    wfn = random_wavefunction(4, 2, rng)
    d1, d2 = oracle_rdm(wfn, 1), oracle_rdm(wfn, 2)
    for partition in (
        OrbitalPartition(core=(0,), active=(1, 2), virtual=(3,)),
        OrbitalPartition(core=(1,), active=(2, 0), virtual=(3, 4)),
    ):
        full1, full2 = lifted_rdms(wfn, partition)
        gamma, big_gamma = core_active_rdms(d1, d2, partition)
        support = sorted(partition.core + partition.active)
        block1, block2 = np.ix_(support, support), np.ix_(*[support] * 4)
        assert np.max(np.abs(gamma - full1[block1])) < TOL_EXACT
        assert np.max(np.abs(big_gamma - full2[block2])) < TOL_EXACT


def test_relaxation_builds_no_full_space_rdm(monkeypatch):
    """relax_then_resolve contracts RDMs over the core and active orbitals
    only: every energy it evaluates receives an m x m gamma and an m^4
    Gamma, with m = |core + active|, never one over all n orbitals."""
    case = h2_case(R_A, "cc-pvdz")
    contract = vqse.oo.energy_from_rdms
    shapes = []

    def contracted(mol, gamma, big_gamma):
        shapes.append((gamma.shape, big_gamma.shape))
        return contract(mol, gamma, big_gamma)

    monkeypatch.setattr(vqse.oo, "energy_from_rdms", contracted)
    with_core = OrbitalPartition(core=(0,), active=(1, 2), virtual=tuple(range(3, 10)))
    for partition in (case["partition"], with_core):
        shapes.clear()
        relax_then_resolve(case["mol"], partition, 2, cycles=2)
        m = len(partition.core + partition.active)
        assert shapes and set(shapes) == {((m, m), (m, m, m, m))}, partition


# ---------------------------------------------------------------------------
# orbital gradient and the second-order step


def _derivative_cases(rng):
    """(mol, partition, wfn, pairs): a core orbital with a random active
    state, its rotation pairs joined by the core-virtual pair (0, 3), 3
    active orbitals, and the cc-pVDZ orbitals."""
    with_core = OrbitalPartition(core=(0,), active=(1, 2), virtual=(3,))
    wfn = random_wavefunction(4, 2, rng)
    core_virtual = rotation_pairs(with_core) + ((0, 3),)
    cases = [(h2_case(R_A, "6-31g")["mol"], with_core, wfn, core_virtual)]
    for basis, n_active in (("6-31g", 3), ("cc-pvdz", 2)):
        case = h2_case(R_A, basis, n_active)
        partition = case["partition"]
        cases.append((case["mol"], partition, case["wfn"], rotation_pairs(partition)))
    return cases


def _derivatives_at_random_rotation(mol, partition, wfn, pairs, rng):
    """(energy, generators, g, H) at a random, non-stationary U: energy(K)
    is energy_of_rotation at U exp(K) with the core+active RDMs."""
    gamma, big_gamma = core_active_rdms(oracle_rdm(wfn, 1), oracle_rdm(wfn, 2), partition)
    a = rng.normal(size=(mol.n_spatial, mol.n_spatial))
    u = scipy.linalg.expm(a - a.T)
    support = sorted(partition.core + partition.active)
    g, hessian = orbital_gradient_and_hessian(
        rotate_integrals(mol, u), support, pairs, gamma, big_gamma
    )

    def energy(kappa):
        return energy_of_rotation(
            (u @ scipy.linalg.expm(kappa))[:, support], mol, gamma, big_gamma
        )

    return energy, rotation_generators(mol.n_spatial, pairs), g, hessian


def test_orbital_gradient_matches_central_differences():
    """The generalized-Fock gradient at a random U equals central
    differences of energy_of_rotation along each pair's generator,
    U exp(+-h K) with K_bi = 1 = -K_ib: with a core orbital and a random
    active state over the rotation_pairs and a core-virtual pair, with 3
    active orbitals, and over the cc-pVDZ orbitals."""
    rng = np.random.default_rng(68)
    h = 1e-5
    for mol, partition, wfn, pairs in _derivative_cases(rng):
        energy, generators, g, _ = _derivatives_at_random_rotation(
            mol, partition, wfn, pairs, rng
        )
        for a, k in enumerate(generators):
            central = (energy(h * k) - energy(-h * k)) / (2 * h)
            assert g[a] == pytest.approx(central, abs=1e-8), (mol.n_spatial, a)


def test_orbital_hessian_matches_central_differences():
    """The symmetrized Fock response at a random U is the Hessian of
    E(U exp(x_a K_a + x_b K_b)): it equals second central differences of
    energy_of_rotation along each two of the pairs' generators, in
    the same three cases as the gradient."""
    rng = np.random.default_rng(69)
    h = 1e-4
    for mol, partition, wfn, pairs in _derivative_cases(rng):
        energy, generators, _, hessian = _derivatives_at_random_rotation(
            mol, partition, wfn, pairs, rng
        )
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
    u, _, report = givens_sweep(case["mol"], *sweep_rdms(case), case["partition"])
    assert report.final_energy <= report.initial_energy + 1e-12
    trace = [report.initial_energy] + report.sweep_energies
    assert all(a >= b - 1e-12 for a, b in zip(trace, trace[1:]))
    assert energy_of_rotation(u, case["mol"], d1, d2) == pytest.approx(
        report.final_energy, abs=TOL_ORACLE
    )


def test_sweep_with_core_ends_at_zero_gradient():
    """With a core orbital (rotated against the active ones, with the
    core below them in index order) and a random active state, the sweep
    lowers the energy and ends where the gradient over every rotation pair
    vanishes."""
    rng = np.random.default_rng(71)
    mol = h2_case(R_A, "6-31g")["mol"]
    partition = OrbitalPartition(core=(0,), active=(1, 2), virtual=(3,))
    wfn = random_wavefunction(4, 2, rng)
    gamma, big_gamma = core_active_rdms(oracle_rdm(wfn, 1), oracle_rdm(wfn, 2), partition)
    u, _, report = givens_sweep(mol, gamma, big_gamma, partition)
    assert report.final_energy < report.initial_energy - 1e-6
    support = sorted(partition.core + partition.active)
    g, _ = orbital_gradient_and_hessian(
        rotate_integrals(mol, u), support, rotation_pairs(partition), gamma, big_gamma
    )
    assert np.max(np.abs(g)) < 1e-6


def test_sweep_stationary_at_optimum():
    """Relaxing again in the relaxed orbitals finds no further rotation."""
    case = h2_case(R_A, "6-31g")
    d1, d2 = sweep_rdms(case)
    u, relaxed, report = givens_sweep(case["mol"], d1, d2, case["partition"])
    rotated = rotate_integrals(case["mol"], u)
    assert relaxed.h1.tobytes() == rotated.h1.tobytes()
    assert relaxed.eri.tobytes() == rotated.eri.tobytes()
    u2, _, report2 = givens_sweep(relaxed, d1, d2, case["partition"])
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
    _, _, manual = givens_sweep(case["mol"], *sweep_rdms(case), partition)
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
        d1, d2 = lifted_rdms(wfn, partition)
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
    u, rotated, _ = givens_sweep(case["mol"], *sweep_rdms(case), partition)
    assert np.array_equal(u, np.eye(2))
    # with no step taken the sweep hands back the integrals it was given,
    # byte for byte the rotation by the identity
    assert rotated is case["mol"]
    identity = rotate_integrals(case["mol"], u)
    assert rotated.h1.tobytes() == identity.h1.tobytes()
    assert rotated.eri.tobytes() == identity.eri.tobytes()
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
