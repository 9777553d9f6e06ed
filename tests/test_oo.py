"""Orbital rotations: single-angle solves, sweeps, joint polish, MCSCF loop."""

import numpy as np
import pytest
import scipy.linalg

from conftest import SlaterCondon, h2_case, random_wavefunction
from vqse import ANGSTROM_PER_BOHR
from vqse.exceptions import VqseError
from vqse.fci import Wavefunction, build_hamiltonian_action, full_space_expectation, ground_state
from vqse.integrals import dress_core, rotate_integrals
from vqse.oo import (
    RelaxationReport,
    RotationParameters,
    energy_of_rotation,
    givens_matrix,
    givens_sweep,
    joint_optimize,
    minimize_single_angle,
    occupied_support,
    relax_then_resolve,
    rotation_pairs,
)
from vqse.rdm import Rdm, compute_rdm, composite_full_rdms, energy_from_rdms
from vqse.spaces import OrbitalPartition, spatial_to_spin
from vqse.subspace import _slice_integrals

TOL_EXACT = 1e-12
TOL_ORACLE = 1e-10
R_A = 1.4 * ANGSTROM_PER_BOHR


def full_rdms(case):
    wfn = case["wfn"]
    return composite_full_rdms(
        compute_rdm(wfn, 1), compute_rdm(wfn, 2), case["partition"]
    )


# ---------------------------------------------------------------------------
# rotation parameterization


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
    """energy_of_rotation rotates only the occupied columns of U.  It equals
    rotating every integral and contracting with the full RDMs: with a core
    orbital in the support, with no active electron (core only), and over
    the ten cc-pVDZ orbitals.  Passing the column block U[:, support] with
    RDMs sliced beforehand, as the sweeps do, gives the same bits."""
    rng = np.random.default_rng(65)
    with_core = OrbitalPartition(core=(0,), active=(1, 2), virtual=(3,))
    mol_631g = h2_case(R_A, "6-31g")["mol"]
    cc = h2_case(R_A, "cc-pvdz")
    cases = (
        (mol_631g, with_core, random_wavefunction(4, 2, rng), (0, 1, 2)),
        (mol_631g, with_core, Wavefunction({0: 1.0}, 4, 0), (0,)),
        (cc["mol"], cc["partition"], cc["wfn"], (0, 1)),
    )
    for mol, partition, wfn, support in cases:
        d1, d2 = composite_full_rdms(compute_rdm(wfn, 1), compute_rdm(wfn, 2), partition)
        assert tuple(occupied_support(d1)) == support
        a = rng.normal(size=(mol.n_spatial, mol.n_spatial))
        u = scipy.linalg.expm(a - a.T)
        e_full = energy_from_rdms(rotate_integrals(mol, u), d1, d2)
        assert energy_of_rotation(u, mol, d1, d2) == pytest.approx(e_full, abs=TOL_ORACLE)
        # the sweeps' form: the column block with RDMs sliced beforehand
        spin = spatial_to_spin(support)
        block1 = Rdm(1, len(spin), d1.tensor[np.ix_(spin, spin)])
        block2 = Rdm(2, len(spin), d2.tensor[np.ix_(spin, spin, spin, spin)])
        assert energy_of_rotation(u[:, list(support)], mol, block1, block2) == (
            energy_of_rotation(u, mol, d1, d2)
        )


# ---------------------------------------------------------------------------
# single-angle minimization


def test_trig_fit_reproduces_energy_along_one_angle():
    case = h2_case(R_A, "6-31g")
    d1, d2 = full_rdms(case)
    mol = case["mol"]

    def e_of(theta):
        return energy_of_rotation(givens_matrix(4, 1, 2, theta), mol, d1, d2)

    _, coeffs = minimize_single_angle(e_of)
    rng = np.random.default_rng(64)
    ks = np.arange(-4, 5)
    for theta in rng.uniform(-np.pi, np.pi, size=50):
        fitted = float(np.real(np.exp(1j * theta * ks) @ coeffs))
        assert fitted == pytest.approx(e_of(theta), abs=TOL_ORACLE)


def trig_polynomial(coeffs):
    """E(theta) = Re sum_k a_k exp(i k theta), k = 0..4, as a function and
    as its values on the 100 000-point oracle grid theta_j = 2 pi j / N."""
    ks = np.arange(coeffs.size)
    grid = 2 * np.pi * np.arange(100000) / 100000

    def energy(theta):
        return float(np.real(np.exp(1j * ks * theta) @ coeffs))

    return energy, np.real(np.exp(1j * np.outer(grid, ks)) @ coeffs)


def walk_downhill(values, direction: int) -> float:
    """Oracle step: walk the periodic grid from theta = 0 in ``direction``
    while the next value is lower; returns the angle reached in (-pi, pi]."""
    k = 0
    while values[(k + direction) % values.size] < values[k % values.size]:
        k += direction
    return float(np.angle(np.exp(2j * np.pi * k / values.size)))


def test_single_angle_minimum_matches_dense_scan():
    """The closed-form step lands on the minimum that a 100 000-point grid
    walked downhill from theta = 0 reaches, for fixed-seed random degree-4
    trigonometric polynomials with both signs of E'(0)."""
    rng = np.random.default_rng(66)
    spacing = 2 * np.pi / 100000
    signs = set()
    for _ in range(20):
        coeffs = rng.normal(size=5) + 1j * rng.normal(size=5)
        coeffs[0] = coeffs[0].real - 1.0
        slope = -np.sum(np.arange(5) * coeffs.imag)  # E'(0)
        signs.add(np.sign(slope))
        energy, values = trig_polynomial(coeffs)
        theta, _ = minimize_single_angle(energy)
        expected = walk_downhill(values, -int(np.sign(slope)))
        gap = abs(np.angle(np.exp(1j * (theta - expected))))
        assert gap <= spacing, (coeffs, theta, expected)
        assert energy(theta) < energy(0.0)
    assert signs == {-1.0, 1.0}


def test_single_angle_step_modes():
    """The step's cases: downhill on either side of theta = 0, no move from
    a stationary minimum of an even E(theta) = E(-theta), and a stationary
    maximum left toward negative theta."""

    def e_of(theta):
        return float(np.cos(4 * theta) + 0.5 * np.sin(theta))

    # E'(0) > 0: the step goes into the first well left of zero ...
    theta, _ = minimize_single_angle(e_of)
    assert -np.pi / 2 < theta < 0.0
    delta = 1e-4
    assert e_of(theta) <= min(e_of(theta - delta), e_of(theta + delta)) + 1e-9
    # ... and mirrored, into the first well right of zero
    mirrored, _ = minimize_single_angle(lambda t: e_of(-t))
    assert mirrored == pytest.approx(-theta, abs=1e-12)

    rng = np.random.default_rng(67)
    curvatures = set()
    for _ in range(10):
        coeffs = rng.normal(size=5)  # real: E(theta) = E(-theta)
        energy, values = trig_polynomial(coeffs)
        curvature = -np.sum(np.arange(5) ** 2 * coeffs)  # E''(0)
        curvatures.add(np.sign(curvature))
        theta, _ = minimize_single_angle(energy)
        if curvature > 0:
            assert theta == 0.0
        else:
            gap = abs(theta - walk_downhill(values, -1))
            assert theta < 0.0 and gap <= 2 * np.pi / 100000
    assert curvatures == {-1.0, 1.0}

    # a degenerate minimum (a triple root of E') is no simple unit-circle
    # root; the step stays put rather than fail
    theta, _ = minimize_single_angle(lambda t: (1 - np.cos(t - 1)) ** 2)
    assert theta == 0.0


# ---------------------------------------------------------------------------
# sweeps and joint polish


def test_sweep_monotone_and_below_start():
    case = h2_case(R_A, "6-31g")
    d1, d2 = full_rdms(case)
    params, report = givens_sweep(case["mol"], d1, d2, case["partition"])
    assert report.final_energy <= report.initial_energy + 1e-12
    trace = [report.initial_energy] + report.sweep_energies
    assert all(a >= b - 1e-12 for a, b in zip(trace, trace[1:]))
    u = params.unitary()
    assert energy_of_rotation(u, case["mol"], d1, d2) == pytest.approx(
        report.final_energy, abs=TOL_ORACLE
    )


def test_sweep_stationary_at_optimum():
    """Re-sweeping in the relaxed orbitals finds no further rotation."""
    case = h2_case(R_A, "6-31g")
    d1, d2 = full_rdms(case)
    params, report = givens_sweep(case["mol"], d1, d2, case["partition"])
    relaxed = rotate_integrals(case["mol"], params.unitary())
    params2, report2 = givens_sweep(relaxed, d1, d2, case["partition"])
    assert all(abs(t) < 1e-6 for t in params2.angles)
    assert report2.final_energy == pytest.approx(report.final_energy, abs=1e-9)


def test_joint_zero_budget_returns_initial():
    case = h2_case(R_A, "6-31g")
    d1, d2 = full_rdms(case)
    initial = RotationParameters(4, ((1, 2),), np.array([0.05]))
    params, report = joint_optimize(
        case["mol"], d1, d2, case["partition"], initial=initial, budget=0
    )
    assert report.budget_exhausted
    assert params.angles == pytest.approx(initial.angles, abs=TOL_EXACT)
    assert report.final_energy == pytest.approx(report.initial_energy, abs=TOL_EXACT)
    with pytest.raises(VqseError):
        joint_optimize(case["mol"], d1, d2, case["partition"], budget=-1)


def test_joint_polish_after_sweep_is_marginal():
    case = h2_case(R_A, "6-31g")
    d1, d2 = full_rdms(case)
    params, report = givens_sweep(case["mol"], d1, d2, case["partition"])
    _, polished = joint_optimize(case["mol"], d1, d2, case["partition"], initial=params)
    improvement = report.final_energy - polished.final_energy
    assert 0.0 <= improvement <= 1e-8


def test_joint_never_worse_than_start():
    case = h2_case(R_A, "sto-3g")
    d1, d2 = full_rdms(case)
    _, report = joint_optimize(case["mol"], d1, d2, case["partition"], budget=40)
    assert report.final_energy <= report.initial_energy + TOL_EXACT


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
    d1, d2 = full_rdms(case)
    _, manual = givens_sweep(case["mol"], d1, d2, partition)
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
    1.4 A with 3 active orbitals and at 0.6 A with 2 pass through saddles
    that are stationary along every single angle."""
    h = 1e-3
    for r, n_active in ((1.4, 3), (0.6, 2)):
        case = h2_case(r, "6-31g", n_active)
        partition = case["partition"]
        mol, _, _ = relax_then_resolve(case["mol"], partition, 2, cycles=12)
        active_mol = _slice_integrals(mol, partition.active)
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
    assert all(not r.angle_table for r in reports)
    with pytest.raises(VqseError):
        relax_then_resolve(case["mol"], partition, 2, cycles=0)


def test_relax_with_core_uses_dressed_problem():
    """One frozen core orbital: the resolved active energy matches the
    dressed-Hamiltonian ground state."""
    case = h2_case(R_A, "6-31g")
    partition = OrbitalPartition(core=(0,), active=(1, 2), virtual=(3,))
    dressed = dress_core(case["mol"], partition)
    active = _slice_integrals(dressed, (0, 1))
    e_active, _ = ground_state(build_hamiltonian_action(active), 0, sz=0)
    _, energies, _ = relax_then_resolve(case["mol"], partition, 2, cycles=1)
    assert energies[0] == pytest.approx(e_active, abs=TOL_ORACLE)
