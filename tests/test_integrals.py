"""Gaussian integrals, SCF, MO transforms, core dressing, and FCIDUMP I/O."""

import dataclasses
import itertools
import json
import tracemalloc

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from conftest import (
    DATA_DIR,
    SlaterCondon,
    embed_wavefunction,
    h2_case,
    random_wavefunction,
    scalar_ao_integrals,
    translated,
    validate_symmetry,
)
from vqse import ANGSTROM_PER_BOHR
from vqse.exceptions import ParseError
from vqse.fci import (
    Wavefunction,
    build_hamiltonian_action,
    full_space_expectation,
    ground_state,
)
from vqse.integrals import (
    MolecularIntegrals,
    boys_function,
    compute_ao_integrals,
    dress_core,
    h2_geometry,
    load_basis,
    nuclear_repulsion,
    read_fcidump,
    rotate_integrals,
    run_rhf,
    transform_one,
    transform_to_mo,
    transform_two,
    write_fcidump,
)
from vqse.integrals.basis import Geometry
from vqse.integrals.gaussians import build_ao_basis
from vqse.spaces import OrbitalPartition

TOL_EXACT = 1e-12
TOL_DERIVED = 1e-10
R_REF = 1.4  # bohr
# Off-axis geometries, so that every Cartesian direction of the Hermite
# recursions carries weight: H2 with bond length R_REF along the unit vector
# (0.36, -0.48, 0.8), and three H atoms in a generic triangle (run as H3+
# with two electrons).
H2_GENERIC = Geometry.from_list(
    [("H", 1.0, (0.2, -0.1, 0.3)), ("H", 1.0, (0.704, -0.772, 1.42))]
)
H3_TRIANGLE = Geometry.from_list(
    [("H", 1.0, (0.1, -0.2, 0.3)), ("H", 1.0, (1.3, 0.4, -0.5)), ("H", 1.0, (-0.7, 1.1, 0.9))]
)
AO_FIELDS = ("overlap", "kinetic", "nuclear", "eri")


def random_symmetric_integrals(n, rng, e_nuc=0.0):
    """Random MolecularIntegrals with the full 8-fold eri symmetry."""
    h1 = rng.normal(size=(n, n))
    h1 = 0.5 * (h1 + h1.T)
    raw = rng.normal(size=(n, n, n, n))
    eri = np.zeros_like(raw)
    for perm in (
        (0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2),
        (2, 3, 0, 1), (3, 2, 0, 1), (2, 3, 1, 0), (3, 2, 1, 0),
    ):
        eri += raw.transpose(perm)
    return MolecularIntegrals(n_spatial=n, e_nuc=e_nuc, h1=h1, eri=eri / 8.0)


# ---------------------------------------------------------------------------
# Boys function


def test_boys_at_zero_closed_form():
    assert boys_function(0, 0.0) == pytest.approx(1.0, abs=TOL_EXACT)
    assert boys_function(2, 0.0) == pytest.approx(0.2, abs=TOL_EXACT)
    for m in range(9):
        assert boys_function(m, 0.0) == pytest.approx(1.0 / (2 * m + 1), abs=TOL_EXACT)


def test_boys_against_quadrature():
    for m in range(5):
        for x in (0.0, 1e-8, 1e-3, 0.5, 1.0, 4.0, 17.3, 40.0):
            ref, err = scipy.integrate.quad(
                lambda t: t ** (2 * m) * np.exp(-x * t * t), 0.0, 1.0, epsabs=1e-14
            )
            assert boys_function(m, x) == pytest.approx(ref, abs=1e-12), (m, x)


def test_boys_value_at_one():
    # F_0(1) = int_0^1 exp(-t^2) dt
    ref, _ = scipy.integrate.quad(lambda t: np.exp(-t * t), 0.0, 1.0, epsabs=1e-14)
    assert ref == pytest.approx(0.7468, abs=5e-5)
    assert boys_function(0, 1.0) == pytest.approx(ref, abs=1e-12)


# ---------------------------------------------------------------------------
# AO integrals


def test_ao_overlap_normalized_diagonal():
    ao = compute_ao_integrals(h2_geometry(R_REF), load_basis("sto-3g"))
    assert np.allclose(np.diag(ao.overlap), 1.0, atol=TOL_DERIVED)


def test_ao_symmetries():
    for basis in ("sto-3g", "6-31g", "cc-pvdz"):
        ao = compute_ao_integrals(h2_geometry(R_REF), load_basis(basis))
        assert np.max(np.abs(ao.overlap - ao.overlap.T)) < TOL_EXACT
        assert np.max(np.abs(ao.kinetic - ao.kinetic.T)) < TOL_EXACT
        assert np.max(np.abs(ao.nuclear - ao.nuclear.T)) < TOL_EXACT
        for perm in ((1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1)):
            assert np.max(np.abs(ao.eri - ao.eri.transpose(perm))) < TOL_EXACT


def test_atom_order_swap_permutes_integrals():
    geom = h2_geometry(R_REF)
    swapped = Geometry(atoms=tuple(reversed(geom.atoms)))
    a = compute_ao_integrals(geom, load_basis("sto-3g"))
    b = compute_ao_integrals(swapped, load_basis("sto-3g"))
    perm = [1, 0]  # one AO per atom in a minimal basis
    assert np.allclose(a.overlap, b.overlap[np.ix_(perm, perm)], atol=TOL_EXACT)
    assert np.allclose(a.hcore, b.hcore[np.ix_(perm, perm)], atol=TOL_EXACT)
    assert np.allclose(
        a.eri, b.eri[np.ix_(perm, perm, perm, perm)], atol=TOL_EXACT
    )


def test_translational_invariance():
    basis = load_basis("6-31g")
    geom = h2_geometry(R_REF)
    shifted = translated(geom, (0.3, -1.7, 2.9))
    a = compute_ao_integrals(geom, basis)
    b = compute_ao_integrals(shifted, basis)
    assert a.e_nuc == pytest.approx(b.e_nuc, abs=TOL_DERIVED)
    assert np.max(np.abs(a.overlap - b.overlap)) < TOL_DERIVED
    assert np.max(np.abs(a.kinetic - b.kinetic)) < TOL_DERIVED
    assert np.max(np.abs(a.nuclear - b.nuclear)) < TOL_DERIVED
    assert np.max(np.abs(a.eri - b.eri)) < TOL_DERIVED


def test_batched_ao_integrals_match_scalar_oracle():
    """S, T, V and (pq|rs) equal the scalar one-quartet-at-a-time oracle, on
    the z axis and off it."""
    basis = load_basis("cc-pvdz")
    for geometry in (h2_geometry(R_REF), H2_GENERIC, H3_TRIANGLE):
        ao = compute_ao_integrals(geometry, basis)
        for field, ref in zip(AO_FIELDS, scalar_ao_integrals(geometry, basis)):
            assert np.max(np.abs(getattr(ao, field) - ref)) < TOL_EXACT, field


def _rotated(geometry, rotation):
    return Geometry(
        tuple(
            dataclasses.replace(atom, position=tuple(rotation @ np.asarray(atom.position)))
            for atom in geometry.atoms
        )
    )


def test_rotated_geometry_transforms_integrals():
    """Rotating the nuclei by R rotates each p triple by R and leaves the s
    functions alone: the integrals of the rotated molecule are those of the
    original one transformed by that block-diagonal AO rotation, and the RHF
    energy does not move."""
    gen = np.array([[0.0, -0.3, 0.5], [0.3, 0.0, -0.7], [-0.5, 0.7, 0.0]])
    rotation = scipy.linalg.expm(gen)
    basis = load_basis("cc-pvdz")
    for geometry in (h2_geometry(R_REF), H3_TRIANGLE):
        aos = build_ao_basis(geometry, basis)
        u = np.eye(len(aos))
        for k, ao in enumerate(aos):
            if ao.powers == (1, 0, 0):
                u[k : k + 3, k : k + 3] = rotation
        ao = compute_ao_integrals(geometry, basis)
        rotated = compute_ao_integrals(_rotated(geometry, rotation), basis)
        for field in ("overlap", "kinetic", "nuclear"):
            expected = u @ getattr(ao, field) @ u.T
            assert np.max(np.abs(getattr(rotated, field) - expected)) < TOL_EXACT, field
        expected = np.einsum("ap,bq,cr,ds,pqrs->abcd", u, u, u, u, ao.eri, optimize=True)
        assert np.max(np.abs(rotated.eri - expected)) < TOL_EXACT
        assert run_rhf(rotated, 2).scf_energy == pytest.approx(
            run_rhf(ao, 2).scf_energy, abs=TOL_DERIVED
        )


def test_ao_integrals_memory_bounded():
    """The batched kernel works in fixed-size blocks of primitive quartets,
    so one warm call stays within a few MB of traced allocations."""
    chain = Geometry.from_list([("H", 1.0, (0.0, 0.0, 1.8 * k)) for k in range(4)])
    basis = load_basis("cc-pvdz")
    for geometry in (h2_geometry(R_REF), chain):
        compute_ao_integrals(geometry, basis)
        tracemalloc.start()
        try:
            compute_ao_integrals(geometry, basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5e6, peak


def test_nuclear_repulsion_h2():
    assert nuclear_repulsion(h2_geometry(R_REF)) == pytest.approx(1.0 / R_REF, abs=TOL_EXACT)


def test_mo_integrals_match_bundled_oracle():
    """|MO integrals| agree with the bundled high-precision FCIDUMP files.

    Absolute values, because the orbital phase convention is not shared;
    the tolerance reflects the SCF convergence of the orbitals themselves
    (the variational energies agree orders of magnitude tighter).  For
    cc-pVDZ the degenerate pi orbitals are only fixed up to a rotation
    within their block, so only the rotation-invariant h1 spectrum is
    compared elementwise there."""
    manifest = json.loads((DATA_DIR / "reference.json").read_text())
    r_bohr = manifest["r_bohr"]
    for basis, case in manifest["cases"].items():
        mol_ref, _, _ = read_fcidump(DATA_DIR / case["fcidump"])
        ao = compute_ao_integrals(h2_geometry(r_bohr), load_basis(basis))
        scf = run_rhf(ao, 2)
        mol = transform_to_mo(ao, scf.mo_coefficients)
        assert mol.n_spatial == case["n_ao"]
        assert np.max(np.abs(np.sort(np.linalg.eigvalsh(mol.h1))
                             - np.sort(np.linalg.eigvalsh(mol_ref.h1)))) < 1e-7
        if basis != "cc-pvdz":
            assert np.max(np.abs(np.abs(mol.h1) - np.abs(mol_ref.h1))) < 1e-6
            assert np.max(np.abs(np.abs(mol.eri) - np.abs(mol_ref.eri))) < 1e-6


# ---------------------------------------------------------------------------
# RHF


def test_rhf_h2_sto3g_reference_energy():
    case = h2_case(R_REF * ANGSTROM_PER_BOHR, "sto-3g")
    scf = case["scf"]
    assert scf.converged
    assert scf.scf_energy == pytest.approx(-1.1167, abs=1e-3)


def test_rhf_energy_equals_determinant_expectation():
    """E_RHF = <HF det|H|HF det> evaluated through the exact-diagonalization
    machinery in the MO basis."""
    for basis in ("sto-3g", "6-31g"):
        case = h2_case(R_REF * ANGSTROM_PER_BOHR, basis)
        hf_det = 0b11  # both spin orbitals of the lowest MO
        assert SlaterCondon(case["mol"]).diagonal(hf_det) == pytest.approx(
            case["scf"].scf_energy, abs=TOL_DERIVED
        )


def test_rhf_oracle_energies():
    manifest = json.loads((DATA_DIR / "reference.json").read_text())
    r_angstrom = manifest["r_angstrom"]
    for basis, case in manifest["cases"].items():
        scf = h2_case(r_angstrom, basis)["scf"]
        assert scf.scf_energy == pytest.approx(case["e_rhf"], abs=1e-9), basis


def test_rhf_basis_monotonicity():
    e_min = h2_case(R_REF * ANGSTROM_PER_BOHR, "sto-3g")["scf"].scf_energy
    e_dz = h2_case(R_REF * ANGSTROM_PER_BOHR, "cc-pvdz")["scf"].scf_energy
    assert e_dz < e_min


def test_rhf_one_orbital_closed_form():
    """Single spatial orbital, two electrons: E = 2 h11 + (11|11) + e_nuc."""
    mol = MolecularIntegrals(
        n_spatial=1, e_nuc=0.7, h1=np.array([[-1.25]]), eri=np.full((1, 1, 1, 1), 0.6)
    )
    assert SlaterCondon(mol).diagonal(0b11) == pytest.approx(2 * -1.25 + 0.6 + 0.7, abs=TOL_EXACT)


def test_rhf_rejects_odd_electron_count():
    ao = compute_ao_integrals(h2_geometry(R_REF), load_basis("sto-3g"))
    with pytest.raises(ValueError):
        run_rhf(ao, 3)


# ---------------------------------------------------------------------------
# MO transforms


def test_transform_identity():
    mol = random_symmetric_integrals(3, np.random.default_rng(7))
    eye = np.eye(3)
    assert np.allclose(transform_one(mol.h1, eye), mol.h1, atol=TOL_EXACT)
    assert np.allclose(transform_two(mol.eri, eye), mol.eri, atol=TOL_EXACT)


def test_transform_permutation_relabels():
    rng = np.random.default_rng(11)
    mol = random_symmetric_integrals(4, rng)
    perm = [2, 0, 3, 1]
    p = np.zeros((4, 4))
    for new, old in enumerate(perm):
        p[old, new] = 1.0
    assert np.allclose(transform_one(mol.h1, p), mol.h1[np.ix_(perm, perm)], atol=TOL_EXACT)
    assert np.allclose(
        transform_two(mol.eri, p), mol.eri[np.ix_(perm, perm, perm, perm)], atol=TOL_EXACT
    )


def test_transform_two_matches_direct_contraction():
    rng = np.random.default_rng(13)
    mol = random_symmetric_integrals(4, rng)
    c = np.linalg.qr(rng.normal(size=(4, 4)))[0]
    direct = np.einsum("pqrs,pi,qj,rk,sl->ijkl", mol.eri, c, c, c, c)
    fast = transform_two(mol.eri, c)
    assert np.max(np.abs(fast - direct)) < TOL_DERIVED
    # 8-fold symmetry survives the rotation
    rotated = MolecularIntegrals(4, 0.0, transform_one(mol.h1, c), fast)
    validate_symmetry(rotated, tol=TOL_DERIVED)


def test_rotate_integrals_by_column_block():
    """A column block of U gives the integrals of the full rotation over
    just those orbitals, core energy shift included."""
    rng = np.random.default_rng(17)
    mol = random_symmetric_integrals(5, rng, e_nuc=0.3)
    mol.core_energy_shift = -0.2
    u = np.linalg.qr(rng.normal(size=(5, 5)))[0]
    cols = [1, 3]
    full = rotate_integrals(mol, u)
    block = rotate_integrals(mol, u[:, cols])
    assert block.n_spatial == 2
    assert block.constant == pytest.approx(full.constant, abs=TOL_EXACT)
    assert np.max(np.abs(block.h1 - full.h1[np.ix_(cols, cols)])) < TOL_DERIVED
    assert np.max(np.abs(block.eri - full.eri[np.ix_(cols, cols, cols, cols)])) < TOL_DERIVED
    for bad in (np.eye(4), rng.normal(size=(5, 6)), np.ones(5)):
        with pytest.raises(ValueError):
            rotate_integrals(mol, bad)


def test_transform_rejects_singular_coefficients():
    ao = compute_ao_integrals(h2_geometry(R_REF), load_basis("sto-3g"))
    with pytest.raises(ValueError):
        transform_to_mo(ao, np.ones((2, 2)))


# ---------------------------------------------------------------------------
# core dressing


def test_dress_core_empty_core_is_passthrough():
    """Without a core, the active-space Hamiltonian is the active block of
    the integrals, bit for bit; the virtuals are dropped."""
    mol = h2_case(R_REF * ANGSTROM_PER_BOHR, "6-31g")["mol"]
    partition = OrbitalPartition.from_counts(0, 2, mol.n_spatial)
    dressed = dress_core(mol, partition)
    assert dressed.n_spatial == 2
    assert np.array_equal(dressed.h1, mol.h1[:2, :2])
    assert np.array_equal(dressed.eri, mol.eri[:2, :2, :2, :2])
    assert dressed.constant == mol.e_nuc
    whole = dress_core(mol, OrbitalPartition.from_counts(0, mol.n_spatial, mol.n_spatial))
    assert np.array_equal(whole.h1, mol.h1)
    assert np.array_equal(whole.eri, mol.eri)


def test_dress_core_all_core_gives_determinant_energy():
    case = h2_case(R_REF * ANGSTROM_PER_BOHR, "sto-3g")
    mol = case["mol"]
    partition = OrbitalPartition(core=(0, 1), active=(), virtual=())
    dressed = dress_core(mol, partition)
    assert dressed.n_spatial == 0
    closed_shell = 0b1111  # every spin orbital occupied
    assert dressed.constant == pytest.approx(
        SlaterCondon(mol).diagonal(closed_shell), abs=TOL_DERIVED
    )


def test_dress_core_expectation_identity_random_instance():
    """<core (x) Psi_A (x) vac|H|core (x) Psi_A (x) vac> equals the dressed
    active-space expectation, on random symmetric integrals over 4 spatial
    orbitals: one core, two active and one empty virtual."""
    rng = np.random.default_rng(17)
    mol = random_symmetric_integrals(4, rng, e_nuc=0.31)
    partition = OrbitalPartition(core=(0,), active=(1, 2), virtual=(3,))
    dressed = dress_core(mol, partition)
    assert dressed.n_spatial == 2
    for n_active_electrons in (1, 2, 3):
        wfn = random_wavefunction(4, n_active_electrons, rng)
        # embed over the core: active spin orbitals are 2..5, core 0..1,
        # virtual 6..7 empty
        lifted = {}
        for det, amp in wfn.amplitudes.items():
            lifted[(det << 2) | 0b11] = amp
        full = Wavefunction(lifted, 8, n_active_electrons + 2)
        e_full = full_space_expectation(
            full, SlaterCondon(mol).hamiltonian_terms(), full
        )
        e_dressed = full_space_expectation(
            wfn, SlaterCondon(dressed).hamiltonian_terms(), wfn
        )
        assert abs(e_full - e_dressed) < TOL_DERIVED


def test_dress_core_h2_631g_fci_invariance():
    """Freezing zero orbitals vs slicing after dressing one core orbital:
    the dressed 1-core problem reproduces the full FCI limit when the
    remaining space is exact."""
    case = h2_case(R_REF * ANGSTROM_PER_BOHR, "6-31g")
    mol = case["mol"]
    partition = OrbitalPartition.from_counts(1, mol.n_spatial - 1, mol.n_spatial)
    dressed = dress_core(mol, partition)
    e_dressed, _ = ground_state(build_hamiltonian_action(dressed), 0, sz=0)
    # 0 active electrons: the dressed constant is the HF determinant energy
    assert e_dressed == pytest.approx(case["scf"].scf_energy, abs=TOL_DERIVED)


# ---------------------------------------------------------------------------
# FCIDUMP


def test_fcidump_round_trip(tmp_path):
    rng = np.random.default_rng(19)
    mol = random_symmetric_integrals(4, rng, e_nuc=0.5)
    path = tmp_path / "random.fcidump"
    write_fcidump(mol, 4, 0, path)
    back, nelec, ms2 = read_fcidump(path)
    assert (nelec, ms2) == (4, 0)
    assert np.max(np.abs(back.h1 - mol.h1)) < TOL_EXACT
    assert np.max(np.abs(back.eri - mol.eri)) < TOL_EXACT
    assert back.constant == pytest.approx(mol.constant, abs=TOL_EXACT)


def test_fcidump_constant_only(tmp_path):
    path = tmp_path / "const.fcidump"
    path.write_text("&FCI NORB=2,NELEC=2,MS2=0,\n ORBSYM=1,1,\n ISYM=1,\n&END\n 0.0 0 0 0 0\n")
    mol, nelec, ms2 = read_fcidump(path)
    assert mol.constant == 0.0
    assert not np.any(mol.h1)
    assert not np.any(mol.eri)


def test_fcidump_parse_errors(tmp_path):
    header = "&FCI NORB=2,NELEC=2,MS2=0,\n ORBSYM=1,1,\n ISYM=1,\n&END\n"
    cases = {
        "no_end.fcidump": "&FCI NORB=2,NELEC=2,MS2=0,\n 1.0 1 1 0 0\n",
        "short_line.fcidump": header + "1.0 1 1 0\n",
        "bad_value.fcidump": header + "x 1 1 0 0\n",
        "out_of_range.fcidump": header + "1.0 3 1 0 0\n",
        "zero_index.fcidump": header + "1.0 1 0 2 2\n",
    }
    for name, text in cases.items():
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(ParseError):
            read_fcidump(path)


def test_fcidump_oracle_fci_energy():
    """The bundled STO-3G oracle file reproduces the production FCI energy."""
    mol, nelec, ms2 = read_fcidump(DATA_DIR / "h2_sto-3g_0.7414.fcidump")
    e_oracle, _ = ground_state(build_hamiltonian_action(mol), nelec, sz=ms2)
    manifest = json.loads((DATA_DIR / "reference.json").read_text())
    case = h2_case(manifest["r_angstrom"], "sto-3g")
    e_prod, _ = ground_state(build_hamiltonian_action(case["mol"]), 2, sz=0)
    assert e_oracle == pytest.approx(e_prod, abs=1e-8)
