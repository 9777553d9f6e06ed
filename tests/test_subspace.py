"""Operator pool, subspace matrices, GEVP, and the end-to-end scan point."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

import vqse.subspace
import vqse.wick
from conftest import (
    SlaterCondon,
    adjoint_ops,
    embed_wavefunction,
    h2_case,
    h4_chain_mol,
    higher_cumulants,
    random_wavefunction,
    sector_determinants,
)
from vqse import ANGSTROM_PER_BOHR
from vqse.cli import ScanConfig, _scan_point
from vqse.exceptions import DegenerateMetricError, PartitionError, VqseError
from vqse.fci import (
    Wavefunction,
    apply_ladder_string,
    build_hamiltonian_action,
    ground_state,
)
from vqse.integrals import (
    Geometry,
    compute_ao_integrals,
    dress_core,
    load_basis,
    run_rhf,
    transform_to_mo,
)
from vqse.rdm import Rdm, compute_rdm, cumulant_3rdm, cumulant_4rdm, inject_shot_noise, wedge
from vqse.spaces import OrbitalPartition
from vqse.subspace import (
    ExpansionOperator,
    SubspacePair,
    assemble_subspace,
    build_pool,
    canonical_orthogonalize,
    solve_gevp,
)
from vqse.wick import RdmSet

TOL_EXACT = 1e-12
TOL_ORACLE = 1e-10
R_A = 1.4 * ANGSTROM_PER_BOHR  # 1.4 bohr in angstrom


def operator_matrix(op_ladder, dets, n_spin):
    """Dense matrix of a ladder string on a determinant basis."""
    index = {d: k for k, d in enumerate(dets)}
    m = np.zeros((len(dets), len(dets)))
    for col, det in enumerate(dets):
        sign, new = apply_ladder_string(op_ladder, det, n_spin)
        if sign and new in index:
            m[index[new], col] = sign
    return m


def oracle_pair(pool, mol, wfn, partition):
    """Subspace matrices by explicit operator application in the full
    N-electron sector (independent of the Wick machinery)."""
    n_spin = mol.n_spin
    dets = sector_determinants(n_spin, wfn.n_electrons)
    full = embed_wavefunction(wfn, partition, n_spin)
    v = np.zeros(len(dets))
    for k, det in enumerate(dets):
        v[k] = full.amplitudes.get(det, 0.0).real if det in full.amplitudes else 0.0
    h_full = SlaterCondon(mol).dense_matrix(dets)
    ops = [operator_matrix(op.ladder_ops(), dets, n_spin) for op in pool]
    cols = [m @ v for m in ops]
    n = len(pool)
    h = np.zeros((n, n))
    s = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            s[i, j] = cols[i] @ cols[j]
            h[i, j] = cols[i] @ h_full @ cols[j]
    return h, s


# ---------------------------------------------------------------------------
# pool enumeration


def unpruned_pool(partition):
    """Every identity, single a+_i a_p and double a+_mu a_q a+_nu a_r
    (mu < nu virtual), S_z-changing ones included, in canonical order."""
    active, virtual = partition.active_spin, partition.virtual_spin
    pool = [ExpansionOperator("identity")]
    pool += [ExpansionOperator("single", (i, p)) for i in sorted(active + virtual) for p in active]
    pool += [
        ExpansionOperator("double", (mu, q, nu, r))
        for mu, nu in itertools.combinations(sorted(virtual), 2)
        for q in active
        for r in active
    ]
    return pool


def test_expansion_operator_validation():
    with pytest.raises(VqseError):
        ExpansionOperator("triple")
    with pytest.raises(VqseError):
        ExpansionOperator("single", (1, 2, 3))


def test_pool_singles_only_one_spatial_active():
    partition = OrbitalPartition(core=(), active=(0,), virtual=())
    pool = unpruned_pool(partition)
    assert len(pool) == 1 + 2 * 2  # identity + a+_i a_p over 2 spin orbitals
    assert pool[0].kind == "identity"


def test_pool_empty_restriction_leaves_identity():
    partition = OrbitalPartition.from_counts(0, 2, 4)
    pool = build_pool(partition, restrict_to=())
    assert len(pool) == 1 and pool[0].kind == "identity"


def test_pool_closed_form_count_ccpvdz():
    partition = OrbitalPartition.from_counts(0, 2, 10)  # 4 active + 16 virtual spin
    pool = unpruned_pool(partition)
    n_act, n_virt = 4, 16
    expected = 1 + (n_act + n_virt) * n_act + math.comb(n_virt, 2) * n_act * n_act
    assert len(pool) == expected == 2001
    assert len(set(pool)) == len(pool)  # no duplicates
    # S_z-conserving: same-spin singles, and doubles whose two active
    # targets carry the spins of the two virtuals
    half_act, half_virt = n_act // 2, n_virt // 2
    singles = (n_act + n_virt) * half_act
    same_spin_doubles = 2 * math.comb(half_virt, 2) * half_act**2
    mixed_spin_doubles = half_virt**2 * 2 * half_act**2
    sz_expected = 1 + singles + same_spin_doubles + mixed_spin_doubles
    assert len(build_pool(partition)) == sz_expected == 777


def test_pool_sz_pruning_matches_manual_filter():
    partition = OrbitalPartition.from_counts(0, 2, 6)
    full = unpruned_pool(partition)
    pruned = build_pool(partition)
    assert pruned == [op for op in full if op.delta_sz() == 0]
    assert all(op.delta_sz() == 0 for op in pruned)
    assert len(pruned) < len(full)


def test_pool_validation_errors():
    with pytest.raises(PartitionError):
        build_pool(OrbitalPartition(core=(0,), active=(), virtual=(1,)))
    partition = OrbitalPartition.from_counts(0, 2, 4)
    with pytest.raises(PartitionError):
        build_pool(partition, restrict_to=(99,))


def test_adjoint_ops_reverse_and_flip():
    op = ExpansionOperator("double", (8, 1, 10, 3))
    assert adjoint_ops(op) == ((3, True), (10, False), (1, True), (8, False))


# ---------------------------------------------------------------------------
# assembly


def test_identity_pool_gives_reference_expectation():
    case = h2_case(R_A, "6-31g")
    wfn = case["wfn"]
    rdms = RdmSet.from_wavefunction(wfn)
    pool = [ExpansionOperator("identity")]
    pair = assemble_subspace(pool, case["mol"], rdms, case["partition"])
    assert pair.s[0, 0] == pytest.approx(1.0, abs=TOL_ORACLE)
    assert pair.h[0, 0] == pytest.approx(case["e_ref"], abs=TOL_ORACLE)


def test_zero_virtual_space_reproduces_active_qse():
    """No virtuals: the assembly must equal the dense active-space
    computation <Psi|O_i+ H O_j|Psi>."""
    case = h2_case(R_A, "sto-3g", n_active_spatial=2)
    mol, wfn = case["mol"], case["wfn"]
    partition = case["partition"]
    assert not partition.virtual
    rdms = RdmSet.from_wavefunction(wfn)
    pool = build_pool(partition)
    pair = assemble_subspace(pool, mol, rdms, partition)
    h_ref, s_ref = oracle_pair(pool, mol, wfn, partition)
    assert np.max(np.abs(pair.h - h_ref)) < TOL_ORACLE
    assert np.max(np.abs(pair.s - s_ref)) < TOL_ORACLE


def test_assembly_matches_full_space_oracle_631g():
    case = h2_case(R_A, "6-31g")
    mol, wfn, partition = case["mol"], case["wfn"], case["partition"]
    rdms = RdmSet.from_wavefunction(wfn)
    pool = build_pool(partition)
    pair = assemble_subspace(pool, mol, rdms, partition)
    h_ref, s_ref = oracle_pair(pool, mol, wfn, partition)
    assert np.max(np.abs(pair.h - h_ref)) < TOL_ORACLE
    assert np.max(np.abs(pair.s - s_ref)) < TOL_ORACLE
    assert pair.h_asymmetry < 1e-10 and pair.s_asymmetry < 1e-10


def test_vectorized_assembly_matches_elementwise_path():
    """A pool restricted to some active targets against the element-by-
    element oracle."""
    case = h2_case(R_A, "6-31g")
    mol, wfn, partition = case["mol"], case["wfn"], case["partition"]
    rdms = RdmSet.from_wavefunction(wfn)
    pool = build_pool(partition, restrict_to=(2, 3))
    pair = assemble_subspace(pool, mol, rdms, partition)
    h_ref, s_ref = oracle_pair(pool, mol, wfn, partition)
    assert np.max(np.abs(pair.h - h_ref)) < TOL_ORACLE
    assert np.max(np.abs(pair.s - s_ref)) < TOL_ORACLE


def four_electron_slice():
    """H4/6-31G at 1.8 bohr sliced to 5 orbitals, 3 active and 2 virtual:
    (integrals, active ground state, partition)."""
    h4 = h4_chain_mol("6-31g")
    mol = dress_core(h4, OrbitalPartition.from_counts(0, 5, h4.n_spatial))
    partition = OrbitalPartition.from_counts(0, 3, 5)
    _, wfn = ground_state(build_hamiltonian_action(dress_core(mol, partition)), 4, sz=0)
    return mol, wfn, partition


def test_assembly_matches_full_space_oracle_four_electrons():
    """A 4-electron reference, where the Wick terms with an odd number of
    virtual pairs or a rank-3/4 active residue no longer vanish."""
    mol, wfn, partition = four_electron_slice()
    rdms = RdmSet.from_wavefunction(wfn)
    pool = build_pool(partition)
    assert len(pool) == 121
    pair = assemble_subspace(pool, mol, rdms, partition)
    h_ref, s_ref = oracle_pair(pool, mol, wfn, partition)
    assert np.max(np.abs(pair.h - h_ref)) < TOL_ORACLE
    assert np.max(np.abs(pair.s - s_ref)) < TOL_ORACLE


def test_assembly_of_shuffled_pool_with_duplicate():
    """Support terms scatter to the right entries when a class's pool rows
    are not monotone and one operator appears twice: the oracle agrees, and
    the result is the canonical pool's matrices permuted, bit for bit."""
    mol, wfn, partition = four_electron_slice()
    rdms = RdmSet.from_wavefunction(wfn)
    canonical = build_pool(partition)
    order = np.random.default_rng(5).permutation(len(canonical))
    order = np.insert(order, 60, order[7])
    pool = [canonical[k] for k in order]
    pair = assemble_subspace(pool, mol, rdms, partition)
    h_ref, s_ref = oracle_pair(pool, mol, wfn, partition)
    assert np.max(np.abs(pair.h - h_ref)) < TOL_ORACLE
    assert np.max(np.abs(pair.s - s_ref)) < TOL_ORACLE
    reference = assemble_subspace(canonical, mol, rdms, partition)
    assert np.array_equal(pair.h, reference.h[np.ix_(order, order)])
    assert np.array_equal(pair.s, reference.s[np.ix_(order, order)])


def test_assembly_of_single_target_pool():
    """A pool restricted to one active spin orbital: its one double,
    a+_mu a_0 a+_nu a_0, has mu != nu, so the support of mu = nu' is empty."""
    mol, wfn, partition = four_electron_slice()
    rdms = RdmSet.from_wavefunction(wfn)
    pool = build_pool(partition, restrict_to=(0,))
    assert [op.kind for op in pool].count("double") == 1
    pair = assemble_subspace(pool, mol, rdms, partition)
    h_ref, s_ref = oracle_pair(pool, mol, wfn, partition)
    assert np.max(np.abs(pair.h - h_ref)) < TOL_ORACLE
    assert np.max(np.abs(pair.s - s_ref)) < TOL_ORACLE


def test_ccpvdz_assembly_peak_memory():
    """The full H2/cc-pVDZ pool (777 operators) assembles in far less memory
    than a dense buffer over the doubles' parameter grid (4096^2 entries,
    128 MB per block) would take."""
    case = h2_case(R_A, "cc-pvdz")
    rdms = RdmSet.from_wavefunction(case["wfn"])
    pool = build_pool(case["partition"])
    assert len(pool) == 777
    tracemalloc.start()
    try:
        assemble_subspace(pool, case["mol"], rdms, case["partition"])
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    print(f"assembly peak {peak_mb:.1f} MB")
    assert peak_mb <= 64


def test_h4_assembly_skips_terms_without_support(monkeypatch):
    """H4/6-31G at 1.8 bohr, 4 active orbitals: a Wick term whose bra-ket
    deltas no operator pair meets (in the D x D H block, mu = nu' and
    nu = mu' under mu < nu, mu' < nu') is dropped before it reads the
    rank-4 RDM, so no ``_contract_with_rdm`` call gets an empty column."""
    mol = h4_chain_mol("6-31g")
    partition = OrbitalPartition.from_counts(0, 4, mol.n_spatial)
    _, wfn = ground_state(build_hamiltonian_action(dress_core(mol, partition)), 4, sz=0)
    original = vqse.subspace._contract_with_rdm
    sizes = []

    def recording(w, w_spec, d, d_spec, column):
        sizes.extend(np.size(c) for c in column.values())
        return original(w, w_spec, d, d_spec, column)

    monkeypatch.setattr(vqse.subspace, "_contract_with_rdm", recording)
    assemble_subspace(build_pool(partition), mol, RdmSet.from_wavefunction(wfn), partition)
    assert sizes and min(sizes) > 0


def test_h4_assembly_builds_no_rank8_pattern(monkeypatch):
    """H4/6-31G at 1.8 bohr, 4 active orbitals: every Wick term reads the
    bare RDMs, so no active-pattern tensor is built, in particular no dense
    8^8 one (134 MB each), and the assembly stays far below the size of
    one.  The GEVP then lands between E_FCI and E_ref, on the energy and
    retained dimension the benchmark's h4_chain_631g point reads here."""
    geometry = Geometry.from_list([("H", 1.0, (0.0, 0.0, 1.8 * k)) for k in range(4)])
    ao = compute_ao_integrals(geometry, load_basis("6-31g"))
    mol = transform_to_mo(ao, run_rhf(ao, 4).mo_coefficients)
    partition = OrbitalPartition.from_counts(0, 4, mol.n_spatial)
    e_ref, wfn = ground_state(build_hamiltonian_action(dress_core(mol, partition)), 4, sz=0)
    rdms = RdmSet.from_wavefunction(wfn)
    pool = build_pool(partition)
    assert len(pool) == 769
    e_fci, _ = ground_state(build_hamiltonian_action(mol), 4, sz=0)
    original = vqse.wick.active_pattern_tensor
    daggers = []

    def counting(pattern, *args, **kwargs):
        daggers.append(pattern)
        return original(pattern, *args, **kwargs)

    monkeypatch.setattr(vqse.wick, "active_pattern_tensor", counting)
    tracemalloc.start()
    try:
        pair = assemble_subspace(pool, mol, rdms, partition)
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    print(f"assembly peak {peak_mb:.1f} MB, pattern tensors built: {len(daggers)}")
    assert not daggers
    assert peak_mb <= 200
    assert pair.h_asymmetry < 1e-10 and pair.s_asymmetry < 1e-10
    solution = solve_gevp(pair)
    assert e_fci - 1e-9 <= solution.ground_energy <= e_ref
    assert solution.ground_energy == pytest.approx(-2.2256205466912973, abs=1e-10)
    assert solution.retained_dimension == 391


def test_assembly_rejects_core_partition():
    case = h2_case(R_A, "6-31g")
    rdms = RdmSet.from_wavefunction(case["wfn"])
    partition = OrbitalPartition(core=(0,), active=(1, 2), virtual=(3,))
    with pytest.raises(PartitionError):
        assemble_subspace([ExpansionOperator("identity")], case["mol"], rdms, partition)


# ---------------------------------------------------------------------------
# canonical orthogonalization and GEVP


def test_orthogonalize_identity_metric():
    x, discarded = canonical_orthogonalize(np.eye(5))
    assert discarded.size == 0
    assert np.allclose(x.T @ np.eye(5) @ x, np.eye(5), atol=TOL_EXACT)


def test_orthogonalize_whitens_random_metric():
    rng = np.random.default_rng(51)
    a = rng.normal(size=(6, 6))
    s = a @ a.T + 6 * np.eye(6)
    x, _ = canonical_orthogonalize(s)
    assert np.max(np.abs(x.T @ s @ x - np.eye(x.shape[1]))) < 1e-10


def test_orthogonalize_degenerate_metric_raises():
    with pytest.raises(DegenerateMetricError):
        canonical_orthogonalize(np.zeros((3, 3)))
    with pytest.raises(DegenerateMetricError):
        canonical_orthogonalize(np.eye(3), eps=2.0)


def test_duplicated_pool_entry_drops_one_dimension():
    case = h2_case(R_A, "6-31g")
    rdms = RdmSet.from_wavefunction(case["wfn"])
    pool = build_pool(case["partition"])
    dup_pool = pool + [pool[3]]
    pair = assemble_subspace(dup_pool, case["mol"], rdms, case["partition"])
    solution = solve_gevp(pair)
    base = solve_gevp(assemble_subspace(pool, case["mol"], rdms, case["partition"]))
    assert solution.retained_dimension == len(dup_pool) - 1 - (
        len(pool) - base.retained_dimension
    )
    assert solution.ground_energy == pytest.approx(base.ground_energy, abs=1e-9)


def test_noisy_metric_eps_sweep_dimension_monotone():
    case = h2_case(R_A, "6-31g")
    wfn = case["wfn"]
    r1 = inject_shot_noise(compute_rdm(wfn, 1), 1e4, seed=3)
    r2 = inject_shot_noise(compute_rdm(wfn, 2), 1e4, seed=4)
    rdms = RdmSet({1: r1, 2: r2, 3: cumulant_3rdm(r1, r2), 4: cumulant_4rdm(r1, r2)})
    pool = build_pool(case["partition"])
    pair = assemble_subspace(pool, case["mol"], rdms, case["partition"])
    dims, rows = [], []
    for eps in (1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2):
        sol = solve_gevp(pair, eps=eps)
        dims.append(sol.retained_dimension)
        rows.append(f"eps={eps:.0e}  dim={sol.retained_dimension:3d}  "
                    f"E0={sol.ground_energy:+.8f}")
    print("\n".join(rows))
    assert all(a >= b for a, b in zip(dims, dims[1:]))


def test_gevp_identity_pool_returns_reference_energy():
    case = h2_case(R_A, "sto-3g")
    rdms = RdmSet.from_wavefunction(case["wfn"])
    pair = assemble_subspace(
        [ExpansionOperator("identity")], case["mol"], rdms, case["partition"]
    )
    sol = solve_gevp(pair)
    assert sol.ground_energy == pytest.approx(case["e_ref"], abs=TOL_ORACLE)


def test_gevp_closed_expansion_hits_fci():
    """STO-3G: the pool spans the whole sector, so the ground eigenvalue is
    the FCI energy."""
    case = h2_case(R_A, "sto-3g")
    rdms = RdmSet.from_wavefunction(case["wfn"])
    pool = build_pool(case["partition"])
    pair = assemble_subspace(pool, case["mol"], rdms, case["partition"])
    sol = solve_gevp(pair)
    e_fci, _ = ground_state(build_hamiltonian_action(case["mol"]), 2, sz=0)
    assert sol.ground_energy == pytest.approx(e_fci, abs=TOL_ORACLE)
    assert sol.residual_norm < 1e-8


def test_nested_pools_monotone_ground_energy():
    case = h2_case(R_A, "6-31g")
    mol, wfn, partition = case["mol"], case["wfn"], case["partition"]
    rdms = RdmSet.from_wavefunction(wfn)
    energies = []
    full_pool = build_pool(partition)
    pools = [
        [ExpansionOperator("identity")],
        [op for op in full_pool if op.kind != "double"],
        full_pool,
    ]
    for pool in pools:
        pair = assemble_subspace(pool, mol, rdms, partition)
        energies.append(solve_gevp(pair).ground_energy)
    assert energies[0] >= energies[1] - 1e-10
    assert energies[1] >= energies[2] - 1e-10
    assert energies[0] == pytest.approx(case["e_ref"], abs=TOL_ORACLE)


def test_excited_state_bound_reported():
    case = h2_case(R_A, "6-31g")
    rdms = RdmSet.from_wavefunction(case["wfn"])
    pool = build_pool(case["partition"])
    pair = assemble_subspace(pool, case["mol"], rdms, case["partition"])
    sol = solve_gevp(pair)
    dets = sector_determinants(8, 2, sz=0)
    exact = np.linalg.eigvalsh(SlaterCondon(case["mol"]).dense_matrix(dets))
    print(f"E1 subspace {sol.eigenvalues[1]:+.8f} vs exact {exact[1]:+.8f} "
          f"(excess {sol.eigenvalues[1] - exact[1]:.3e})")
    assert sol.eigenvalues[1] >= exact[1] - 1e-9


def test_cumulant_substitution_recovers_exact_assembly():
    """Reassembling ranks 3/4 from cumulants is exact when the connected
    3- and 4-body parts are kept."""
    case = h2_case(R_A, "6-31g")
    wfn = case["wfn"]
    exact = {k: compute_rdm(wfn, k) for k in range(1, 5)}
    delta3, delta4 = higher_cumulants(exact)
    connected = 24.0 * (4.0 * wedge(delta3, exact[1].tensor) + delta4)
    r4 = Rdm(4, exact[4].n, cumulant_4rdm(exact[1], exact[2]).tensor + connected)
    assert np.max(np.abs(r4.tensor - exact[4].tensor)) < TOL_ORACLE
    rebuilt = RdmSet({1: exact[1], 2: exact[2], 3: exact[3], 4: r4})
    pool = build_pool(case["partition"])
    a = assemble_subspace(pool, case["mol"], RdmSet(exact), case["partition"])
    b = assemble_subspace(pool, case["mol"], rebuilt, case["partition"])
    assert np.max(np.abs(a.h - b.h)) < TOL_ORACLE
    assert np.max(np.abs(a.s - b.s)) < TOL_ORACLE


def scan_point(basis, **config):
    """One point of the ``vqse scan`` pipeline at R = 1.4 bohr."""
    return _scan_point(R_A, ScanConfig(points_angstrom=[R_A], basis=basis, **config))


def test_cumulant_truncation_error_reported():
    exact_row, _ = scan_point("6-31g")
    cum_row, _ = scan_point("6-31g", cumulant_rank=2)
    gap = cum_row.e_vqse - exact_row.e_vqse
    print(f"rank-2 cumulant mode raises E_vqse by {gap:+.3e}")
    assert abs(gap) < 5e-3  # small but generally nonzero


# ---------------------------------------------------------------------------
# scan point


def test_scan_point_without_virtuals_collapses_to_reference():
    row, _ = scan_point("sto-3g")
    assert row.e_vqse == pytest.approx(row.e_ref, abs=TOL_ORACLE)
    assert row.e_vqse == pytest.approx(row.e_fci_full, abs=TOL_ORACLE)


def test_scan_point_variational_and_report():
    row, report = scan_point("6-31g")
    assert row.e_vqse <= row.e_ref + 1e-10
    assert row.e_vqse >= row.e_fci_full - 1e-10
    assert report["e_vqse"] == row.e_vqse
    assert report["pool_size"] == len(build_pool(h2_case(R_A, "6-31g")["partition"]))
    assert report["h_asymmetry"] < 1e-10 and report["s_asymmetry"] < 1e-10
    dropped = report["pool_size"] - report["retained_dimension"]
    assert report["discarded_metric_count"] == dropped > 0
    assert report["discarded_metric_min"] <= report["discarded_metric_max"]
    # canonical orthogonalization keeps lambda > eps * lambda_max, eps = 1e-8
    assert 1.0 <= report["retained_metric_condition"] < 1e8
