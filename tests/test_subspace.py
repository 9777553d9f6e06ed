"""Operator pool, subspace matrices, GEVP, and the end-to-end scan point."""

import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse.csgraph

import vqse.assembly
import vqse.rdm
import vqse.subspace
import vqse.wick
from conftest import (
    SlaterCondon,
    adjoint_ops,
    apply_ladder_string,
    canonical_orthogonalize,
    delta_sz,
    dense_canonical_orthogonalize,
    dense_gevp,
    dense_w_first,
    determinant_state,
    embed_wavefunction,
    exact_rdms,
    fock_state,
    h2_case,
    h4_chain_mol,
    higher_cumulants,
    oracle_rdms,
    ordered_pair_pool,
    random_wavefunction,
    restricted_pool,
    sector_determinants,
    unpack_ends,
)
from vqse import ANGSTROM_PER_BOHR
from vqse.cli import ScanConfig, _scan_point
from vqse.exceptions import DegenerateMetricError, PartitionError
from vqse.fci import build_hamiltonian_action, ground_state
from vqse.integrals import (
    Geometry,
    compute_ao_integrals,
    dress_core,
    load_basis,
    run_rhf,
    transform_to_mo,
)
from vqse.rdm import Rdm, compute_rdm, cumulant_rdms, inject_shot_noise, wedge
from vqse.spaces import OrbitalPartition
from vqse.subspace import (
    VqseOptions,
    assemble_subspace,
    build_pool,
    reference_rdms,
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
    wfn = fock_state(wfn)
    n_spin = mol.n_spin
    dets = sector_determinants(n_spin, wfn.n_electrons)
    full = embed_wavefunction(wfn, partition, n_spin)
    v = np.array([full.amplitudes.get(det, 0.0) for det in dets])
    h_full = SlaterCondon(mol).dense_matrix(dets)
    ops = [operator_matrix(op, dets, n_spin) for op in pool]
    cols = [m @ v for m in ops]
    n = len(pool)
    h = np.zeros((n, n), dtype=v.dtype)
    s = np.zeros((n, n), dtype=v.dtype)
    for i in range(n):
        for j in range(n):
            s[i, j] = cols[i].conj() @ cols[j]
            h[i, j] = cols[i].conj() @ h_full @ cols[j]
    return h, s


# ---------------------------------------------------------------------------
# pool enumeration


def unpruned_pool(partition):
    """The ladder strings of every identity, single a+_i a_p and double
    a+_mu a_q a+_nu a_r (mu < nu virtual, q < r active), S_z-changing ones
    included, in canonical order."""
    active, virtual = partition.active_spin, partition.virtual_spin
    pool = [()]
    pool += [((i, True), (p, False)) for i in sorted(active + virtual) for p in active]
    pool += [
        ((mu, True), (q, False), (nu, True), (r, False))
        for mu, nu in itertools.combinations(sorted(virtual), 2)
        for q, r in itertools.combinations(sorted(active), 2)
    ]
    return pool


def test_pool_singles_only_one_spatial_active():
    partition = OrbitalPartition(core=(), active=(0,), virtual=())
    pool = unpruned_pool(partition)
    assert len(pool) == 1 + 2 * 2  # identity + a+_i a_p over 2 spin orbitals
    assert pool[0] == ()


def test_pool_closed_form_count_ccpvdz():
    partition = OrbitalPartition.from_counts(0, 2, 10)  # 4 active + 16 virtual spin
    pool = unpruned_pool(partition)
    n_act, n_virt = 4, 16
    expected = 1 + (n_act + n_virt) * n_act + math.comb(n_virt, 2) * math.comb(n_act, 2)
    assert len(pool) == expected == 801
    assert len(set(pool)) == len(pool)  # no duplicates
    # S_z-conserving: same-spin singles, and doubles whose two active
    # targets carry the spins of the two virtuals
    half_act, half_virt = n_act // 2, n_virt // 2
    singles = (n_act + n_virt) * half_act
    same_spin_doubles = 2 * math.comb(half_virt, 2) * math.comb(half_act, 2)
    mixed_spin_doubles = half_virt**2 * half_act**2
    sz_expected = 1 + singles + same_spin_doubles + mixed_spin_doubles
    assert len(build_pool(partition)) == sz_expected == 353


def test_pool_sz_pruning_matches_manual_filter():
    partition = OrbitalPartition.from_counts(0, 2, 6)
    full = unpruned_pool(partition)
    pruned = build_pool(partition)
    assert pruned == [op for op in full if delta_sz(op) == 0]
    assert all(delta_sz(op) == 0 for op in pruned)
    assert len(pruned) < len(full)


def test_dropped_doubles_are_sign_pairs_or_zero():
    """Each double of the ordered-pair pool that ``build_pool`` leaves out
    is, as a matrix on the whole Fock space of H2/6-31G (2^8
    determinants), minus the kept double with q and r swapped, or zero
    (q = r): 18 sign pairs and 4 zeros."""
    partition = h2_case(R_A, "6-31g")["partition"]
    pool, oracle = build_pool(partition), ordered_pair_pool(partition)
    kept = set(pool)
    assert len(kept) == len(pool) and kept <= set(oracle)
    n_spin = 2 * partition.n_spatial
    dets = list(range(2**n_spin))
    dropped = [op for op in oracle if op not in kept]
    zero = [op for op in dropped if op[1] == op[3]]
    assert (len(dropped), len(zero)) == (22, 4)
    for op in dropped:
        matrix = operator_matrix(op, dets, n_spin)
        if op in zero:
            assert not matrix.any(), op
            continue
        (mu, _), (q, _), (nu, _), (r, _) = op
        swapped = ((mu, True), (r, False), (nu, True), (q, False))
        assert swapped in kept, op
        kept_matrix = operator_matrix(swapped, dets, n_spin)
        assert kept_matrix.any() and np.array_equal(matrix, -kept_matrix), op


@pytest.mark.parametrize(
    "system, options",
    [
        ("h2_2", VqseOptions()),
        ("h2_2", VqseOptions(cumulant=True)),
        ("h2_2", VqseOptions(shots=1e4, seed=3)),
        ("h2_3", VqseOptions()),
        ("h4", VqseOptions()),
        ("h4", VqseOptions(cumulant=True)),
        ("h4", VqseOptions(shots=1e4, seed=3)),
    ],
    ids=["h2_exact", "h2_cumulant", "h2_1e4_shots", "h2_3_active", "h4_exact", "h4_cumulant",
         "h4_1e4_shots"],
)
def test_pool_keeps_the_ordered_pair_span(system, options):
    """H and S over ``build_pool`` (H2/cc-pVDZ at 0.7414 A with 2 or 3
    active orbitals, H4/6-31G with 4) equal those over the ordered-pair
    pool at the kept rows, bit for bit.  At eps <= 1e-4 the GEVP retains
    as many directions from both pools and finds the same ground energy,
    to 1e-12 Ha with exact RDMs (relative 1e-9 otherwise: cumulant H4 sits
    at -3393 Ha at eps 1e-8).  Above that the dropped copies, which double
    their metric block's eigenvalues, shift what eps * lambda_max cuts."""
    if system == "h4":
        mol, wfn, partition = h4_631g_reference()
    else:
        case = h2_case(0.7414, "cc-pvdz", int(system[-1]))
        mol, wfn, partition = case["mol"], case["wfn"], case["partition"]
    pool, oracle = build_pool(partition), ordered_pair_pool(partition)
    position = {op: k for k, op in enumerate(oracle)}
    kept = np.array([position[op] for op in pool])
    assert np.all(np.diff(kept) > 0)  # a subsequence of the oracle
    rdms = reference_rdms(wfn, options)
    pair = assemble_subspace(pool, mol, rdms, partition)
    full = assemble_subspace(oracle, mol, rdms, partition)
    assert np.array_equal(pair.h, full.h[np.ix_(kept, kept)])
    assert np.array_equal(pair.s, full.s[np.ix_(kept, kept)])
    for eps in (1e-8, 1e-6, 1e-4):
        solution, reference = solve_gevp(pair, eps), solve_gevp(full, eps)
        e0 = reference.ground_energy
        assert solution.retained_dimension == reference.retained_dimension, eps
        tol = 1e-12 if options == VqseOptions() else 1e-9 * abs(e0)
        assert abs(solution.ground_energy - e0) <= tol, eps


def test_pool_validation_errors():
    with pytest.raises(PartitionError):
        build_pool(OrbitalPartition(core=(0,), active=(), virtual=(1,)))


def test_adjoint_ops_reverse_and_flip():
    op = ((8, True), (1, False), (10, True), (3, False))
    assert adjoint_ops(op) == ((3, True), (10, False), (1, True), (8, False))


# ---------------------------------------------------------------------------
# assembly


def test_identity_pool_gives_reference_expectation():
    case = h2_case(R_A, "6-31g")
    wfn = case["wfn"]
    rdms = exact_rdms(wfn)
    pool = [()]
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
    rdms = exact_rdms(wfn)
    pool = build_pool(partition)
    pair = assemble_subspace(pool, mol, rdms, partition)
    h_ref, s_ref = oracle_pair(pool, mol, wfn, partition)
    assert np.max(np.abs(pair.h - h_ref)) < TOL_ORACLE
    assert np.max(np.abs(pair.s - s_ref)) < TOL_ORACLE


def test_assembly_matches_full_space_oracle_631g():
    case = h2_case(R_A, "6-31g")
    mol, wfn, partition = case["mol"], case["wfn"], case["partition"]
    rdms = exact_rdms(wfn)
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
    rdms = exact_rdms(wfn)
    pool = restricted_pool(partition, (2, 3))
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
    rdms = exact_rdms(wfn)
    pool = build_pool(partition)
    # 1 + 10 * 3 singles + 2 * C(2, 2) * C(3, 2) same-spin + 2 * 2 * 3 * 3
    # mixed-spin doubles over 3 active and 2 virtual spatial orbitals
    assert len(pool) == 73
    pair = assemble_subspace(pool, mol, rdms, partition)
    h_ref, s_ref = oracle_pair(pool, mol, wfn, partition)
    assert np.max(np.abs(pair.h - h_ref)) < TOL_ORACLE
    assert np.max(np.abs(pair.s - s_ref)) < TOL_ORACLE


def test_assembly_of_shuffled_pool_with_duplicate():
    """Support terms scatter to the right entries when a class's pool rows
    are not monotone and one operator appears twice: the oracle agrees, and
    the result is the canonical pool's matrices permuted, bit for bit."""
    mol, wfn, partition = four_electron_slice()
    rdms = exact_rdms(wfn)
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
    """A pool restricted to one active spin orbital, with the one double
    a+_mu a_0 a+_nu a_0 (zero, and not in the canonical pool) added: it has
    mu != nu, so the support of mu = nu' is empty."""
    mol, wfn, partition = four_electron_slice()
    rdms = exact_rdms(wfn)
    pool = restricted_pool(partition, (0,))
    assert [len(op) for op in pool].count(4) == 0
    mu, nu = (v for v in partition.virtual_spin if v % 2 == 0)  # the two alpha virtuals
    pool.append(((mu, True), (0, False), (nu, True), (0, False)))
    pair = assemble_subspace(pool, mol, rdms, partition)
    h_ref, s_ref = oracle_pair(pool, mol, wfn, partition)
    assert np.max(np.abs(pair.h - h_ref)) < TOL_ORACLE
    assert np.max(np.abs(pair.s - s_ref)) < TOL_ORACLE


def test_assembly_of_complex_rdms_matches_full_space_oracle():
    """The RDMs of a seeded random complex state over the active space of
    the 4-electron slice: a real W factor read on the whole block meets a
    complex RDM read, and H and S still match the full-space oracle."""
    mol, _, partition = four_electron_slice()
    wfn = random_wavefunction(6, 4, np.random.default_rng(5), sz=0, complex_amps=True)
    pool = build_pool(partition)
    pair = assemble_subspace(pool, mol, oracle_rdms(wfn), partition)
    h_ref, s_ref = oracle_pair(pool, mol, wfn, partition)
    assert np.max(np.abs(h_ref.imag)) > 1e-3 and np.max(np.abs(s_ref.imag)) > 1e-3
    assert np.max(np.abs(pair.h - h_ref)) < TOL_ORACLE
    assert np.max(np.abs(pair.s - s_ref)) < TOL_ORACLE


def planned_pools() -> dict:
    """(pool, integrals, exact RDMs, partition) of four pools: H2/6-31G,
    the same pool reversed (one partition, other rows), H2/cc-pVDZ with 3
    active orbitals, and H4/6-31G with 4."""
    h2 = h2_case(R_A, "6-31g")
    h2_3 = h2_case(R_A, "cc-pvdz", 3)
    h4_mol, h4_wfn, h4_partition = h4_631g_reference()
    pools = {
        name: (build_pool(partition), mol, exact_rdms(wfn), partition)
        for name, (mol, wfn, partition) in {
            "h2_631g": (h2["mol"], h2["wfn"], h2["partition"]),
            "h2_ccpvdz_3": (h2_3["mol"], h2_3["wfn"], h2_3["partition"]),
            "h4_631g": (h4_mol, h4_wfn, h4_partition),
        }.items()
    }
    pool, *rest = pools["h2_631g"]
    pools["h2_631g_reversed"] = (pool[::-1], *rest)
    return pools


def assert_same_pair(pair, reference):
    assert np.array_equal(pair.h, reference.h) and np.array_equal(pair.s, reference.s)
    assert (pair.h_asymmetry, pair.s_asymmetry, pair.null_operators) == (
        reference.h_asymmetry,
        reference.s_asymmetry,
        reference.null_operators,
    )


def test_planned_assembly_matches_the_call_that_plans_it():
    """Every later call over a pool reuses the plan its first call built,
    and gives that call's H and S bit for bit."""
    for args in planned_pools().values():
        vqse.assembly._plan.cache_clear()
        cold = assemble_subspace(*args)
        for _ in range(2):
            assert_same_pair(assemble_subspace(*args), cold)


def test_interleaved_pools_match_fresh_assemblies():
    """Pools assembled in turn, each replacing the plan of the one before,
    repeated or coming back, give what a call on a cleared cache gives,
    bit for bit; the cache holds one plan throughout."""
    pools = planned_pools()
    fresh = {}
    for name, args in pools.items():
        vqse.assembly._plan.cache_clear()
        fresh[name] = assemble_subspace(*args)
    order = [
        "h2_631g", "h2_631g_reversed", "h4_631g", "h4_631g", "h2_ccpvdz_3", "h2_631g",
        "h2_631g_reversed", "h2_ccpvdz_3", "h4_631g",
    ]
    for name in order:
        pair = assemble_subspace(*pools[name])
        assert_same_pair(pair, fresh[name])
        assert vqse.assembly._plan.cache_info().currsize == 1
    # the reversed pool's matrices are the first pool's, reversed
    canonical, reversed_pool = fresh["h2_631g"], fresh["h2_631g_reversed"]
    assert np.array_equal(reversed_pool.h, canonical.h[::-1, ::-1])
    assert np.array_equal(reversed_pool.s, canonical.s[::-1, ::-1])


def test_plan_follows_the_live_rows():
    """H is planned over the operators with a non-zero S row.  RDM sets
    over one pool whose null operators differ (the exact H2/6-31G ground
    state: 2; its HF determinant: 22; shot noise, which leaves no S row
    exactly zero: none) each give what a call on a cleared cache gives,
    in turn and back, from fewer live rows to more and the other way,
    and the two exact ones match the full-space oracle."""
    case = h2_case(R_A, "6-31g")
    mol, partition = case["mol"], case["partition"]
    pool = build_pool(partition)
    states = {"ground state": case["wfn"], "determinant": determinant_state(2, 0b0011)}
    rdm_sets = {name: exact_rdms(wfn) for name, wfn in states.items()}
    rdm_sets["shots"] = reference_rdms(case["wfn"], VqseOptions(shots=1e4, seed=3))
    fresh = {}
    for name, rdms in rdm_sets.items():
        vqse.assembly._plan.cache_clear()
        fresh[name] = assemble_subspace(pool, mol, rdms, partition)
    assert [pair.null_operators for pair in fresh.values()] == [2, 22, 0]
    vqse.assembly._plan.cache_clear()
    for name in ["determinant", "ground state", "shots", "determinant", "shots", "ground state"]:
        assert_same_pair(assemble_subspace(pool, mol, rdm_sets[name], partition), fresh[name])
    for name, wfn in states.items():
        h_ref, s_ref = oracle_pair(pool, mol, wfn, partition)
        assert np.max(np.abs(fresh[name].h - h_ref)) < TOL_ORACLE, name
        assert np.max(np.abs(fresh[name].s - s_ref)) < TOL_ORACLE, name


def assembly_peaks_mb(assemble) -> list:
    """tracemalloc peaks of ``assemble()`` with the plan cache cleared
    first (the call that plans the pool), then of a second call (which
    reuses the plan, held in memory), in MB."""
    peaks = []
    vqse.assembly._plan.cache_clear()
    tracemalloc.start()
    try:
        for _ in range(2):
            tracemalloc.reset_peak()
            assemble()
            peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
    finally:
        tracemalloc.stop()
    return peaks


def test_ccpvdz_assembly_peak_memory():
    """The full H2/cc-pVDZ pool (353 operators) assembles in far less memory
    than a dense buffer over the doubles' parameter grid (4096^2 entries,
    128 MB per block) would take, and reads each W-first product packed:
    writing the products out dense over their output letters before the
    read took 8.3 MB here.  This holds for the call that plans the pool
    and for a later one, which holds the plan."""
    case = h2_case(R_A, "cc-pvdz")
    rdms = exact_rdms(case["wfn"])
    pool = build_pool(case["partition"])
    assert len(pool) == 353
    cold, warm = assembly_peaks_mb(
        lambda: assemble_subspace(pool, case["mol"], rdms, case["partition"])
    )
    print(f"assembly peak {cold:.1f} MB planning the pool, {warm:.1f} MB with the plan")
    assert cold <= 7 and warm <= 7


@functools.lru_cache(maxsize=None)
def h4_631g_reference():
    """H4/6-31G at 1.8 bohr with 4 active orbitals: (integrals, active
    ground state, partition)."""
    mol = h4_chain_mol("6-31g")
    partition = OrbitalPartition.from_counts(0, 4, mol.n_spatial)
    _, wfn = ground_state(build_hamiltonian_action(dress_core(mol, partition)), 4, sz=0)
    return mol, wfn, partition


@pytest.mark.parametrize(
    "options",
    [VqseOptions(), VqseOptions(cumulant=True), VqseOptions(shots=1e4, seed=3)],
    ids=["exact", "cumulant", "1e4_shots"],
)
def test_h4_rdms_and_assembly_peak_memory(options):
    """H4/6-31G at 1.8 bohr, 4 active orbitals (8 spin orbitals): the RDMs
    stay packed from ``reference_rdms`` through the assembly, shot noise
    included, so together they peak far below the dense rank-4 RDM alone
    (8^8 entries, 128 MiB); the largest form the assembly reads is a
    784 x 784 split layout of it.  This holds for the call that plans
    the pool and for a later one, which holds the plan."""
    mol, wfn, partition = h4_631g_reference()
    pool = build_pool(partition)
    cold, warm = assembly_peaks_mb(
        lambda: assemble_subspace(pool, mol, reference_rdms(wfn, options), partition)
    )
    print(f"RDMs and assembly peak {cold:.1f} MB planning the pool, {warm:.1f} MB with the plan")
    assert cold <= 64 and warm <= 64


def test_packed_w_first_kernel_matches_dense_einsum(monkeypatch):
    """The W-first kernel, which reads the packed RDM through split
    layouts, against the dense einsum of W with the RDM tensor: one
    recorded call per split (rank k, upper output letters, lower shared
    letters) of the H2/cc-pVDZ assembly (8 splits of ranks 1-2; its ranks
    3-4 vanish) and the H4/6-31G one (14 splits of ranks 1-4), each on the
    state's real RDMs and on the complex RDMs of a random state of the
    same size.  The class pairs below the diagonal, which are mirrored,
    read no split of their own."""
    case = h2_case(R_A, "cc-pvdz")
    systems = [(case["mol"], case["wfn"], case["partition"]), h4_631g_reference()]
    original = vqse.assembly._contract_with_rdm
    calls = {}

    def recording(w, contraction, forms):
        split = (contraction.k, contraction.n_up, contraction.n_lo)
        calls.setdefault(forms.n, {}).setdefault(split, (w, contraction))
        return original(w, contraction, forms)

    monkeypatch.setattr(vqse.assembly, "_contract_with_rdm", recording)
    for mol, wfn, partition in systems:
        assemble_subspace(build_pool(partition), mol, exact_rdms(wfn), partition)
    monkeypatch.undo()
    assert {n: len(splits) for n, splits in calls.items()} == {4: 8, 8: 14}

    rng = np.random.default_rng(17)
    for _, wfn, _ in systems:
        n, n_electrons = 2 * wfn.n_spatial, wfn.n_alpha + wfn.n_beta
        complex_wfn = random_wavefunction(n, n_electrons, rng, sz=0, complex_amps=True)
        for rdms in (exact_rdms(wfn), oracle_rdms(complex_wfn)):
            forms = vqse.assembly._RdmForms(rdms)
            for k in sorted({split[0] for split in calls[n]}):
                dense = rdms.rdm(k).tensor
                for split, (w, contraction) in calls[n].items():
                    if split[0] != k:
                        continue
                    got = original(w, contraction, forms)
                    groups = contraction.groups
                    upper, lower = len(groups[0]), len(groups[-1])
                    got = unpack_ends(
                        got.reshape(len(got), -1, got.shape[-1]), n, upper, lower
                    ).reshape((n,) * upper + got.shape[1:-1] + (n,) * lower)
                    want = dense_w_first(
                        w, contraction.w_spec, dense, contraction.d_spec, "".join(groups)
                    )
                    assert got.dtype == want.dtype, split
                    assert np.max(np.abs(got - want), initial=0.0) < TOL_EXACT, split
                del dense


@pytest.mark.parametrize("dtype", [float, complex])
def test_packed_read_matches_unpacked_indexing(dtype):
    """The assembly's read of a reduced factor, against the factor unpacked
    by ``unpack_ends`` and indexed plainly at the same columns, exactly: a
    packed group of 3 letters and one of 2 (random tuples, so unsorted ones
    and ones that repeat an index, which read 0), a one-letter axis over
    another range and an empty group, on 1-D support columns and on block
    columns with every group on one side, all on the bra side, or two
    groups spanning the bra and the ket."""
    n, n_other, length = 5, 3, 400
    rng = np.random.default_rng(23)
    groups = ["abc", "d", "", "ef"]
    shape = (math.comb(n, 3), n_other, 1, math.comb(n, 2))
    packed = rng.normal(size=shape).astype(dtype)
    if dtype is complex:
        packed += 1j * rng.normal(size=shape)
    dense = unpack_ends(packed.reshape(shape[0], -1, shape[-1]), n, 3, 2)
    dense = dense.reshape((n,) * 3 + shape[1:3] + (n,) * 2)
    ranges = dict.fromkeys("abcef", n) | {"d": n_other}
    sides = {  # block axis of each letter; None for support columns
        "support": None,
        "one side each": dict(a=0, b=0, c=0, d=1, e=1, f=1),
        "all bra": dict.fromkeys("abcdef", 0),
        "spanning": dict(a=0, b=1, c=0, d=1, e=1, f=0),
    }
    for name, axis in sides.items():
        column = {}
        for ch, size in ranges.items():
            if axis is None:
                column[ch] = rng.integers(size, size=length)
            else:
                column[ch] = rng.integers(size, size=(40, 1) if axis[ch] == 0 else (1, 30))
        index = vqse.assembly._read_index(packed.shape, groups, column, axis, n)
        got = vqse.assembly._read(packed, index)
        a, b, c, d, e, f = (column[ch] for ch in "abcdef")
        want = dense[a, b, c, d, 0, e, f]
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert np.array_equal(got, want), name
        repeats = np.broadcast_to((a == b) | (a == c) | (b == c) | (e == f), got.shape)
        assert repeats.any() and not repeats.all(), name
        assert not got[repeats].any(), name
        assert np.any(a > b) and np.any(a < b) and np.any(e > f), name


def test_h4_assembly_skips_terms_without_support(monkeypatch):
    """H4/6-31G at 1.8 bohr, 4 active orbitals: a Wick term whose bra-ket
    deltas no operator pair meets (in the D x D H block, mu = nu' and
    nu = mu' under mu < nu, mu' < nu') is dropped when the block is
    planned, before it reads the rank-4 RDM, so no factor is read at an
    empty support, neither by the call that plans the pool nor by a later
    one."""
    mol, wfn, partition = h4_631g_reference()
    original = vqse.assembly._read
    sizes = []

    def recording(reduced, index):
        value = original(reduced, index)
        sizes.append(value.size)
        return value

    monkeypatch.setattr(vqse.assembly, "_read", recording)
    vqse.assembly._plan.cache_clear()
    for _ in range(2):
        assemble_subspace(build_pool(partition), mol, exact_rdms(wfn), partition)
    assert sizes and min(sizes) > 0


def test_assembly_builds_no_dense_rdm(monkeypatch):
    """H4/6-31G at 1.8 bohr, 4 active orbitals, with exact and with
    cumulant RDMs: every term reads the packed RDMs, so the assembly never
    asks an RDM for its dense tensor."""
    mol, wfn, partition = h4_631g_reference()
    pool = build_pool(partition)

    def refuse(rdm):
        raise AssertionError(f"the dense rank-{rdm.k} RDM was built")

    monkeypatch.setattr(vqse.rdm.Rdm, "tensor", property(refuse))
    for options in (VqseOptions(), VqseOptions(cumulant=True)):
        pair = assemble_subspace(pool, mol, reference_rdms(wfn, options), partition)
        assert pair.h.shape == (len(pool), len(pool))


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
    rdms = exact_rdms(wfn)
    pool = build_pool(partition)
    # 1 + 16 * 4 singles + 2 * C(4, 2) * C(4, 2) same-spin + 4^2 * 4^2
    # mixed-spin doubles over 4 active and 4 virtual spatial orbitals
    assert len(pool) == 393
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
    rdms = exact_rdms(case["wfn"])
    partition = OrbitalPartition(core=(0,), active=(1, 2), virtual=(3,))
    with pytest.raises(PartitionError):
        assemble_subspace([()], case["mol"], rdms, partition)


# ---------------------------------------------------------------------------
# canonical orthogonalization and GEVP


def test_orthogonalize_identity_metric():
    x, discarded, n_blocks = canonical_orthogonalize(np.eye(5))
    assert discarded.size == 0 and n_blocks == 5  # each row is a block of its own
    assert np.allclose(x.T @ np.eye(5) @ x, np.eye(5), atol=TOL_EXACT)


def test_orthogonalize_whitens_random_metric():
    rng = np.random.default_rng(51)
    a = rng.normal(size=(6, 6))
    s = a @ a.T + 6 * np.eye(6)
    x, _, n_blocks = canonical_orthogonalize(s)
    assert n_blocks == 1
    assert np.max(np.abs(x.T @ s @ x - np.eye(x.shape[1]))) < 1e-10


def test_orthogonalize_degenerate_metric_raises():
    with pytest.raises(DegenerateMetricError):
        canonical_orthogonalize(np.zeros((3, 3)))
    with pytest.raises(DegenerateMetricError):
        canonical_orthogonalize(np.eye(3), eps=2.0)


def test_duplicated_pool_entry_drops_one_dimension():
    case = h2_case(R_A, "6-31g")
    rdms = exact_rdms(case["wfn"])
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
    rdms = RdmSet({1: r1, 2: r2, **cumulant_rdms(r1, r2)})
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


@functools.lru_cache(maxsize=None)
def ccpvdz_pair(n_active_spatial=2):
    """(pool, pair) of H2/cc-pVDZ at 0.7414 A with exact RDMs."""
    case = h2_case(0.7414, "cc-pvdz", n_active_spatial)
    pool = build_pool(case["partition"])
    return pool, assemble_subspace(pool, case["mol"], exact_rdms(case["wfn"]), case["partition"])


@pytest.mark.parametrize(
    "system, options, n_null",
    [
        ("h2_2", VqseOptions(), 56),
        ("h2_3", VqseOptions(), 126),
        ("h4", VqseOptions(), 0),
        ("h4", VqseOptions(cumulant=True), 0),
        ("h4", VqseOptions(shots=1e4, seed=3), 0),
        ("h4", VqseOptions(shots=1e6, seed=3), 0),
    ],
    ids=["h2_ccpvdz_2", "h2_ccpvdz_3", "h4_exact", "h4_cumulant", "h4_1e4_shots", "h4_1e6_shots"],
)
def test_block_orthogonalization_matches_dense(system, options, n_null):
    """Per-block canonical orthogonalization keeps the retained dimension
    and the ground energy of one dense ``eigh`` of the whole metric, at
    every threshold, with exact and with approximate RDMs.  The metric is
    0.0 between operators that create different virtual spin orbitals, and
    its blocks are the connected components of its non-zero pattern."""
    if system == "h4":
        mol, wfn, partition = h4_631g_reference()
        pool = build_pool(partition)
        pair = assemble_subspace(pool, mol, reference_rdms(wfn, options), partition)
    else:
        n_active = int(system[-1])
        partition = h2_case(0.7414, "cc-pvdz", n_active)["partition"]
        pool, pair = ccpvdz_pair(n_active)
    virtual = set(partition.virtual_spin)
    created = [tuple(i for i, dagger in op if dagger and i in virtual) for op in pool]
    groups = {}
    group = np.array([groups.setdefault(key, len(groups)) for key in created])
    assert np.all(pair.s[group[:, np.newaxis] != group[np.newaxis, :]] == 0.0)

    null = ~pair.s.any(axis=1)
    assert pair.null_operators == np.count_nonzero(null) == n_null
    n_components, component = scipy.sparse.csgraph.connected_components(pair.s != 0)
    exact = options == VqseOptions()
    for eps in (1e-8, 1e-4, 1e-3, 1e-2):
        solution = solve_gevp(pair, eps)
        x, _ = dense_canonical_orthogonalize(pair.s, eps)
        h_tilde = x.T @ pair.h @ x
        e0 = np.linalg.eigvalsh(0.5 * (h_tilde + h_tilde.T))[0]
        print(f"{system} eps={eps:.0e} dim={solution.retained_dimension} "
              f"dE={solution.ground_energy - e0:+.2e}")
        assert solution.retained_dimension == x.shape[1]
        assert abs(solution.ground_energy - e0) <= (1e-12 if exact else 1e-9 * abs(e0))
        assert solution.metric_blocks == n_components - n_null
        x_blocks, _, n_blocks = canonical_orthogonalize(pair.s, eps)
        assert n_blocks == solution.metric_blocks
        for column in x_blocks.T:
            assert len(set(component[np.flatnonzero(column)])) == 1


@pytest.mark.parametrize(
    "system, options",
    [
        ("h2_2", VqseOptions()),
        ("h2_3", VqseOptions()),
        ("h4", VqseOptions()),
        ("h4", VqseOptions(cumulant=True)),
        ("h4", VqseOptions(shots=1e4, seed=3)),
        ("h4", VqseOptions(shots=1e6, seed=3)),
    ],
    ids=["h2_ccpvdz_2", "h2_ccpvdz_3", "h4_exact", "h4_cumulant", "h4_1e4_shots", "h4_1e6_shots"],
)
def test_gevp_ground_pair_matches_dense_oracle(system, options):
    """``solve_gevp`` finds the lowest root of the dense ``eigh`` of the same
    H~, with as many retained directions, at every threshold: to 1e-12 Ha
    with exact RDMs, and to 1e-13 of max(1, |H~|) with approximate ones,
    whose |H~| reaches 1.4e4 Ha (cumulant RDMs at eps 1e-8)."""
    if system == "h4":
        mol, wfn, partition = h4_631g_reference()
        pair = assemble_subspace(
            build_pool(partition), mol, reference_rdms(wfn, options), partition
        )
    else:
        _, pair = ccpvdz_pair(int(system[-1]))
    exact = options == VqseOptions()
    for eps in (1e-8, 1e-6, 1e-4, 1e-3, 1e-2):
        solution = solve_gevp(pair, eps)
        eigenvalues = dense_gevp(pair, eps)
        scale = max(1.0, np.max(np.abs(eigenvalues)))
        error = abs(solution.ground_energy - eigenvalues[0])
        print(f"{system} eps={eps:.0e} dim={solution.retained_dimension} |H~|={scale:.1e} "
              f"dE={error:.1e} residual={solution.residual_norm:.1e}")
        assert solution.retained_dimension == len(eigenvalues)
        assert error <= (1e-12 if exact else 1e-13 * scale), eps


@pytest.mark.parametrize("n_ops", [1, 2])
def test_gevp_start_subspace_spanning_the_retained_space(n_ops):
    """With one or two retained directions the Davidson start subspace
    already spans H~, and the lowest root is exact."""
    case = h2_case(R_A, "6-31g")
    pool = build_pool(case["partition"])[:n_ops]
    pair = assemble_subspace(pool, case["mol"], exact_rdms(case["wfn"]), case["partition"])
    solution = solve_gevp(pair)
    eigenvalues = dense_gevp(pair, vqse.subspace.DEFAULT_EPS)
    assert solution.retained_dimension == len(eigenvalues) == n_ops
    assert solution.ground_energy == pytest.approx(eigenvalues[0], abs=TOL_EXACT)
    assert solution.residual_norm < TOL_ORACLE


def test_gevp_diagonalizes_no_matrix_wider_than_the_retained_space(monkeypatch):
    """On H2/cc-pVDZ the GEVP keeps 100 of 353 directions, and no ``eigh``
    it makes sees a wider matrix: the metric is diagonalized block by
    block, and H~ spans only the retained directions."""
    _, pair = ccpvdz_pair()
    eigh = np.linalg.eigh
    widths = []

    def recording(a, *args, **kwargs):
        widths.append(np.shape(a)[-1])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    solution = solve_gevp(pair)
    assert solution.retained_dimension == 100
    assert widths and max(widths) <= solution.retained_dimension


def test_gevp_labels_the_metric_blocks_once(monkeypatch):
    """On H2/cc-pVDZ ``solve_gevp`` finds the connected components of the
    metric once, in its canonical orthogonalization, and reports the block
    count found there."""
    _, pair = ccpvdz_pair()
    original = vqse.subspace._metric_blocks
    found = []

    def recording(s):
        found.append(original(s))
        return found[-1]

    monkeypatch.setattr(vqse.subspace, "_metric_blocks", recording)
    solution = solve_gevp(pair)
    assert len(found) == 1
    assert solution.metric_blocks == len(found[0]) == 81


def test_null_operators_have_zero_h_rows():
    """An operator with an exactly zero S row annihilates the reference, so
    its H row and column are 0.0 (they are not assembled), and the
    Fock-space oracle agrees that they vanish."""
    pool, pair = ccpvdz_pair()
    null = ~pair.s.any(axis=1)
    assert pair.null_operators == np.count_nonzero(null) == 56
    # exactly the doubles that annihilate two same-spin electrons, which
    # the 2-electron singlet does not have: 2 * C(8, 2) * C(2, 2) of them
    same_spin = [len(op) == 4 and op[1][0] % 2 == op[3][0] % 2 for op in pool]
    assert np.array_equal(null, same_spin)
    assert np.all(pair.h[null] == 0.0) and np.all(pair.h[:, null] == 0.0)

    case = h2_case(R_A, "6-31g")
    mol, wfn, partition = case["mol"], case["wfn"], case["partition"]
    pool = build_pool(partition)
    pair = assemble_subspace(pool, mol, exact_rdms(wfn), partition)
    null = ~pair.s.any(axis=1)
    assert pair.null_operators == np.count_nonzero(null) > 0
    assert np.all(pair.h[null] == 0.0) and np.all(pair.h[:, null] == 0.0)
    h_ref, s_ref = oracle_pair(pool, mol, wfn, partition)
    assert np.max(np.abs(h_ref[null])) < TOL_ORACLE and np.max(np.abs(s_ref[null])) < TOL_ORACLE
    assert np.max(np.abs(pair.h - h_ref)) < TOL_ORACLE


def test_gevp_identity_pool_returns_reference_energy():
    case = h2_case(R_A, "sto-3g")
    rdms = exact_rdms(case["wfn"])
    pair = assemble_subspace(
        [()], case["mol"], rdms, case["partition"]
    )
    sol = solve_gevp(pair)
    assert sol.ground_energy == pytest.approx(case["e_ref"], abs=TOL_ORACLE)


def test_gevp_closed_expansion_hits_fci():
    """STO-3G: the pool spans the whole sector, so the ground eigenvalue is
    the FCI energy."""
    case = h2_case(R_A, "sto-3g")
    rdms = exact_rdms(case["wfn"])
    pool = build_pool(case["partition"])
    pair = assemble_subspace(pool, case["mol"], rdms, case["partition"])
    sol = solve_gevp(pair)
    e_fci, _ = ground_state(build_hamiltonian_action(case["mol"]), 2, sz=0)
    assert sol.ground_energy == pytest.approx(e_fci, abs=TOL_ORACLE)
    assert sol.residual_norm < 1e-8


def test_nested_pools_monotone_ground_energy():
    case = h2_case(R_A, "6-31g")
    mol, wfn, partition = case["mol"], case["wfn"], case["partition"]
    rdms = exact_rdms(wfn)
    energies = []
    full_pool = build_pool(partition)
    pools = [
        [()],
        [op for op in full_pool if len(op) != 4],
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
    rdms = exact_rdms(case["wfn"])
    pool = build_pool(case["partition"])
    pair = assemble_subspace(pool, case["mol"], rdms, case["partition"])
    eigenvalues = dense_gevp(pair, vqse.subspace.DEFAULT_EPS)
    dets = sector_determinants(8, 2, sz=0)
    exact = np.linalg.eigvalsh(SlaterCondon(case["mol"]).dense_matrix(dets))
    print(f"E1 subspace {eigenvalues[1]:+.8f} vs exact {exact[1]:+.8f} "
          f"(excess {eigenvalues[1] - exact[1]:.3e})")
    assert eigenvalues[1] >= exact[1] - 1e-9


def test_cumulant_substitution_recovers_exact_assembly():
    """Reassembling ranks 3/4 from cumulants is exact when the connected
    3- and 4-body parts are kept."""
    case = h2_case(R_A, "6-31g")
    wfn = case["wfn"]
    exact = {k: compute_rdm(wfn, k) for k in range(1, 5)}
    _, delta3, delta4 = higher_cumulants(exact)
    connected = 24.0 * (4.0 * wedge(delta3, exact[1]).packed + delta4.packed)
    r4 = Rdm(4, exact[4].n, cumulant_rdms(exact[1], exact[2])[4].packed + connected)
    assert np.max(np.abs(r4.packed - exact[4].packed)) < TOL_ORACLE
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
    # one metric block per set of created virtual spin orbitals: none, each
    # of the 4, and each of the 6 pairs; the 2 doubles into the 2 same-spin
    # pairs, one each, annihilate the 2-electron singlet and form no block
    assert report["metric_blocks"] == 1 + 4 + 6 - 2
    assert report["null_operators"] == 2
    assert report["discarded_metric_count"] >= report["null_operators"]
