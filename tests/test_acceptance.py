"""End-to-end acceptance checks for the full pipeline.

Each test pins one headline claim: the contraction engine agrees with a
brute-force Fock-space oracle, the closed-form virtual contraction of the
double-double matrix element holds, the 4-qubit subspace expansion with
cc-pVDZ virtuals reproduces the 20-qubit full diagonalization to about
1e-5 hartree across the dissociation curve, and the supporting invariants
(variational bounds, cumulant exactness, RDM/energy consistency, oracle
integrals, shot-noise scaling) all hold at their stated tolerances.
"""

import functools
import itertools
import json
import time

import numpy as np
import pytest

from conftest import (
    DATA_DIR,
    casscf_2_2,
    embed_wavefunction,
    h2_case,
    h2_fci,
    random_wavefunction,
    rdm_trace,
    wick_expectation,
)
from vqse.cli import ScanConfig, _scan_point
from vqse.fci import (
    Wavefunction,
    build_hamiltonian_action,
    full_space_expectation,
    ground_state,
)
from vqse.integrals import dress_core, read_fcidump
from vqse.oo import core_active_rdms, givens_sweep, relax_then_resolve
from vqse.rdm import (
    compute_rdm,
    cumulant_4rdm,
    energy_from_rdms,
)
from vqse.spaces import OrbitalPartition
from vqse.subspace import (
    DEFAULT_EPS,
    VqseOptions,
    assemble_subspace,
    build_pool,
    canonical_orthogonalize,
    reference_rdms,
    solve_gevp,
)
from vqse.wick import RdmSet

TOL_EXACT = 1e-12
TOL_EIG = 1e-10
TOL_TRACE = 1e-9
TOL_ORDER = 1e-8
TOL_ORACLE = 1e-6
TOL_CURVE = 2e-5
TOL_RELAX = 5e-5

GRID_ANGSTROM = [round(0.3 + 0.1 * k, 10) for k in range(23)]


@functools.lru_cache(maxsize=8)
def expansion_curve(basis: str):
    """Subspace-expansion scan over the full grid through the ``vqse scan``
    point pipeline (CurveRow per point), cached across tests."""
    config = ScanConfig(points_angstrom=GRID_ANGSTROM, basis=basis)
    return [_scan_point(r, config)[0] for r in GRID_ANGSTROM]


@functools.lru_cache(maxsize=8)
def relaxation_curve(basis: str, n_active_spatial: int):
    """Iterated orbital relaxation over the full grid; returns final
    active-space energies per point."""
    energies = []
    for r in GRID_ANGSTROM:
        case = h2_case(r, basis, n_active_spatial)
        _, cycle_energies, _ = relax_then_resolve(
            case["mol"], case["partition"], 2, cycles=12
        )
        energies.append(cycle_energies[-1])
    return energies


def expansion_on_virtual_prefix(r_angstrom: float, basis: str, n_virtual: int) -> float:
    """Subspace-expansion energy with only the first ``n_virtual`` virtual
    orbitals.  The expansion states live on orbitals 0 .. 1 + n_virtual,
    so slicing the Hamiltonian to them changes no matrix element, and a
    shorter prefix's pool is a sub-pool of a longer one's."""
    case = h2_case(r_angstrom, basis)
    partition = OrbitalPartition((), (0, 1), range(2, 2 + n_virtual))
    prefix = OrbitalPartition.from_counts(0, 2 + n_virtual, case["mol"].n_spatial)
    pair = assemble_subspace(
        build_pool(partition),
        dress_core(case["mol"], prefix),
        reference_rdms(case["wfn"], VqseOptions()),
        partition,
    )
    return solve_gevp(pair, DEFAULT_EPS).ground_energy


def chain_violations(r_angstrom: float, labels, chain) -> list:
    """Messages for each adjacent pair of ``chain`` that rises by more
    than the ordering slack."""
    return [
        f"R={r_angstrom} A: {labels[pos]}={upper:.8f} < {labels[pos + 1]}={lower:.8f}"
        for pos, (upper, lower) in enumerate(zip(chain, chain[1:]))
        if upper < lower - TOL_ORDER
    ]


# ---------------------------------------------------------------------------
# contraction engine


def test_contraction_engine_matches_fock_space_oracle():
    """1000+ random labeled strings (length <= 12, 4 active + 4 virtual
    spin orbitals, random active reference) match the brute-force
    Fock-space expectation to 1e-12, in under a minute."""
    start = time.monotonic()
    rng = np.random.default_rng(2026)
    partition = OrbitalPartition(core=(), active=(0, 1), virtual=(2, 3))
    spins = partition.active_spin + partition.virtual_spin
    wfn = random_wavefunction(4, 2, rng, complex_amps=True)
    rdms = RdmSet.from_wavefunction(wfn)
    full = embed_wavefunction(wfn, partition, 8)
    for _ in range(1000):
        length = int(rng.integers(0, 7)) * 2  # even lengths 0..12
        ops = tuple(
            (int(rng.choice(spins)), bool(rng.integers(2))) for _ in range(length)
        )
        got = wick_expectation(ops, rdms, partition)
        ref = full_space_expectation(full, [(1.0, list(ops))], full)
        assert got == pytest.approx(ref, abs=TOL_EXACT), ops
    elapsed = time.monotonic() - start
    print(f"\n1000 strings in {elapsed:.1f} s")
    assert elapsed < 60.0


def test_double_double_matrix_element_closed_form():
    """The engine's contraction of the double-double matrix element
    a_xi a+_s a_eta a+_r a+_i a+_j a_k a_l a+_mu a_p a+_nu a_q (Greek
    indices virtual; s,r,p,q active; i,j,k,l anywhere) equals an
    independent transcription of the closed-form virtual contraction,
    with every residual expectation value evaluated by brute force."""
    rng = np.random.default_rng(99)
    partition = OrbitalPartition(core=(), active=(0, 1), virtual=(2, 3))
    wfn = random_wavefunction(4, 2, rng, complex_amps=True)
    rdms = RdmSet.from_wavefunction(wfn)
    full = embed_wavefunction(wfn, partition, 8)
    active = partition.active_spin
    virtual = partition.virtual_spin
    everywhere = active + virtual

    def expect(ops):
        return full_space_expectation(full, [(1.0, list(ops))], full)

    def delta(a, b):
        return 1.0 if a == b else 0.0

    def pair_delta(a, b, c, d):
        return delta(a, d) * delta(b, c) - delta(a, c) * delta(b, d)

    for _ in range(100):
        s, r, p, q = (int(rng.choice(active)) for _ in range(4))
        xi, eta, mu, nu = (int(rng.choice(virtual)) for _ in range(4))
        i, j, k, l = (int(rng.choice(everywhere)) for _ in range(4))
        ops = (
            (xi, False), (s, True), (eta, False), (r, True),
            (i, True), (j, True), (k, False), (l, False),
            (mu, True), (p, False), (nu, True), (q, False),
        )
        engine = wick_expectation(ops, rdms, partition)

        # fully-paired virtual block times the 4-body active residue
        hand = pair_delta(xi, eta, mu, nu) * expect(
            ((s, True), (r, True), (i, True), (j, True),
             (k, False), (l, False), (p, False), (q, False))
        )
        # one external index absorbed from each side
        for x in (i, j):
            for y in (l, k):
                xbar = j if x == i else i
                ybar = k if y == l else l
                sign = (-1.0) ** (delta(x, j) + delta(y, k))
                hand += sign * (
                    delta(xi, x) * pair_delta(y, eta, mu, nu)
                    - delta(eta, x) * pair_delta(y, xi, mu, nu)
                ) * expect(
                    ((s, True), (r, True), (xbar, True), (ybar, False),
                     (p, False), (q, False))
                )
        # both excitation pairs absorbed, 2-body residue
        hand += pair_delta(xi, eta, i, j) * pair_delta(k, l, mu, nu) * expect(
            ((s, True), (r, True), (p, False), (q, False))
        )
        assert engine == pytest.approx(hand, abs=TOL_EXACT), ops


# ---------------------------------------------------------------------------
# energy curves


def test_ccpvdz_expansion_matches_full_diagonalization():
    """4-spin-orbital active space + cc-pVDZ virtuals vs the 20-spin-
    orbital exact curve: max error <= 2e-5 hartree over 0.3-2.5 A,
    within the 10-minute runtime budget."""
    start = time.monotonic()
    rows = expansion_curve("cc-pvdz")
    elapsed = time.monotonic() - start
    errors = [abs(row.e_vqse - row.e_fci_full) for row in rows]
    print(f"\nmax |E_vqse - E_fci| = {max(errors):.2e} hartree, {elapsed:.0f} s")
    assert max(errors) <= TOL_CURVE
    assert elapsed < 600.0


def test_energy_ordering_improves_with_virtual_count():
    """More virtual orbitals lower the energy toward the exact one when
    the virtual sets nest.  At every grid point, each to 1e-8 slack:

    - cc-pVDZ: E_ref >= E_vqse(first 2 virtuals) >= E_vqse(first 4)
      >= E_vqse(all 8) >= E_fci;
    - 6-31G: E_ref >= E_vqse >= E_fci.

    Within one basis a shorter virtual prefix gives a sub-pool of a longer
    one on the same Hamiltonian, so Rayleigh-Ritz orders the energies.

    Across bases the virtual count orders nothing: STO-3G, 6-31G and
    cc-pVDZ are not nested, and at 0.3 and 0.4 A exact FCI in 6-31G lies
    below exact FCI in cc-pVDZ (6-31G's tighter s primitive suits the
    compressed, He-like density).  The cross-basis chain E_fci(sto-3g) >=
    E_vqse(6-31g) >= E_fci(6-31g) >= E_vqse(cc-pvdz) >= E_fci(cc-pvdz) is
    therefore printed, not asserted.  The reversal itself is asserted at
    0.3 A from FCIDUMP files written by the independent engine
    (tests/data/generate_reference.py), which the program's own exact
    energies match."""
    small = expansion_curve("6-31g")
    large = expansion_curve("cc-pvdz")

    fci_oracle = {}
    for basis in ("6-31g", "cc-pvdz"):
        mol, nelec, ms2 = read_fcidump(DATA_DIR / f"h2_{basis}_0.3.fcidump")
        fci_oracle[basis], _ = ground_state(build_hamiltonian_action(mol), nelec, sz=ms2)
        assert h2_fci(0.3, basis) == pytest.approx(fci_oracle[basis], abs=TOL_ORACLE)
    assert fci_oracle["6-31g"] < fci_oracle["cc-pvdz"], fci_oracle

    nested_labels = ("ref", "vqse(2 virt)", "vqse(4 virt)", "vqse(8 virt)", "fci")
    cross_labels = ("fci(sto-3g)", "vqse(6-31g)", "fci(6-31g)", "vqse(cc-pvdz)",
                    "fci(cc-pvdz)")
    violations = []
    print("\ncross-basis chain, reported only:")
    print("  R/A " + "".join(f" {label:>13}" for label in cross_labels))
    for r, row_s, row_l in zip(GRID_ANGSTROM, small, large):
        nested = (
            row_l.e_ref,
            expansion_on_virtual_prefix(r, "cc-pvdz", 2),
            expansion_on_virtual_prefix(r, "cc-pvdz", 4),
            row_l.e_vqse,
            row_l.e_fci_full,
        )
        violations += chain_violations(r, nested_labels, nested)
        violations += chain_violations(
            r, ("ref(6-31g)", "vqse(6-31g)", "fci(6-31g)"),
            (row_s.e_ref, row_s.e_vqse, row_s.e_fci_full),
        )
        cross = (h2_fci(r, "sto-3g"), row_s.e_vqse, row_s.e_fci_full,
                 row_l.e_vqse, row_l.e_fci_full)
        out_of_order = chain_violations(r, cross_labels, cross)
        print(f"  {r:4.2f}" + "".join(f" {e:13.8f}" for e in cross)
              + ("  out of order" if out_of_order else ""))
    assert not violations, "\n".join(violations)


def test_relaxed_4qubit_curve_error_bound():
    """Iterated orbital relaxation of the 4-spin-orbital active space in
    6-31G reaches the brute-force CASSCF(2,2) minimum to 5e-5 hartree at
    every grid point, and never lies below the 8-spin-orbital exact
    energy (1e-8 slack).

    The relaxed energy is the active-space ground state on relaxed
    orbitals, so its fixed point is CASSCF(2,2): no rotation of a
    2-orbital active space reaches FCI, and the remaining gap (6.8e-3
    hartree at 0.5 A, 2.6e-5 at 2.5 A) is printed, not bounded.  The
    reference, ``conftest.casscf_2_2``, shares no code with vqse.oo."""
    energies = relaxation_curve("6-31g", 2)
    violations = []
    print("\n  R/A   E_oo - E_casscf   E_oo - E_fci")
    for r, e_oo in zip(GRID_ANGSTROM, energies):
        e_casscf = casscf_2_2(r, "6-31g")
        e_fci = h2_fci(r, "6-31g")
        print(f"  {r:4.2f}   {e_oo - e_casscf:13.2e}   {e_oo - e_fci:12.2e}")
        if abs(e_oo - e_casscf) > TOL_RELAX:
            violations.append(f"R={r} A: E_oo={e_oo:.8f} vs CASSCF(2,2)={e_casscf:.8f}")
        if e_oo < e_fci - TOL_ORDER:
            violations.append(f"R={r} A: E_oo={e_oo:.8f} below E_fci={e_fci:.8f}")
    assert not violations, "\n".join(violations)


def test_relaxed_6qubit_curve_interpolates():
    """The relaxed 6-spin-orbital curve lies between the relaxed
    4-spin-orbital curve and the exact curve at every grid point."""
    four = relaxation_curve("6-31g", 2)
    six = relaxation_curve("6-31g", 3)
    for r, e4, e6 in zip(GRID_ANGSTROM, four, six):
        e_exact = h2_fci(r, "6-31g")
        assert e_exact - TOL_ORDER <= e6 <= e4 + TOL_ORDER, (r, e4, e6, e_exact)


# ---------------------------------------------------------------------------
# variational invariants


def test_expansion_is_variational():
    """With the identity in the pool, the subspace energy never exceeds
    the active-space reference energy."""
    for basis in ("6-31g", "cc-pvdz"):
        for row in expansion_curve(basis):
            assert row.e_vqse <= row.e_ref + TOL_EIG, (basis, row.r_angstrom)


def test_sweep_traces_monotone_non_increasing():
    for r in (0.5, 0.7414, 1.3, 2.1):
        case = h2_case(r, "6-31g")
        d1 = compute_rdm(case["wfn"], 1)
        d2 = compute_rdm(case["wfn"], 2)
        cd1, cd2 = core_active_rdms(d1, d2, case["partition"])
        _, report = givens_sweep(case["mol"], cd1, cd2, case["partition"])
        trace = report.sweep_energies
        assert all(b <= a + TOL_EIG for a, b in zip(trace, trace[1:])), (r, trace)


def test_single_relaxation_step_never_raises_energy():
    for basis in ("sto-3g", "6-31g", "cc-pvdz"):
        for r in (0.5, 0.7414, 1.7):
            case = h2_case(r, basis)
            _, energies, _ = relax_then_resolve(
                case["mol"], case["partition"], 2, cycles=1
            )
            assert energies[-1] <= energies[0] + TOL_EIG, (basis, r, energies)


# ---------------------------------------------------------------------------
# density matrices


def test_cumulant_4rdm_exact_on_determinants():
    """Reconstructing the 4-RDM from the 1-/2-RDM alone is exact on
    single determinants; the error on a correlated state is reported."""
    for det in (0b00001111, 0b01010101, 0b11000011):
        wfn_det = Wavefunction({det: 1.0}, 8, 4)
        r1 = compute_rdm(wfn_det, 1)
        r2 = compute_rdm(wfn_det, 2)
        d4 = compute_rdm(wfn_det, 4)
        rec = cumulant_4rdm(r1, r2)
        assert np.max(np.abs(rec.tensor - d4.tensor)) <= TOL_EIG, bin(det)

    rng = np.random.default_rng(7)
    wfn = random_wavefunction(8, 4, rng, sz=0)
    rec = cumulant_4rdm(compute_rdm(wfn, 1), compute_rdm(wfn, 2))
    err = np.max(np.abs(rec.tensor - compute_rdm(wfn, 4).tensor))
    print(f"\ncorrelated 4-electron reconstruction error: {err:.3e}")
    assert np.isfinite(err)


def test_energy_from_rdms_equals_eigenvalue():
    for basis, r in itertools.product(("sto-3g", "6-31g"), (0.5, 0.7414, 1.9)):
        case = h2_case(r, basis)
        energy, wfn = ground_state(build_hamiltonian_action(case["mol"]), 2, sz=0)
        d1 = compute_rdm(wfn, 1)
        d2 = compute_rdm(wfn, 2)
        assembled = energy_from_rdms(case["mol"], d1, d2)
        assert assembled == pytest.approx(energy, abs=TOL_EIG), (basis, r)


def test_rdm_trace_identities():
    """tr D_k = N!/(N-k)! for a correlated 4-electron state and for the
    2-electron molecular ground states."""
    rng = np.random.default_rng(12)
    wfn = random_wavefunction(8, 4, rng, sz=0, complex_amps=True)
    for k, expected in ((1, 4.0), (2, 12.0), (3, 24.0), (4, 24.0)):
        assert rdm_trace(compute_rdm(wfn, k)) == pytest.approx(expected, abs=TOL_TRACE)
    case = h2_case(0.7414, "6-31g")
    _, ground = ground_state(build_hamiltonian_action(case["mol"]), 2, sz=0)
    assert rdm_trace(compute_rdm(ground, 1)) == pytest.approx(2.0, abs=TOL_TRACE)
    assert rdm_trace(compute_rdm(ground, 2)) == pytest.approx(2.0, abs=TOL_TRACE)


# ---------------------------------------------------------------------------
# integrals vs bundled oracle


def test_scf_and_fci_match_bundled_oracle():
    """RHF energies match the bundled reference values and the exact
    ground-state energy matches a diagonalization of the bundled
    integral files, to 1e-6 hartree, for all three bases."""
    reference = json.loads((DATA_DIR / "reference.json").read_text())
    r = reference["r_angstrom"]
    for basis, entry in reference["cases"].items():
        case = h2_case(r, basis)
        assert case["scf"].scf_energy == pytest.approx(
            entry["e_rhf"], abs=TOL_ORACLE
        ), basis
        mol_oracle, nelec, ms2 = read_fcidump(DATA_DIR / entry["fcidump"])
        e_oracle, _ = ground_state(build_hamiltonian_action(mol_oracle), nelec, sz=ms2)
        assert h2_fci(r, basis) == pytest.approx(e_oracle, abs=TOL_ORACLE), basis


# ---------------------------------------------------------------------------
# noise robustness


def test_noise_scatter_follows_square_root_law():
    """Energy scatter vs shot count follows slope -0.5 +/- 0.1 on a
    log-log plot.  The 1-/2-RDMs carry the noise (ranks 3/4 are
    reconstructed from them) and the orthogonalization threshold is held
    fixed above the worst-case metric noise, so the retained subspace is
    the same at every shot count and the response stays linear."""
    case = h2_case(0.7414, "6-31g")
    pool = build_pool(case["partition"])
    shots_grid = (1e4, 1e6, 1e8)
    scatter = []
    for shots in shots_grid:
        energies = []
        for seed in range(30):
            options = VqseOptions(cumulant=True, shots=shots, seed=seed * 17 + 1)
            rdms = reference_rdms(case["wfn"], options)
            pair = assemble_subspace(pool, case["mol"], rdms, case["partition"])
            energies.append(solve_gevp(pair, 1e-2).ground_energy)
        scatter.append(np.std(energies))
    slope = np.polyfit(np.log10(shots_grid), np.log10(scatter), 1)[0]
    print(f"\nscatter {[f'{s:.2e}' for s in scatter]}, slope {slope:.3f}")
    assert -0.6 <= slope <= -0.4


def test_retained_dimension_monotone_in_threshold():
    case = h2_case(0.7414, "6-31g")
    pool = build_pool(case["partition"])
    options = VqseOptions(shots=1e4, seed=3)
    rdms = reference_rdms(case["wfn"], options)
    pair = assemble_subspace(pool, case["mol"], rdms, case["partition"])
    dims = []
    for eps in (1e-10, 1e-8, 1e-6, 1e-4, 1e-3, 1e-2, 1e-1):
        x, _ = canonical_orthogonalize(pair.s, eps)
        dims.append(x.shape[1])
    assert all(b <= a for a, b in zip(dims, dims[1:])), dims
    assert dims[-1] < dims[0]
