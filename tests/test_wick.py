"""Symbolic virtual-space contraction and active-space RDM evaluation."""

import itertools

import numpy as np
import pytest

from conftest import (
    embed_wavefunction,
    full_space_expectation,
    oracle_rdm,
    oracle_rdms,
    random_wavefunction,
    wick_expectation,
)
from vqse.spaces import OrbitalPartition
from vqse.wick import (
    ACTIVE,
    VIRTUAL,
    MissingRdmError,
    RdmSet,
    active_pattern_tensor,
    contract_virtuals_symbolic,
    normal_order_symbolic,
)

TOL_EXACT = 1e-12

# 2 active + 2 virtual spatial orbitals -> spin orbitals {0..3} active,
# {4..7} virtual
PARTITION = OrbitalPartition(core=(), active=(0, 1), virtual=(2, 3))


def oracle_expectation(ops, wfn, partition):
    """Embed the active state into the full Fock space and apply the
    ladder string explicitly."""
    n_full = 2 * partition.n_spatial
    full = embed_wavefunction(wfn, partition, n_full)
    return full_space_expectation(full, [(1.0, list(ops))], full)


def random_labeled_ops(rng, length, partition):
    spins = list(partition.active_spin) + list(partition.virtual_spin)
    return tuple(
        (int(rng.choice(spins)), bool(rng.integers(2))) for _ in range(length)
    )


# ---------------------------------------------------------------------------
# symbolic layer


def test_vacuum_pair_contraction():
    # <vac| a_mu a+_nu |vac> = delta_mu_nu on the empty active string
    assert contract_virtuals_symbolic(((VIRTUAL, False), (VIRTUAL, True))) == (
        (1, ((0, 1),), ()),
    )
    rdms = oracle_rdms(random_wavefunction(4, 2, np.random.default_rng(40)))
    for mu, nu in itertools.product(PARTITION.virtual_spin, repeat=2):
        got = wick_expectation(((mu, False), (nu, True)), rdms, PARTITION)
        assert got == (1.0 if mu == nu else 0.0)


def test_wrong_order_virtual_pair_vanishes():
    # <vac| a+_mu a_nu |vac> = 0
    assert contract_virtuals_symbolic(((VIRTUAL, True), (VIRTUAL, False))) == ()


def test_unbalanced_virtual_string_vanishes():
    assert contract_virtuals_symbolic(((VIRTUAL, False), (ACTIVE, True))) == ()


def test_two_pair_contraction_has_two_pairings():
    pattern = ((VIRTUAL, False), (VIRTUAL, False), (VIRTUAL, True), (VIRTUAL, True))
    terms = contract_virtuals_symbolic(pattern)
    assert len(terms) == 2
    signs = sorted(t[0] for t in terms)
    assert signs == [-1, 1]


def test_active_string_passes_through():
    assert contract_virtuals_symbolic(((ACTIVE, True), (ACTIVE, False))) == (
        (1, (), (0, 1)),
    )


def test_normal_order_balanced_terms_only():
    # a a+ against a number-conserving state: delta - a+ a
    terms = normal_order_symbolic((False, True))
    assert len(terms) == 2
    kinds = {(len(dpairs), len(cres)) for _, dpairs, cres, _ in terms}
    assert kinds == {(1, 0), (0, 1)}
    # unbalanced patterns vanish
    assert normal_order_symbolic((True,)) == ()
    assert normal_order_symbolic((True, True, False)) == ()


# ---------------------------------------------------------------------------
# numeric layer


def test_all_active_single_is_rdm_element():
    rng = np.random.default_rng(41)
    wfn = random_wavefunction(4, 2, rng, complex_amps=True)
    rdms = oracle_rdms(wfn)
    d1 = oracle_rdm(wfn, 1)
    for p, q in itertools.product(range(4), repeat=2):
        assert wick_expectation(((p, True), (q, False)), rdms, PARTITION) == pytest.approx(
            d1.tensor[p, q], abs=TOL_EXACT
        )


def test_evaluate_matches_full_space_oracle():
    rng = np.random.default_rng(42)
    wfn = random_wavefunction(4, 2, rng, complex_amps=True)
    rdms = oracle_rdms(wfn)
    for _ in range(150):
        length = int(rng.integers(0, 7)) * 2  # even lengths up to 12
        ops = random_labeled_ops(rng, length, PARTITION)
        got = wick_expectation(ops, rdms, PARTITION)
        ref = oracle_expectation(ops, wfn, PARTITION)
        assert got == pytest.approx(ref, abs=TOL_EXACT), ops


def spliced_virtual_pairs(rng, partition, n_pairs):
    """A number-conserving active string with ``n_pairs`` virtual pairs
    a_mu ... a+_mu spliced in, annihilator first: strings that survive the
    vacuum contraction, so each pairing's sign shows in the result."""
    k = int(rng.integers(1, 3))
    daggers = rng.permutation([True] * k + [False] * k)
    ops = [(int(rng.choice(partition.active_spin)), bool(d)) for d in daggers]
    for _ in range(n_pairs):
        mu = int(rng.choice(partition.virtual_spin))
        i, j = sorted(rng.choice(len(ops) + 2, size=2, replace=False))
        ops.insert(i, (mu, False))
        ops.insert(j, (mu, True))
    return tuple(ops)


def test_three_electron_reference():
    """The engine is not restricted to two-electron active states.  Besides
    random strings it checks strings with one or three virtual pairs and a
    nonzero expectation, where a wrong virtual-pair sign flips the result."""
    rng = np.random.default_rng(44)
    partition = OrbitalPartition(core=(), active=(0, 1), virtual=(2,))
    wfn = random_wavefunction(4, 3, rng)
    rdms = oracle_rdms(wfn)
    for _ in range(60):
        ops = random_labeled_ops(rng, int(rng.integers(0, 4)) * 2, partition)
        got = wick_expectation(ops, rdms, partition)
        ref = oracle_expectation(ops, wfn, partition)
        assert got == pytest.approx(ref, abs=TOL_EXACT), ops
    odd_nonzero = 0
    for _ in range(60):
        ops = spliced_virtual_pairs(rng, partition, int(rng.choice((1, 3))))
        got = wick_expectation(ops, rdms, partition)
        ref = oracle_expectation(ops, wfn, partition)
        assert got == pytest.approx(ref, abs=TOL_EXACT), ops
        odd_nonzero += abs(ref) > 1e-3
    assert odd_nonzero >= 20


def test_missing_rdm_raises():
    rng = np.random.default_rng(45)
    wfn = random_wavefunction(4, 2, rng)
    rdms = RdmSet({1: oracle_rdm(wfn, 1)})
    with pytest.raises(MissingRdmError):
        active_pattern_tensor((True, True, False, False), rdms)  # needs the 2-RDM


def test_rdm_set_dimension_check():
    rng = np.random.default_rng(46)
    wfn = random_wavefunction(4, 2, rng)
    with pytest.raises(ValueError):
        RdmSet({1: oracle_rdm(wfn, 1), 2: oracle_rdm(random_wavefunction(6, 2, rng), 2)})


def test_active_pattern_tensor_matches_elementwise():
    """Every element of every pattern tensor up to length 4 equals the
    brute-force expectation of that ladder string."""
    rng = np.random.default_rng(47)
    wfn = random_wavefunction(4, 2, rng, complex_amps=True)
    rdms = oracle_rdms(wfn)
    for daggers in itertools.chain.from_iterable(
        itertools.product((True, False), repeat=L) for L in (2, 3, 4)
    ):
        tensor = active_pattern_tensor(tuple(daggers), rdms)
        for idx in itertools.product(range(4), repeat=len(daggers)):
            ref = full_space_expectation(wfn, [(1.0, list(zip(idx, daggers)))], wfn)
            assert tensor[idx] == pytest.approx(ref, abs=TOL_EXACT), (daggers, idx)
