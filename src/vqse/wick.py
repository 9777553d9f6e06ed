"""Wick contraction of ladder strings over (active state) x (virtual vacuum).

Virtual-space operators are contracted exactly against the vacuum
(<a_mu a+_nu> = delta_mu_nu, every other pairing vanishing); the active
residue is reduced to reduced-density-matrix elements by symbolic normal
ordering (Kutzelnigg & Mukherjee, JCP 110, 2800 (1999)).  Symbolic results
are cached per operator pattern (space labels and dagger flags only).

The subspace assembly has one contraction rule: it expands every active
residue into its normal-ordering terms and reads the bare RDM of each in
its packed form, contracting the Hamiltonian coefficients W into it first
when W's indices are summed over active slots (W-first).
:func:`active_pattern_tensor`, the residue instantiated as one dense tensor
over the active indices of its slots from the dense RDM tensors, is not on
that path; it serves as a direct elementwise evaluation (the test suite's
Wick oracle reads it).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .exceptions import VqseError

ACTIVE = "A"
VIRTUAL = "V"


class MissingRdmError(VqseError):
    def __init__(self, rank: int):
        super().__init__(f"evaluation requires the rank-{rank} RDM, which was not supplied")
        self.rank = rank


# ---------------------------------------------------------------------------
# symbolic layer: patterns are tuples of (space, dagger); slots keep their
# original position in the string


@lru_cache(maxsize=None)
def contract_virtuals_symbolic(pattern: tuple) -> tuple:
    """All complete vacuum pairings of the virtual operators.

    Returns terms (sign, vpairs, active_slots) where vpairs is a tuple of
    (annihilator slot, creator slot) contractions and active_slots the
    surviving slots in original order.  Contracts the leftmost virtual
    operator first: a leftmost virtual creator hits the bra vacuum (term
    dies), a leftmost virtual annihilator pairs with each virtual creator
    to its right, with the fermionic sign of extracting the pair.
    """
    slots = tuple((i, space, dagger) for i, (space, dagger) in enumerate(pattern))
    return tuple(_contract(slots))


def _contract(slots):
    first_virtual = None
    for pos, (slot, space, dagger) in enumerate(slots):
        if space == VIRTUAL:
            first_virtual = pos
            break
    if first_virtual is None:
        return [(1, (), tuple(s[0] for s in slots))]
    slot, _, dagger = slots[first_virtual]
    if dagger:  # <vac| a+ ... = 0
        return []
    out = []
    for pos in range(first_virtual + 1, len(slots)):
        t_slot, t_space, t_dagger = slots[pos]
        if t_space != VIRTUAL or not t_dagger:
            continue
        sign = -1 if (pos - first_virtual - 1) % 2 else 1
        rest = slots[:first_virtual] + slots[first_virtual + 1 : pos] + slots[pos + 1 :]
        for sub_sign, sub_pairs, sub_active in _contract(rest):
            out.append((sign * sub_sign, ((slot, t_slot),) + sub_pairs, sub_active))
    return out


@lru_cache(maxsize=None)
def normal_order_symbolic(daggers: tuple) -> tuple:
    """Normal-order an all-active pattern against a number-conserving state.

    Returns terms (sign, delta_pairs, creator_slots, annihilator_slots);
    delta_pairs are (annihilator slot, creator slot) from anticommutators.
    Terms whose creator and annihilator counts differ are dropped (they
    vanish on any fixed-particle-number state).
    """
    slots = tuple(enumerate(daggers))
    return tuple(_normal_order(slots))


def _normal_order(slots):
    for pos in range(len(slots) - 1):
        (s1, d1), (s2, d2) = slots[pos], slots[pos + 1]
        if not d1 and d2:  # a a+ = delta - a+ a
            rest = slots[:pos] + slots[pos + 2 :]
            out = []
            for sign, dpairs, cres, anns in _normal_order(rest):
                out.append((sign, ((s1, s2),) + dpairs, cres, anns))
            swapped = slots[:pos] + ((s2, d2), (s1, d1)) + slots[pos + 2 :]
            for sign, dpairs, cres, anns in _normal_order(swapped):
                out.append((-sign, dpairs, cres, anns))
            return out
    cres = tuple(s for s, d in slots if d)
    anns = tuple(s for s, d in slots if not d)
    if len(cres) != len(anns):
        return []
    return [(1, (), cres, anns)]


# ---------------------------------------------------------------------------
# numeric layer


class RdmSet:
    """Active-space RDMs by rank, indexed with active-local spin orbitals."""

    def __init__(self, rdms: dict):
        self.rdms = dict(rdms)
        ns = {r.n for r in self.rdms.values()}
        if len(ns) > 1:
            raise ValueError("RDMs have inconsistent dimensions")
        self.n_active = ns.pop() if ns else 0

    def rdm(self, rank: int):
        """The rank-``rank`` Rdm; raises MissingRdmError if it was not supplied."""
        if rank not in self.rdms:
            raise MissingRdmError(rank)
        return self.rdms[rank]


def active_pattern_tensor(daggers: tuple, rdms: RdmSet) -> np.ndarray:
    """Dense tensor T[i1..iL] = <pattern instantiated with those indices>.

    Amortizes one symbolic normal ordering over every active index tuple at
    once, at n^L entries; the subspace assembly never builds it.
    """
    n = rdms.n_active
    L = len(daggers)
    if L == 0:
        return np.array(1.0)
    letters = "abcdefghijklmnop"
    dtype = np.result_type(float, *(r.packed.dtype for r in rdms.rdms.values()))
    out = np.zeros((n,) * L, dtype=dtype)
    eye = np.eye(n)
    for sign, dpairs, cres, anns in normal_order_symbolic(tuple(daggers)):
        operands, specs = [], []
        for a, c in dpairs:
            operands.append(eye)
            specs.append(letters[a] + letters[c])
        k = len(cres)
        if k > 0:
            operands.append(rdms.rdm(k).tensor)
            specs.append(
                "".join(letters[s] for s in reversed(cres))
                + "".join(letters[s] for s in anns)
            )
        out_spec = "".join(letters[s] for s in range(L))
        out += sign * np.einsum(",".join(specs) + "->" + out_spec, *operands)
    return out
