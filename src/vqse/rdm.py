"""Reduced density matrices, Grassmann wedge products, and cumulants.

Index layout: an Rdm of rank k stores D[u1..uk, p1..pk] =
<a+_{uk} ... a+_{u1} a_{p1} ... a_{pk}>, i.e. raw expectation values with
trace N!/(N-k)!.  Wedge products and cumulant arithmetic internally use
the normalized convention D_k = D_raw / k!, with the wedge carrying the
full 1/(a+b)!^2 antisymmetrization.  With the two-body cumulant
Delta2 = D2 - D1 ^ D1 and the connected 3- and 4-body parts dropped, the
cumulant expansion (Mazziotti, CPL 289, 419 (1998)) collapses to one
recursion,

    D_k = D1 ^ D_(k-1) + (k - 1) Delta2 ^ D_(k-2),    k = 3, 4,

which rebuilds D3 from the measured D1 and D2, and D4 from D3 and D2.

The measured RDMs are gathered from a state's CI matrix with no list of
determinants: D = B+ B, with one block B of annihilation amplitudes per
split of k into alpha and beta spin orbitals, read off the per-spin
annihilation tables; a sign common to a block cancels in its B+ B.

Every tensor here is antisymmetric within its upper and within its lower
index group, so it is computed and stored only on strictly ordered
(packed) index tuples: a rank-k tensor over n spin orbitals has
C(n, k)^2 independent entries out of n^(2k) (4900 of 16.7 M for the
4-RDM over 8 spin orbitals).  Packed arrays have one row and one column
per ascending k-tuple, in ``itertools.combinations`` order.  An Rdm holds
only its packed matrix, and the subspace assembly reads only that matrix
and split layouts gathered from it (:meth:`Rdm.split`).  The dense tensor
(:attr:`Rdm.tensor`) is gathered only when asked for: by the spin-summed
RDMs of the orbital relaxation and by the Wick oracle
(:func:`vqse.wick.active_pattern_tensor`).  Every read or write at index
tuples that need not ascend goes through one table, the packed index of
each tuple's ascending order and the sign of sorting it
(:func:`_sorted_position`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .fci import CiState, annihilation_table


@lru_cache(maxsize=None)
def _tuples(n: int, k: int) -> np.ndarray:
    """Ascending k-tuples of range(n), one row each, shape (C(n, k), k)."""
    return np.array(list(combinations(range(n), k)), dtype=np.intp).reshape(math.comb(n, k), k)


def _sorted_position(tuples: np.ndarray, n: int):
    """Packed index of the ascending order of each row of ``tuples``
    (k-tuples of range(n)) and the sign of sorting it as a float, 0 where
    a row repeats an index (its index is then arbitrary)."""
    k = tuples.shape[1]
    pairs = np.triu_indices(k, 1)
    above = tuples[:, pairs[0]] - tuples[:, pairs[1]]
    signs = np.where((above == 0).any(axis=1), 0.0, (-1.0) ** (above > 0).sum(axis=1))
    powers = n ** np.arange(k - 1, -1, -1)
    position = np.zeros(n**k, dtype=np.intp)
    position[_tuples(n, k) @ powers] = np.arange(math.comb(n, k))
    return position[np.sort(tuples, axis=1) @ powers], signs


@lru_cache(maxsize=None)
def _sorted_index(n: int, m: int):
    """:func:`_sorted_position` of every m-tuple of range(n), in flat
    (row-major) order."""
    return _sorted_position(np.indices((n,) * m).reshape(m, n**m).T, n)


@lru_cache(maxsize=None)
def _antisymmetrizer(n: int, m: int) -> np.ndarray:
    """(n**m, C(n, m)) matrix with one entry per m-tuple of range(n), the
    sign of sorting it, in the column of its ascending order."""
    positions, signs = _sorted_index(n, m)
    out = np.zeros((n**m, math.comb(n, m)))
    out[np.arange(n**m), positions] = signs
    return out


def pack_antisymmetrized(t: np.ndarray, axis: int, n: int, m: int) -> np.ndarray:
    """``t`` with its flat ``axis`` over all m-tuples of range(n) (n**m
    entries) summed over the m! orderings of each ascending tuple, with the
    ordering's sign: one entry per ascending tuple.  Contracting the result
    with an antisymmetric tensor's packed entries equals contracting ``t``
    with its dense entries.  The identity for m <= 1."""
    if m < 2:
        return t
    return np.moveaxis(np.moveaxis(t, axis, -1) @ _antisymmetrizer(n, m), -1, axis)


@lru_cache(maxsize=None)
def _split_index(n: int, k: int, a: int):
    """:func:`_sorted_position` of the k-tuple (s, t) that joins every
    ascending a-tuple s to every ascending (k - a)-tuple t, s-major."""
    s = np.repeat(_tuples(n, a), math.comb(n, k - a), axis=0)
    t = np.tile(_tuples(n, k - a), (math.comb(n, a), 1))
    return _sorted_position(np.concatenate([s, t], axis=1), n)


@lru_cache(maxsize=None)
def _spin_split_index(n: int, k_alpha: int, k_beta: int):
    """:func:`_sorted_position` over 2n spin orbitals of the tuple
    (2P, 2Q + 1) that joins every ascending k_alpha-tuple P of range(n)
    to every ascending k_beta-tuple Q, P-major."""
    p = np.repeat(2 * _tuples(n, k_alpha), math.comb(n, k_beta), axis=0)
    q = np.tile(2 * _tuples(n, k_beta) + 1, (math.comb(n, k_alpha), 1))
    return _sorted_position(np.concatenate([p, q], axis=1), 2 * n)


@lru_cache(maxsize=None)
def _coset_index(n: int, k: int, a: int):
    """For each choice of a of the k positions of an ascending k-tuple of
    range(n), in ``combinations`` order: the sign of moving the chosen
    positions to the front, and the packed index of the chosen sub-tuple
    and of the rest at every ascending k-tuple.  Both sub-tuples are
    ascending, so their packed entries are read without sorting."""
    tuples = _tuples(n, k)
    cosets = []
    for chosen in combinations(range(k), a):
        rest = tuple(i for i in range(k) if i not in chosen)
        cosets.append((
            _sorted_position(np.array([chosen + rest]), k)[1][0],
            _sorted_position(tuples[:, chosen], n)[0],
            _sorted_position(tuples[:, rest], n)[0],
        ))
    return cosets


@dataclass
class Rdm:
    """Rank-k reduced density matrix over n spin orbitals, stored packed:
    ``packed`` is the (C(n, k), C(n, k)) matrix of its entries at ascending
    upper and lower index tuples."""

    k: int
    n: int
    packed: np.ndarray

    def __post_init__(self):
        if self.packed.shape != (math.comb(self.n, self.k),) * 2:
            raise ValueError("packed RDM shape mismatch")

    @property
    def tensor(self) -> np.ndarray:
        """The dense tensor (n,)*2k, written out anew on every access: each
        index tuple reads the entry of its ascending order with the sign of
        sorting it, and a tuple with a repeated index reads zero."""
        positions, signs = _sorted_index(self.n, self.k)
        dense = self.packed[np.ix_(positions, positions)]
        dense *= signs[:, np.newaxis]
        dense *= signs
        return dense.reshape((self.n,) * (2 * self.k))

    def split(self, upper: int, lower: int) -> np.ndarray:
        """The RDM as a matrix whose rows join the first ``upper`` upper
        indices to the other upper ones and whose columns join the first
        ``lower`` lower indices to the other lower ones, each of the four
        groups packed: shape (C(n, upper) C(n, k - upper),
        C(n, lower) C(n, k - lower)), read from the packed entries with
        the signs of sorting each joined tuple.  A group of at most one
        index is a dense axis, so a split of the 2-RDM into single indices
        is its dense (n^2, n^2) matrix."""
        rows, row_signs = _split_index(self.n, self.k, upper)
        cols, col_signs = _split_index(self.n, self.k, lower)
        out = self.packed.take(rows, axis=0)
        out *= row_signs[:, np.newaxis]  # before the columns multiply its size
        out = out.take(cols, axis=1)
        out *= col_signs
        return out


def compute_rdm(state: CiState, k: int) -> Rdm:
    """k-particle RDM of a normalized CI state (k <= 4), in the dtype of
    its CI matrix.

    D = B+ B, with B[r, P] the amplitude of the reduced determinant r in
    a_{P1} ... a_{Pk} |psi> at each ascending spin-orbital tuple P.  B
    falls into one block per split k = k_a + k_b of P into alpha and beta
    spin orbitals, each scattered from the CI matrix one alpha subset P_a
    at a time through the alpha and beta annihilation tables
    (:func:`vqse.fci.annihilation_table`):
    a_{2P_a} a_{2P_b+1} A(I_a) B(I_b) |0> = (-1)^(k_b n_alpha) s_a s_b
    A(J_a) B(J_b) |0>, the beta annihilators passing the alpha creators.
    That sign is common to the block, so it cancels in its B+ B; the sign
    of sorting (2P_a, 2P_b+1) and its packed index come from
    :func:`_spin_split_index`.  With k above the electron count no split
    exists and D is zero.
    """
    if k > 4 or k < 1:
        raise ValueError("only ranks 1..4 are supported")
    n, c = state.n_spatial, state.c
    packed = np.zeros((math.comb(2 * n, k),) * 2, dtype=np.result_type(float, c))
    for k_alpha in range(max(0, k - state.n_beta), min(k, state.n_alpha) + 1):
        k_beta = k - k_alpha
        target_a, sign_a, subset_a = annihilation_table(n, state.n_alpha, k_alpha)
        target_b, sign_b, subset_b = annihilation_table(n, state.n_beta, k_beta)
        positions, signs = _spin_split_index(n, k_alpha, k_beta)
        reduced = (math.comb(n, state.n_alpha - k_alpha), math.comb(n, state.n_beta - k_beta))
        b = np.zeros((reduced[0] * reduced[1], len(positions)), packed.dtype)
        for x in range(sign_a.shape[1]):
            rows = target_a[:, x, None, None] * reduced[1] + target_b
            cols = subset_a[:, x, None, None] * math.comb(n, k_beta) + subset_b
            b[rows, cols] = sign_a[:, x, None, None] * c[:, :, None] * sign_b
        del rows, cols  # not held through B+ B
        b *= signs
        packed[np.ix_(positions, positions)] = b.conj().T @ b
    return Rdm(k, 2 * n, packed)


def wedge(a: Rdm, b: Rdm) -> Rdm:
    """Grassmann wedge of RDMs of ranks ka and kb, normalized convention,
    read from and written to packed entries.

    Carries the full 1/(ka+kb)!^2 antisymmetrization.  Since both factors
    are antisymmetric, the permutation sum reduces to one term per pair of
    coset representatives (which output positions take the upper and the
    lower indices of a), each read at the packed output tuples.
    """
    if a.n != b.n:
        raise ValueError("RDM dimensions disagree")
    k = a.k + b.k
    cosets = _coset_index(a.n, k, a.k)
    out = np.zeros((math.comb(a.n, k),) * 2, dtype=np.result_type(a.packed, b.packed))
    for sign_u, au, bu in cosets:
        for sign_l, al, bl in cosets:
            out += sign_u * sign_l * (a.packed[np.ix_(au, al)] * b.packed[np.ix_(bu, bl)])
    norm = (math.factorial(a.k) * math.factorial(b.k) / math.factorial(k)) ** 2
    return Rdm(k, a.n, norm * out)


def cumulant_rdms(rdm1: Rdm, rdm2: Rdm) -> dict[int, Rdm]:
    """The 3- and 4-RDMs rebuilt from the 1- and 2-RDMs with the connected
    3- and 4-body parts set to zero, by the recursion of the module
    docstring: {3: D3, 4: D4}, raw convention.  Raises ``ValueError`` if
    the two are over different orbital counts."""
    n = rdm1.n
    d = {1: rdm1, 2: Rdm(2, n, rdm2.packed / 2.0)}
    delta2 = Rdm(2, n, d[2].packed - wedge(rdm1, rdm1).packed)
    for k in (3, 4):
        d[k] = Rdm(k, n, wedge(rdm1, d[k - 1]).packed + (k - 1) * wedge(delta2, d[k - 2]).packed)
    return {k: Rdm(k, n, math.factorial(k) * d[k].packed) for k in (3, 4)}


def spin_summed_rdms(rdm1: Rdm, rdm2: Rdm):
    """(gamma, Gamma) over m spatial orbitals from spin-orbital RDMs over
    their 2m spin orbitals: gamma_pq = sum_s D1[ps, qs] and
    Gamma_pqrs = sum_st D2[rt, ps, st, qs] = <E_pq E_rs> - delta_qr gamma_ps
    (Helgaker, Jorgensen & Olsen, ch. 2), the spin-free form
    ``energy_from_rdms`` contracts.  Real orbitals of real integrals see
    only their real parts."""
    m = rdm1.n // 2
    d1 = rdm1.tensor.real.reshape(m, 2, m, 2)
    d2 = rdm2.tensor.real.reshape((m, 2) * 4)
    return np.einsum("pSqS->pq", d1), np.einsum("rTpSsTqS->pqrs", d2)


def energy_from_rdms(mol, gamma: np.ndarray, big_gamma: np.ndarray) -> float:
    """sum_pq h_pq gamma_pq + 1/2 sum_pqrs (pq|rs) Gamma_pqrs + the
    constant, with ``spin_summed_rdms`` over the spatial orbitals of
    ``mol``."""
    e = np.einsum("pq,pq->", mol.h1, gamma) + 0.5 * np.einsum("pqrs,pqrs->", mol.eri, big_gamma)
    return float(e) + mol.constant


def inject_shot_noise(rdm: Rdm, n_shots: float, seed: int) -> Rdm:
    """Gaussian measurement-noise model: std 1/sqrt(n_shots) per dense
    element, projected onto antisymmetric tensors and Hermitized.

    The projection of i.i.d. N(0, sigma^2) dense noise reads, at each pair
    of ascending tuples, the signed mean of k!^2 draws over sets that do not
    overlap.  So the projected noise is i.i.d. N(0, (sigma / k!)^2) on the
    packed entries, and it is drawn there; the packed matrix P is then
    Hermitized as (P + P+) / 2.
    """
    if n_shots <= 0:
        raise ValueError("n_shots must be positive")
    rng = np.random.default_rng(seed)
    scale = n_shots**-0.5 / math.factorial(rdm.k)
    packed = rdm.packed + rng.normal(scale=scale, size=rdm.packed.shape)
    return Rdm(rdm.k, rdm.n, (packed + packed.conj().T) / 2)
