"""Reduced density matrices, Grassmann wedge products, and cumulants.

Index layout: an Rdm of rank k stores D[u1..uk, p1..pk] =
<a+_{uk} ... a+_{u1} a_{p1} ... a_{pk}>, i.e. raw expectation values with
trace N!/(N-k)!.  Wedge products and cumulant arithmetic internally use
the normalized convention D_norm = D_raw / k!, in which the cumulant
expansion of the 4-RDM reads

    D4 = Delta4 + 4 Delta3 ^ Delta1 + 3 Delta2 ^ Delta2
         + 6 Delta2 ^ Delta1 ^ Delta1 + Delta1 ^ Delta1 ^ Delta1 ^ Delta1

with integer coefficients and the wedge carrying the full 1/(a+b)!^2
antisymmetrization.  The reconstructions keep Delta1 = D1 and Delta2 and
drop the connected 3- and 4-body parts.

Every tensor here is antisymmetric within its upper and within its lower
index group, so it is computed and stored only on strictly ordered
(packed) index tuples: a rank-k tensor over n spin orbitals has
C(n, k)^2 independent entries out of n^(2k) (4900 of 16.7 M for the
4-RDM over 8 spin orbitals).  Packed arrays have one row and one column
per ascending k-tuple, in ``itertools.combinations`` order.  An Rdm holds
only its packed matrix; its dense tensor is gathered from it, with signs,
only when asked for, and the subspace assembly reads split layouts
gathered from the packed matrix instead (:meth:`Rdm.split`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations

import numpy as np

from .fci import Wavefunction, apply_ladder


def _perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


@lru_cache(maxsize=None)
def _tuples(n: int, k: int) -> np.ndarray:
    """Ascending k-tuples of range(n), one row each, shape (C(n, k), k)."""
    return np.array(list(combinations(range(n), k)), dtype=np.intp).reshape(math.comb(n, k), k)


@lru_cache(maxsize=None)
def _scatter_index(n: int, k: int):
    """Flat dense index of every permutation of every ascending tuple,
    (k! * C(n, k),) permutation-major, and the permutation signs (k!,)."""
    perms = list(permutations(range(k)))
    flat = _tuples(n, k)[:, perms] @ (n ** np.arange(k - 1, -1, -1))
    return flat.T.ravel(), np.array([_perm_sign(p) for p in perms])


def unpack_ends(t: np.ndarray, n: int, first: int, last: int) -> np.ndarray:
    """The 3-D ``t``, its first axis packed over the ascending
    ``first``-tuples and its last axis over the ascending ``last``-tuples
    of range(n), written out flat over all tuples (n**first and n**last
    entries): each tuple reads the entry of its ascending order with the
    sign of sorting it, and a tuple with a repeated index reads zero.  An
    axis of at most one index is already flat."""
    rows, row_signs = _sorted_index(n, first)
    cols, col_signs = _sorted_index(n, last)
    if first > 1:
        t = t.take(rows, axis=0)
    if last > 1:
        t = t.take(cols, axis=2)
    return t * (row_signs[:, np.newaxis, np.newaxis] * col_signs)


def pack_antisymmetrized(t: np.ndarray, axis: int, n: int, m: int) -> np.ndarray:
    """``t`` with its flat ``axis`` over all m-tuples of range(n) (n**m
    entries) summed over the m! orderings of each ascending tuple, with the
    ordering's sign: one entry per ascending tuple.  Contracting the result
    with an antisymmetric tensor's packed entries equals contracting ``t``
    with its dense entries.  The identity for m <= 1."""
    if m < 2:
        return t
    flat, signs = _scatter_index(n, m)
    return sum(
        sign * np.take(t, positions, axis=axis)
        for positions, sign in zip(flat.reshape(len(signs), -1), signs)
    )


def _unpack(packed: np.ndarray, n: int, k: int) -> np.ndarray:
    """Dense antisymmetric tensor (n,)*2k from its packed (C, C) entries."""
    return unpack_ends(packed[:, np.newaxis, :], n, k, k).reshape((n,) * (2 * k))


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
def _split_index(n: int, k: int, a: int):
    """:func:`_sorted_position` of the k-tuple (s, t) that joins every
    ascending a-tuple s to every ascending (k - a)-tuple t, s-major."""
    s = np.repeat(_tuples(n, a), math.comb(n, k - a), axis=0)
    t = np.tile(_tuples(n, k - a), (math.comb(n, a), 1))
    return _sorted_position(np.concatenate([s, t], axis=1), n)


def _gather(t: np.ndarray, upper: list, lower: list) -> np.ndarray:
    """t read at index columns, (C, 1) per upper and (1, C) per lower
    axis: shape (C, C)."""
    return t[tuple(c[:, None] for c in upper) + tuple(c[None, :] for c in lower)]


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
        """The dense tensor (n,)*2k, written out anew on every access."""
        return _unpack(self.packed, self.n, self.k)

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
        out = self.packed[np.ix_(rows, cols)]
        out *= row_signs[:, np.newaxis]
        out *= col_signs
        return out


def _annihilation_amplitudes(wfn: Wavefunction, k: int) -> np.ndarray:
    """Matrix B, one row per reduced determinant r and one column per
    ascending tuple p1 < ... < pk, with
    a_{p1} ... a_{pk} |psi> = sum_r B[r, (p1..pk)] |r>,
    in the amplitudes' dtype."""
    n = wfn.n_spin_orbitals
    col_of = {combo: c for c, combo in enumerate(combinations(range(n), k))}
    row_of: dict[int, int] = {}
    rows, cols, values = [], [], []
    for det, amp in wfn.amplitudes.items():
        occ = [i for i in range(n) if det >> i & 1]
        for combo in combinations(occ, k):
            # apply a_{p_k} first (rightmost), ascending combo
            sign, d = 1, det
            for p in reversed(combo):
                s, d = apply_ladder(d, p, False)
                sign *= s
            rows.append(row_of.setdefault(d, len(row_of)))
            cols.append(col_of[combo])
            values.append(sign * amp)
    values = np.asarray(values)
    b = np.zeros((len(row_of), len(col_of)), dtype=np.result_type(float, values))
    b[rows, cols] = values
    return b


def compute_rdm(wfn: Wavefunction, k: int) -> Rdm:
    """k-particle RDM of a normalized wavefunction (k <= 4).

    The packed D = B+ B is one matrix product over the stacked
    reduced-determinant rows of :func:`_annihilation_amplitudes`, in the
    amplitudes' dtype: float64 for a real wavefunction, complex for a
    complex one.  If k exceeds the electron count the RDM vanishes
    identically and is returned as an explicit zero matrix.
    """
    if k > 4 or k < 1:
        raise ValueError("only ranks 1..4 are supported")
    n = wfn.n_spin_orbitals
    if k > wfn.n_electrons:
        return Rdm(k, n, np.zeros((math.comb(n, k),) * 2))
    b = _annihilation_amplitudes(wfn, k)
    return Rdm(k, n, b.conj().T @ b)


def wedge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Grassmann wedge of antisymmetric tensors of rank (ka, ka), (kb, kb),
    as a dense tensor."""
    packed = _wedge_packed(a, b)
    return _unpack(packed, a.shape[0], (a.ndim + b.ndim) // 2)


def _wedge_packed(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Packed entries of the Grassmann wedge of dense antisymmetric tensors
    of rank (ka, ka), (kb, kb).

    Carries the full 1/(ka+kb)!^2 antisymmetrization.  Since both factors
    are antisymmetric, the permutation sum reduces to one term per pair of
    coset representatives (which output positions take the upper and the
    lower indices of a), each read at the packed output tuples.
    """
    ka = a.ndim // 2
    kb = b.ndim // 2
    if a.ndim % 2 or b.ndim % 2:
        raise ValueError("wedge operands must have even rank")
    n = a.shape[0]
    if a.shape != (n,) * (2 * ka) or b.shape != (n,) * (2 * kb):
        raise ValueError("wedge operands must be cubic and matching")
    k = ka + kb
    cols = _tuples(n, k).T
    cosets = []
    for su in combinations(range(k), ka):
        rest = tuple(i for i in range(k) if i not in su)
        cosets.append(([cols[i] for i in su], [cols[i] for i in rest], _perm_sign(su + rest)))
    out = np.zeros((len(cols[0]),) * 2, dtype=np.result_type(a, b))
    for au, bu, sgn_u in cosets:
        for al, bl, sgn_l in cosets:
            out += sgn_u * sgn_l * (_gather(a, au, al) * _gather(b, bu, bl))
    norm = (math.factorial(ka) * math.factorial(kb) / math.factorial(k)) ** 2
    return norm * out


def delta2(rdm1: Rdm, rdm2: Rdm) -> np.ndarray:
    """Two-body cumulant D2/2 - D1 ^ D1, normalized convention."""
    if rdm1.n != rdm2.n:
        raise ValueError("RDM dimensions disagree")
    return rdm2.tensor / 2.0 - wedge(rdm1.tensor, rdm1.tensor)


def cumulant_4rdm(rdm1: Rdm, rdm2: Rdm) -> Rdm:
    """Reconstruct the 4-RDM from 1- and 2-RDMs with the connected 3- and
    4-body parts set to zero.  Only the rank-4 wedges are packed; their
    rank-2 and rank-3 operands are dense."""
    d1 = rdm1.tensor
    d2c = delta2(rdm1, rdm2)
    w11 = wedge(d1, d1)
    d4n = (
        3.0 * _wedge_packed(d2c, d2c)
        + 6.0 * _wedge_packed(wedge(d2c, d1), d1)
        + _wedge_packed(wedge(w11, d1), d1)
    )
    return Rdm(4, rdm1.n, 24.0 * d4n)


def cumulant_3rdm(rdm1: Rdm, rdm2: Rdm) -> Rdm:
    """Reconstruct the 3-RDM from 1- and 2-RDMs with the connected 3-body
    part set to zero."""
    d1 = rdm1.tensor
    d3n = 3.0 * _wedge_packed(delta2(rdm1, rdm2), d1) + _wedge_packed(wedge(d1, d1), d1)
    return Rdm(3, rdm1.n, 6.0 * d3n)


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
