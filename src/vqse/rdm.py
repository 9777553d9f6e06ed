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
index group, so it is computed only on strictly ordered (packed) index
tuples: a rank-k tensor over n spin orbitals has C(n, k)^2 independent
entries out of n^(2k).  Packed arrays have one row and one column per
ascending k-tuple, in ``itertools.combinations`` order, and
:func:`_unpack` writes them to the dense tensor with one signed scatter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations

import numpy as np

from .exceptions import PartitionError
from .fci import Wavefunction, apply_ladder
from .spaces import OrbitalPartition


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
    return np.array(list(combinations(range(n), k)), dtype=np.intp).reshape(-1, k)


@lru_cache(maxsize=None)
def _scatter_index(n: int, k: int):
    """Flat dense index of every permutation of every ascending tuple,
    (k! * C(n, k),) permutation-major, and the permutation signs (k!,)."""
    perms = list(permutations(range(k)))
    flat = _tuples(n, k)[:, perms] @ (n ** np.arange(k - 1, -1, -1))
    return flat.T.ravel(), np.array([_perm_sign(p) for p in perms])


def _unpack(packed: np.ndarray, n: int, k: int) -> np.ndarray:
    """Dense antisymmetric tensor (n,)*2k from its packed (C, C) entries:
    each entry goes to all k!^2 permutations of its indices, with their
    signs; entries with a repeated index stay zero."""
    flat, signs = _scatter_index(n, k)
    signed = signs[:, None, None, None] * signs[:, None] * packed[:, None, :]
    out = np.zeros((n**k, n**k), dtype=packed.dtype)
    out[np.ix_(flat, flat)] = signed.reshape(len(flat), len(flat))
    return out.reshape((n,) * (2 * k))


def _gather(t: np.ndarray, upper: list, lower: list) -> np.ndarray:
    """t read at index columns, (C, 1) per upper and (1, C) per lower
    axis: shape (C, C)."""
    return t[tuple(c[:, None] for c in upper) + tuple(c[None, :] for c in lower)]


@dataclass
class Rdm:
    """Rank-k reduced density matrix over n spin orbitals."""

    k: int
    n: int
    tensor: np.ndarray

    def __post_init__(self):
        if self.tensor.shape != (self.n,) * (2 * self.k):
            raise ValueError("RDM tensor shape mismatch")


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
    identically and is returned as an explicit zero tensor.
    """
    if k > 4 or k < 1:
        raise ValueError("only ranks 1..4 are supported")
    n = wfn.n_spin_orbitals
    if k > wfn.n_electrons:
        return Rdm(k, n, np.zeros((n,) * (2 * k)))
    b = _annihilation_amplitudes(wfn, k)
    return Rdm(k, n, _unpack(b.conj().T @ b, n, k))


def wedge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Grassmann wedge of antisymmetric tensors of rank (ka, ka), (kb, kb).

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
    return _unpack(norm * out, n, k)


def delta2(rdm1: Rdm, rdm2: Rdm) -> np.ndarray:
    """Two-body cumulant D2/2 - D1 ^ D1, normalized convention."""
    if rdm1.n != rdm2.n:
        raise ValueError("RDM dimensions disagree")
    return rdm2.tensor / 2.0 - wedge(rdm1.tensor, rdm1.tensor)


def cumulant_4rdm(rdm1: Rdm, rdm2: Rdm) -> Rdm:
    """Reconstruct the 4-RDM from 1- and 2-RDMs with the connected 3- and
    4-body parts set to zero."""
    d1 = rdm1.tensor
    d2c = delta2(rdm1, rdm2)
    w11 = wedge(d1, d1)
    d4n = (
        3.0 * wedge(d2c, d2c)
        + 6.0 * wedge(wedge(d2c, d1), d1)
        + wedge(wedge(w11, d1), d1)
    )
    return Rdm(4, rdm1.n, 24.0 * d4n)


def cumulant_3rdm(rdm1: Rdm, rdm2: Rdm) -> Rdm:
    """Reconstruct the 3-RDM from 1- and 2-RDMs with the connected 3-body
    part set to zero."""
    d1 = rdm1.tensor
    d3n = 3.0 * wedge(delta2(rdm1, rdm2), d1) + wedge(wedge(d1, d1), d1)
    return Rdm(3, rdm1.n, 6.0 * d3n)


def composite_full_rdms(
    active_rdm1: Rdm, active_rdm2: Rdm, partition: OrbitalPartition
) -> tuple[Rdm, Rdm]:
    """Embed active RDMs into the full space with doubly occupied core and
    empty virtuals.

    The 2-RDM is composed by wedge: the full-space connected 2-body part
    is the active one, and the mean-field part is the wedge square of the
    composite 1-RDM.
    """
    active_spin = partition.active_spin
    if active_rdm1.n != len(active_spin):
        raise PartitionError("active RDM dimension does not match the partition")
    n_full = 2 * partition.n_spatial
    d1 = np.zeros((n_full, n_full), dtype=active_rdm1.tensor.dtype)
    for c in partition.core_spin:
        d1[c, c] = 1.0
    ix = np.ix_(active_spin, active_spin)
    d1[ix] = active_rdm1.tensor
    delta2_act = delta2(active_rdm1, active_rdm2)
    delta2_full = np.zeros((n_full,) * 4, dtype=delta2_act.dtype)
    delta2_full[np.ix_(active_spin, active_spin, active_spin, active_spin)] = delta2_act
    d2 = 2.0 * (wedge(d1, d1) + delta2_full)
    return Rdm(1, n_full, d1), Rdm(2, n_full, d2)


def energy_from_rdms(mol, rdm1: Rdm, rdm2: Rdm) -> float:
    """Assemble the energy from spin-orbital 1- and 2-RDMs."""
    h1s = mol.h1_spin()
    h2s = mol.h2_spin()
    # <a+_i a_j> = D1[i, j]; <a+_i a+_j a_k a_l> = D2[j, i, k, l]
    e = np.einsum("ij,ij->", h1s, rdm1.tensor)
    e = e + 0.5 * np.einsum("ijkl,jikl->", h2s, rdm2.tensor)
    return float(np.real(e)) + mol.constant


def _antisymmetric_packed(t: np.ndarray) -> np.ndarray:
    """Packed (C, C) entries of the projection of ``t`` onto tensors
    antisymmetric in upper and lower index groups: the signed average over
    all k!^2 index permutations, read at the packed tuples."""
    k = t.ndim // 2
    n = t.shape[0]
    cols = _tuples(n, k).T
    out = np.zeros((len(cols[0]),) * 2, dtype=t.dtype)
    for pu in permutations(range(k)):
        su = _perm_sign(pu)
        upper = [cols[pu.index(i)] for i in range(k)]
        for pl in permutations(range(k)):
            sl = _perm_sign(pl)
            out += su * sl * _gather(t, upper, [cols[pl.index(i)] for i in range(k)])
    return out / (math.factorial(k) ** 2)


def inject_shot_noise(rdm: Rdm, n_shots: float, seed: int) -> Rdm:
    """Gaussian measurement-noise model: std 1/sqrt(n_shots) per element,
    followed by re-symmetrization (antisymmetry + Hermiticity).

    The noise is drawn over every dense entry, which fixes the seeded
    stream, then projected onto the packed tuples and added to the RDM's
    packed entries; the packed matrix P is Hermitized as (P + P+) / 2 and
    unpacked once.
    """
    if n_shots <= 0:
        raise ValueError("n_shots must be positive")
    rng = np.random.default_rng(seed)
    noise = rng.normal(scale=n_shots**-0.5, size=rdm.tensor.shape)
    cols = list(_tuples(rdm.n, rdm.k).T)
    packed = _gather(rdm.tensor, cols, cols) + _antisymmetric_packed(noise)
    return Rdm(rdm.k, rdm.n, _unpack((packed + packed.conj().T) / 2, rdm.n, rdm.k))
