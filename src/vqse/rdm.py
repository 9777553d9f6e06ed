"""Reduced density matrices, Grassmann wedge products, and cumulants.

Index layout: an Rdm of rank k stores D[u1..uk, p1..pk] =
<a+_{uk} ... a+_{u1} a_{p1} ... a_{pk}>, i.e. raw expectation values with
trace N!/(N-k)!.  Wedge products and cumulant arithmetic internally use
the normalized convention D_norm = D_raw / k!, in which the cumulant
expansion of the 4-RDM reads

    D4 = Delta4 + 4 Delta3 ^ Delta1 + 3 Delta2 ^ Delta2
         + 6 Delta2 ^ Delta1 ^ Delta1 + Delta1 ^ Delta1 ^ Delta1 ^ Delta1

with integer coefficients and the wedge carrying the full 1/(a+b)!^2
antisymmetrization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


@dataclass
class Rdm:
    """Rank-k reduced density matrix over n spin orbitals."""

    k: int
    n: int
    tensor: np.ndarray
    vanishes: bool = False  # k exceeded the electron count

    def __post_init__(self):
        if self.tensor.shape != (self.n,) * (2 * self.k):
            raise ValueError("RDM tensor shape mismatch")

    def trace(self) -> complex:
        k, n = self.k, self.n
        t = self.tensor.reshape(n**k, n**k)
        return complex(np.trace(t))

    def hermitized(self) -> "Rdm":
        k = self.k
        dag = np.conj(self.tensor.transpose(tuple(range(k, 2 * k)) + tuple(range(k))))
        return Rdm(self.k, self.n, 0.5 * (self.tensor + dag), self.vanishes)


def _annihilation_amplitudes(wfn: Wavefunction, k: int) -> np.ndarray:
    """Matrix B, one row per reduced determinant r, with
    a_{p1} ... a_{pk} |psi> = sum_r B[r, (p1..pk)] |r> over flat (p1..pk),
    in the amplitudes' dtype."""
    n = wfn.n_spin_orbitals
    perms = [(perm, _perm_sign(perm)) for perm in permutations(range(k))]
    place = [n ** (k - 1 - i) for i in range(k)]
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
            row = row_of.setdefault(d, len(row_of))
            for perm, perm_sign in perms:
                rows.append(row)
                cols.append(sum(combo[perm[i]] * place[i] for i in range(k)))
                values.append(sign * perm_sign * amp)
    values = np.asarray(values)
    b = np.zeros((len(row_of), n**k), dtype=np.result_type(float, values))
    b[rows, cols] = values
    return b


def compute_rdm(wfn: Wavefunction, k: int) -> Rdm:
    """k-particle RDM of a normalized wavefunction (k <= 4).

    D = B+ B is one matrix product over the stacked reduced-determinant
    rows of :func:`_annihilation_amplitudes`, in the amplitudes' dtype:
    float64 for a real wavefunction, complex for a complex one.  If k
    exceeds the electron count the RDM vanishes identically and is
    returned as an explicit zero tensor with ``vanishes`` set.
    """
    if k > 4 or k < 1:
        raise ValueError("only ranks 1..4 are supported")
    n = wfn.n_spin_orbitals
    if k > wfn.n_electrons:
        return Rdm(k, n, np.zeros((n,) * (2 * k)), vanishes=True)
    b = _annihilation_amplitudes(wfn, k)
    return Rdm(k, n, (b.conj().T @ b).reshape((n,) * (2 * k)))


def wedge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Grassmann wedge of antisymmetric tensors of rank (ka, ka), (kb, kb).

    Carries the full 1/(ka+kb)!^2 antisymmetrization; evaluated over coset
    representatives since both factors are antisymmetric.
    """
    ka = a.ndim // 2
    kb = b.ndim // 2
    if a.ndim % 2 or b.ndim % 2:
        raise ValueError("wedge operands must have even rank")
    n = a.shape[0]
    if a.shape != (n,) * (2 * ka) or b.shape != (n,) * (2 * kb):
        raise ValueError("wedge operands must be cubic and matching")
    k = ka + kb
    core = np.multiply.outer(a, b)
    # core axes: [a_up(ka), a_lo(ka), b_up(kb), b_lo(kb)]
    subsets = []
    for su in combinations(range(k), ka):
        rest = tuple(i for i in range(k) if i not in su)
        perm = su + rest
        subsets.append((su, rest, _perm_sign(_inverse(perm))))
    out = np.zeros((n,) * (2 * k), dtype=np.result_type(a, b))
    for su, ru, sgn_u in subsets:
        for sp, rp, sgn_p in subsets:
            # destination axis for each core axis
            dest = [None] * (2 * k)
            for axis, pos in enumerate(su):
                dest[axis] = pos
            for axis, pos in enumerate(sp):
                dest[ka + axis] = k + pos
            for axis, pos in enumerate(ru):
                dest[2 * ka + axis] = pos
            for axis, pos in enumerate(rp):
                dest[2 * ka + kb + axis] = k + pos
            out += sgn_u * sgn_p * np.moveaxis(core, range(2 * k), dest)
    norm = (math.factorial(ka) * math.factorial(kb) / math.factorial(k)) ** 2
    return norm * out


def _inverse(perm):
    inv = [0] * len(perm)
    for i, p in enumerate(perm):
        inv[p] = i
    return tuple(inv)


@dataclass
class CumulantSet:
    """Connected (cumulant) parts Delta_1 .. Delta_4, raw index layout,
    normalized-convention tensors (divide raw RDM by k!)."""

    delta1: np.ndarray
    delta2: np.ndarray
    delta3: np.ndarray | None = None
    delta4: np.ndarray | None = None


def cumulants_from_rdms(rdm1: Rdm, rdm2: Rdm, rdm3: Rdm | None = None, rdm4: Rdm | None = None) -> CumulantSet:
    d1 = rdm1.tensor
    d2n = rdm2.tensor / 2.0
    delta2 = d2n - wedge(d1, d1)
    delta3 = None
    delta4 = None
    if rdm3 is not None:
        d3n = rdm3.tensor / 6.0
        delta3 = d3n - 3.0 * wedge(delta2, d1) - wedge(wedge(d1, d1), d1)
    if rdm4 is not None:
        if delta3 is None:
            raise ValueError("rank-4 cumulant requires the 3-RDM")
        d4n = rdm4.tensor / 24.0
        delta4 = (
            d4n
            - 4.0 * wedge(delta3, d1)
            - 3.0 * wedge(delta2, delta2)
            - 6.0 * wedge(wedge(delta2, d1), d1)
            - wedge(wedge(wedge(d1, d1), d1), d1)
        )
    return CumulantSet(d1, delta2, delta3, delta4)


def cumulant_4rdm(
    rdm1: Rdm,
    rdm2: Rdm,
    rdm3: Rdm | None = None,
    rdm4: Rdm | None = None,
    truncation_rank: int = 2,
) -> Rdm:
    """Reconstruct the 4-RDM from lower cumulants.

    ``truncation_rank`` is the highest cumulant retained: 2 (default)
    needs only 1- and 2-RDMs, 3 adds the connected 3-body part, 4 is
    exact when the true 3- and 4-RDMs are supplied.
    """
    if rdm1.n != rdm2.n:
        raise ValueError("RDM dimensions disagree")
    if truncation_rank < 2 or truncation_rank > 4:
        raise ValueError("truncation rank must be 2, 3, or 4")
    cums = cumulants_from_rdms(
        rdm1,
        rdm2,
        rdm3 if truncation_rank >= 3 else None,
        rdm4 if truncation_rank >= 4 else None,
    )
    d1 = cums.delta1
    w11 = wedge(d1, d1)
    d4n = (
        3.0 * wedge(cums.delta2, cums.delta2)
        + 6.0 * wedge(wedge(cums.delta2, d1), d1)
        + wedge(wedge(w11, d1), d1)
    )
    if truncation_rank >= 3 and cums.delta3 is not None:
        d4n = d4n + 4.0 * wedge(cums.delta3, d1)
    if truncation_rank >= 4 and cums.delta4 is not None:
        d4n = d4n + cums.delta4
    return Rdm(4, rdm1.n, 24.0 * d4n)


def cumulant_3rdm(rdm1: Rdm, rdm2: Rdm) -> Rdm:
    """Reconstruct the 3-RDM from 1- and 2-RDMs with the connected 3-body
    part set to zero."""
    if rdm1.n != rdm2.n:
        raise ValueError("RDM dimensions disagree")
    cums = cumulants_from_rdms(rdm1, rdm2)
    d1 = cums.delta1
    d3n = 3.0 * wedge(cums.delta2, d1) + wedge(wedge(d1, d1), d1)
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
    delta2_act = active_rdm2.tensor / 2.0 - wedge(active_rdm1.tensor, active_rdm1.tensor)
    delta2 = np.zeros((n_full,) * 4, dtype=delta2_act.dtype)
    delta2[np.ix_(active_spin, active_spin, active_spin, active_spin)] = delta2_act
    d2 = 2.0 * (wedge(d1, d1) + delta2)
    return Rdm(1, n_full, d1), Rdm(2, n_full, d2)


def energy_from_rdms(mol, rdm1: Rdm, rdm2: Rdm) -> float:
    """Assemble the energy from spin-orbital 1- and 2-RDMs."""
    h1s = mol.h1_spin()
    h2s = mol.h2_spin()
    # <a+_i a_j> = D1[i, j]; <a+_i a+_j a_k a_l> = D2[j, i, k, l]
    e = np.einsum("ij,ij->", h1s, rdm1.tensor)
    e = e + 0.5 * np.einsum("ijkl,jikl->", h2s, rdm2.tensor)
    return float(np.real(e)) + mol.constant


def antisymmetry_project(t: np.ndarray) -> np.ndarray:
    """Project onto tensors antisymmetric in upper and lower index groups."""
    k = t.ndim // 2
    out = np.zeros_like(t)
    for pu in permutations(range(k)):
        su = _perm_sign(pu)
        tu = t.transpose(tuple(pu) + tuple(range(k, 2 * k)))
        for pl in permutations(range(k)):
            sl = _perm_sign(pl)
            out += su * sl * tu.transpose(tuple(range(k)) + tuple(k + i for i in pl))
    return out / (math.factorial(k) ** 2)


def inject_shot_noise(rdm: Rdm, n_shots: float, seed: int) -> Rdm:
    """Gaussian measurement-noise model: std 1/sqrt(n_shots) per element,
    followed by re-symmetrization (antisymmetry + Hermiticity)."""
    if n_shots <= 0:
        raise ValueError("n_shots must be positive")
    rng = np.random.default_rng(seed)
    noise = rng.normal(scale=n_shots**-0.5, size=rdm.tensor.shape)
    noisy = Rdm(rdm.k, rdm.n, rdm.tensor + antisymmetry_project(noise), rdm.vanishes)
    return noisy.hermitized()
