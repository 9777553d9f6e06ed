"""Exact diagonalization over spin-orbital determinants.

Determinants are integer bitmasks (bit i set means spin orbital i is
occupied) with the reference ordering |det> = a+_{i1} a+_{i2} ... |0>,
i1 < i2 < ...; spatial orbital p holds spin orbitals 2p (alpha) and 2p+1
(beta).  This module also provides the brute-force full-Fock-space
expectation used as the oracle by the RDM and Wick modules.

The solver factors each (n_alpha, n_beta) block into alpha and beta
strings (Knowles & Handy, CPL 111, 315 (1984); Olsen et al., JCP 89, 2185
(1988)).  A string is an occupation bitmask over spatial orbitals, and the
block's product states are |I_a I_b> = A(I_a) B(I_b) |0>.  With
E^s_pq = a+_{ps} a_{qs},

    H = K^a (x) 1 + 1 (x) K^b + sum_pqrs (pq|rs) E^a_pq (x) E^b_rs + const,
    K^s = sum_pq k_pq E^s_pq + 1/2 sum_pqrs (pq|rs) E^s_pq E^s_rs,
    k_pq = h_pq - 1/2 sum_r (pr|rq),

and every E^s_pq matrix element is read from a per-spin excitation table
(:func:`string_table`).  Blocks up to ``DENSE_LIMIT`` determinants are
built densely and solved with ``eigh``.  Larger ones go to Lanczos
(``eigsh``) over the sigma-build C[I_a, I_b] -> (HC)[J_a, J_b], from a
fixed start vector.  The interleaved determinant equals the product state
times a reorder phase, applied once to the eigenvector.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations

import numpy as np
import scipy.sparse.linalg

from .integrals import MolecularIntegrals

DENSE_LIMIT = 2000


def _parity_below(det: int, index: int) -> int:
    """(-1)^(number of occupied spin orbitals below index)."""
    return -1 if bin(det & ((1 << index) - 1)).count("1") % 2 else 1


def apply_ladder(det: int, index: int, dagger: bool) -> tuple[int, int]:
    """Apply a single ladder operator; returns (sign, new_det), sign 0 if killed."""
    bit = 1 << index
    if dagger:
        if det & bit:
            return 0, det
        return _parity_below(det, index), det | bit
    if not det & bit:
        return 0, det
    return _parity_below(det, index), det & ~bit


def apply_ladder_string(string, det: int, n_spin_orbitals: int | None = None):
    """Apply a product of ladder operators (leftmost acts last).

    ``string`` is a sequence of (spin-orbital index, dagger flag). Returns
    (sign in {-1, 0, +1}, determinant).
    """
    sign = 1
    for index, dagger in reversed(list(string)):
        if n_spin_orbitals is not None and not 0 <= index < n_spin_orbitals:
            raise ValueError(f"spin-orbital index {index} out of range")
        s, det = apply_ladder(det, index, dagger)
        if s == 0:
            return 0, det
        sign *= s
    return sign, det


@dataclass
class Wavefunction:
    """Sparse determinant -> amplitude map over a fixed particle sector."""

    amplitudes: dict
    n_spin_orbitals: int
    n_electrons: int


def full_space_expectation(bra: Wavefunction, terms, ket: Wavefunction) -> complex:
    """<bra| sum_t coeff_t string_t |ket> by explicit determinant application."""
    if bra.n_spin_orbitals != ket.n_spin_orbitals:
        raise ValueError("bra and ket live in different Fock spaces")
    total = 0.0 + 0.0j
    for coeff, string in terms:
        for det, amp in ket.amplitudes.items():
            sign, new = apply_ladder_string(string, det, ket.n_spin_orbitals)
            if sign and new in bra.amplitudes:
                total += coeff * sign * np.conj(bra.amplitudes[new]) * amp
    return complex(total)


@dataclass(frozen=True)
class StringTable:
    """Single excitations E_pq = a+_p a_q over the strings (occupation
    bitmasks over spatial orbitals) with a fixed electron count.

    ``strings`` is ascending.  Row I of ``target``, ``sign`` and ``pair``
    lists every (p, q) with q occupied in string I and p empty or equal to
    q: E_pq |I> = sign |target>, with ``pair`` = p * n + q.
    """

    strings: tuple[int, ...]
    occupation: np.ndarray  # (N, n) 0/1
    target: np.ndarray  # (N, m)
    sign: np.ndarray  # (N, m)
    pair: np.ndarray  # (N, m)


@lru_cache(maxsize=None)
def string_table(n_orbitals: int, n_electrons: int) -> StringTable:
    strings = sorted(
        sum(1 << p for p in occ) for occ in combinations(range(n_orbitals), n_electrons)
    )
    index = {s: k for k, s in enumerate(strings)}
    target, sign, pair = [], [], []
    for s in strings:
        for q in range(n_orbitals):
            if not s >> q & 1:
                continue
            hole = s & ~(1 << q)
            for p in range(n_orbitals):
                if not hole >> p & 1:
                    target.append(index[hole | 1 << p])
                    sign.append(_parity_below(s, q) * _parity_below(hole, p))
                    pair.append(p * n_orbitals + q)
    shape = (len(strings), n_electrons * (n_orbitals - n_electrons + 1))
    return StringTable(
        tuple(strings),
        np.array([[s >> p & 1 for p in range(n_orbitals)] for s in strings]).reshape(
            len(strings), n_orbitals
        ),
        np.array(target, dtype=np.intp).reshape(shape),
        np.array(sign, dtype=float).reshape(shape),
        np.array(pair, dtype=np.intp).reshape(shape),
    )


def _spread(string: int) -> int:
    """Alpha string -> the bits of its spin orbitals 2p."""
    return sum(1 << 2 * p for p in range(string.bit_length()) if string >> p & 1)


class HamiltonianAction:
    """The integrals in the form the string-factored blocks use."""

    def __init__(self, mol: MolecularIntegrals):
        n = mol.n_spatial
        self.n_spatial = n
        self.n_spin = mol.n_spin
        self.constant = mol.constant
        self.g = mol.eri.reshape(n * n, n * n)  # (pq|rs) at [p * n + q, r * n + s]
        self.k = (mol.h1 - 0.5 * np.einsum("prrq->pq", mol.eri)).reshape(-1)

    def blocks(self, n_electrons: int, sz=None) -> list["SectorBlock"]:
        """The (n_alpha, n_beta) blocks of the sector, n_alpha ascending."""
        n = self.n_spatial
        if sz is None:
            counts = range(n_electrons + 1)
        else:
            counts = [(n_electrons + sz) // 2] if (n_electrons + sz) % 2 == 0 else []
        return [
            SectorBlock(self, a, n_electrons - a)
            for a in counts
            if 0 <= a <= n and 0 <= n_electrons - a <= n
        ]

    def same_spin(self, t: StringTable) -> np.ndarray:
        """K = sum k_pq E_pq + 1/2 sum (pq|rs) E_pq E_rs over one string set,
        as the dense matrix K[J, I] = <J|K|I>."""
        size = len(t.strings)
        source = np.arange(size)[:, None]
        mid = t.target  # E_rs |I> = s1 |M>, then E_pq |M> = s2 |J>
        g_pq_rs = self.g[t.pair[mid], t.pair[:, :, None]]
        two_body = 0.5 * t.sign[:, :, None] * t.sign[mid] * g_pq_rs
        flat = np.concatenate(
            [(t.target * size + source).ravel(), (t.target[mid] * size + source[:, :, None]).ravel()]
        )
        values = np.concatenate([(t.sign * self.k[t.pair]).ravel(), two_body.ravel()])
        k = np.bincount(flat, values, minlength=size * size)
        return k.reshape(size, size).astype(float, copy=False)  # int when there are no entries


class SectorBlock:
    """One (n_alpha, n_beta) block, alpha-major: the product state
    |I_a I_b> has flat index I_a * N_b + I_b.

    The opposite-spin term uses (pq|rs) = (rs|pq) = (qp|rs), the symmetry
    of integrals over real orbitals.
    """

    def __init__(self, action: HamiltonianAction, n_alpha: int, n_beta: int):
        n = action.n_spatial
        self.action = action
        self.alpha = string_table(n, n_alpha)
        self.beta = string_table(n, n_beta)
        self.shape = (len(self.alpha.strings), len(self.beta.strings))
        self.size = self.shape[0] * self.shape[1]
        self.k_alpha = action.same_spin(self.alpha)
        self.k_beta = self.k_alpha if n_beta == n_alpha else action.same_spin(self.beta)

    def determinants(self) -> list[int]:
        """Interleaved bitmasks, in block order."""
        spread_b = [_spread(s) << 1 for s in self.beta.strings]
        return [_spread(a) | b for a in self.alpha.strings for b in spread_b]

    def phase(self) -> np.ndarray:
        """|interleaved det> = phase * |I_a I_b>: (-1) per beta orbital
        below each occupied alpha orbital."""
        n = self.action.n_spatial
        below = self.alpha.occupation @ np.tri(n, n, -1, dtype=int) @ self.beta.occupation.T
        return (1 - 2 * (below % 2)).ravel()

    def matrix(self) -> np.ndarray:
        """Dense H over the block, in block order."""
        a, b = self.alpha, self.beta
        n_a, n_b = self.shape
        rows = a.target[:, :, None, None] * n_b + b.target[None, None]
        cols = np.arange(n_a)[:, None, None, None] * n_b + np.arange(n_b)[None, None, :, None]
        values = (
            a.sign[:, :, None, None]
            * b.sign[None, None]
            * self.action.g[a.pair[:, :, None, None], b.pair[None, None]]
        )
        h = np.bincount(
            (rows * self.size + cols).ravel(), values.ravel(), minlength=self.size**2
        ).reshape(self.size, self.size).astype(float, copy=False)
        h += np.kron(self.k_alpha, np.eye(n_b)) + np.kron(np.eye(n_a), self.k_beta)
        h[np.diag_indices(self.size)] += self.action.constant
        return h

    @cached_property
    def _g_alpha(self) -> np.ndarray:
        """[J_a, rs, k] = sign * (pq|rs) for entry k = (pq, I_a) of row J_a."""
        a = self.alpha
        return np.ascontiguousarray(
            (a.sign[:, :, None] * self.action.g[a.pair]).transpose(0, 2, 1)
        )

    def sigma(self, c: np.ndarray) -> np.ndarray:
        """(H C)[J_a, J_b] for the CI matrix C[I_a, I_b].

        Row J of a table also lists the sources of J: E_pq |I> = s |J>
        whenever E_qp |J> = s |I>.  The opposite-spin term goes one alpha
        string J_a at a time, through an (rs, I_b) intermediate.
        """
        a, b = self.alpha, self.beta
        out = self.k_alpha @ c + c @ self.k_beta.T + self.action.constant * c
        for j, g_j in enumerate(self._g_alpha):
            y = g_j @ c[a.target[j]]
            out[j] += np.einsum("bk,bk->b", y[b.pair, b.target], b.sign)
        return out


def build_hamiltonian_action(mol: MolecularIntegrals) -> HamiltonianAction:
    return HamiltonianAction(mol)


def _solve_block(block: SectorBlock) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, ground-state vector in block order): every eigenvalue
    from ``eigh`` up to ``DENSE_LIMIT`` determinants, the lowest one from
    Lanczos above."""
    if block.size <= DENSE_LIMIT:
        evals, evecs = np.linalg.eigh(block.matrix())
        return evals, evecs[:, 0]
    op = scipy.sparse.linalg.LinearOperator(
        (block.size, block.size),
        matvec=lambda x: block.sigma(x.reshape(block.shape)).ravel(),
        dtype=float,
    )
    v0 = np.random.default_rng(0).standard_normal(block.size)
    evals, evecs = scipy.sparse.linalg.eigsh(op, k=1, which="SA", tol=1e-12, v0=v0)
    return evals, evecs[:, 0]


def ground_state(
    action: HamiltonianAction, n_electrons: int, sz=None
) -> tuple[float, Wavefunction]:
    """Lowest eigenpair of the (n_electrons, sz) sector.

    Each (n_alpha, n_beta) block is solved on its own (``sz=None`` solves
    them all and keeps the lowest): dense ``eigh`` of the string-built
    matrix up to ``DENSE_LIMIT`` determinants, Lanczos (``eigsh``) over the
    sigma-build above, started from a fixed-seed vector so that repeated
    solves are bit-identical.  A gap under 1e-10 between the two lowest
    eigenvalues found over all blocks is warned about.  The eigenvector is
    returned over the interleaved determinants, ascending, with its
    largest-magnitude amplitude real positive.
    """
    blocks = action.blocks(n_electrons, sz)
    if not blocks:
        raise ValueError("empty determinant sector")
    solutions = [_solve_block(block) for block in blocks]
    lowest = np.sort(np.concatenate([evals for evals, _ in solutions]))
    if len(lowest) > 1 and lowest[1] - lowest[0] < 1e-10:
        warnings.warn(
            f"ground state nearly degenerate (gap {lowest[1]-lowest[0]:.2e})",
            stacklevel=2,
        )
    best = min(range(len(blocks)), key=lambda i: solutions[i][0][0])
    block, (evals, vec) = blocks[best], solutions[best]
    dets = block.determinants()
    order = sorted(range(block.size), key=dets.__getitem__)
    vec = (block.phase() * vec)[order]
    pivot = int(np.argmax(np.abs(vec)))
    vec = vec * (np.sign(vec[pivot]) or 1.0)
    wfn = Wavefunction(
        {dets[i]: float(v) for i, v in zip(order, vec) if v != 0.0},
        action.n_spin,
        n_electrons,
    )
    return float(evals[0]), wfn
