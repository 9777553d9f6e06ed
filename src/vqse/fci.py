"""Exact diagonalization over spin-orbital determinants.

Determinants are integer bitmasks (bit i set means spin orbital i is
occupied) with the reference ordering |det> = a+_{i1} a+_{i2} ... |0>,
i1 < i2 < ...  This module also provides the brute-force full-Fock-space
expectation used as the oracle by the RDM and Wick modules.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
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

    def norm(self) -> float:
        return float(np.sqrt(sum(abs(a) ** 2 for a in self.amplitudes.values())))

    def normalized(self) -> "Wavefunction":
        n = self.norm()
        if n == 0:
            raise ValueError("cannot normalize the zero vector")
        return Wavefunction(
            {d: a / n for d, a in self.amplitudes.items()},
            self.n_spin_orbitals,
            self.n_electrons,
        )

    def overlap(self, other: "Wavefunction") -> complex:
        small, big = self.amplitudes, other.amplitudes
        return sum(np.conj(small[d]) * big[d] for d in small.keys() & big.keys())


def sector_determinants(n_spin_orbitals: int, n_electrons: int, sz=None) -> list[int]:
    """All determinants of the sector, sorted ascending by bitmask value.

    ``sz`` is the spin projection in units of 1/2 electrons counted as
    (n_alpha - n_beta); alpha spin orbitals are the even indices.
    """
    dets = []
    for occ in combinations(range(n_spin_orbitals), n_electrons):
        if sz is not None:
            n_alpha = sum(1 for i in occ if i % 2 == 0)
            if n_alpha - (n_electrons - n_alpha) != sz:
                continue
        det = 0
        for i in occ:
            det |= 1 << i
        dets.append(det)
    dets.sort()
    return dets


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


class HamiltonianAction:
    """Matrix-free H|psi> plus dense sector matrices via Slater-Condon."""

    def __init__(self, mol: MolecularIntegrals):
        self.mol = mol
        self.n_spin = mol.n_spin
        self.h1s = mol.h1_spin()
        self.vas = mol.eri_phys_antisym()  # <ij||kl>
        self.constant = mol.constant

    def hamiltonian_terms(self):
        """Explicit (coefficient, ladder string) list; the slow oracle form."""
        terms = [(self.constant, [])]
        h2 = self.mol.h2_spin()
        n = self.n_spin
        for i in range(n):
            for j in range(n):
                if self.h1s[i, j] != 0.0:
                    terms.append((self.h1s[i, j], [(i, True), (j, False)]))
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for l in range(n):
                        if h2[i, j, k, l] != 0.0:
                            terms.append(
                                (0.5 * h2[i, j, k, l], [(i, True), (j, True), (k, False), (l, False)])
                            )
        return terms

    # -- Slater-Condon rules ------------------------------------------------
    def diagonal(self, det: int) -> float:
        occ = [i for i in range(self.n_spin) if det >> i & 1]
        val = self.constant + sum(self.h1s[p, p] for p in occ)
        for a, p in enumerate(occ):
            for q in occ[a + 1 :]:
                val += self.vas[p, q, p, q]
        return float(val)

    def element(self, det_i: int, det_j: int) -> float:
        """<det_i|H|det_j>."""
        diff = det_i ^ det_j
        ndiff = bin(diff).count("1")
        if ndiff == 0:
            return self.diagonal(det_i)
        if ndiff == 2:
            p = (diff & det_j).bit_length() - 1  # occupied in j, hole in i
            q = (diff & det_i).bit_length() - 1
            sign = _parity_below(det_j, p) * _parity_below(det_j & ~(1 << p), q)
            occ = [m for m in range(self.n_spin) if det_j >> m & 1 and m != p]
            val = self.h1s[q, p] + sum(self.vas[q, m, p, m] for m in occ)
            return float(sign * val)
        if ndiff == 4:
            holes = [i for i in range(self.n_spin) if det_j >> i & 1 and diff >> i & 1]
            parts = [i for i in range(self.n_spin) if det_i >> i & 1 and diff >> i & 1]
            p, q = holes  # p < q
            r, s = parts  # r < s
            d = det_j
            sign = _parity_below(d, q)
            d &= ~(1 << q)
            sign *= _parity_below(d, p)
            d &= ~(1 << p)
            sign *= _parity_below(d, r)
            d |= 1 << r
            sign *= _parity_below(d, s)
            return float(sign * self.vas[r, s, p, q])
        return 0.0

    def dense_matrix(self, dets) -> np.ndarray:
        n = len(dets)
        h = np.zeros((n, n))
        for a in range(n):
            for b in range(a, n):
                h[a, b] = h[b, a] = self.element(dets[a], dets[b])
        return h

    def apply(self, wfn: Wavefunction) -> Wavefunction:
        """H|psi> over connected determinants (matrix-free)."""
        out: dict = {}
        n = self.n_spin
        for det, amp in wfn.amplitudes.items():
            occ = [i for i in range(n) if det >> i & 1]
            unocc = [i for i in range(n) if not det >> i & 1]
            out[det] = out.get(det, 0.0) + self.diagonal(det) * amp
            # singles
            for p in occ:
                for r in unocc:
                    new = det & ~(1 << p) | (1 << r)
                    val = self.element(new, det)
                    if val != 0.0:
                        out[new] = out.get(new, 0.0) + val * amp
            # doubles
            for ip, p in enumerate(occ):
                for q in occ[ip + 1 :]:
                    for ir, r in enumerate(unocc):
                        for s in unocc[ir + 1 :]:
                            new = det & ~(1 << p) & ~(1 << q) | (1 << r) | (1 << s)
                            val = self.element(new, det)
                            if val != 0.0:
                                out[new] = out.get(new, 0.0) + val * amp
        return Wavefunction(out, wfn.n_spin_orbitals, wfn.n_electrons)


def build_hamiltonian_action(mol: MolecularIntegrals) -> HamiltonianAction:
    return HamiltonianAction(mol)


def ground_state(
    action: HamiltonianAction, n_electrons: int, sz=None
) -> tuple[float, Wavefunction]:
    """Lowest eigenpair of the (n_electrons, sz) sector.

    Dense diagonalization up to sector dimension 2000, iterative
    (Lanczos) above. The eigenvector phase is fixed by making the
    largest-magnitude amplitude real positive.
    """
    dets = sector_determinants(action.n_spin, n_electrons, sz)
    if not dets:
        raise ValueError("empty determinant sector")
    if len(dets) == 1:
        vec = np.array([1.0])
        energy = action.diagonal(dets[0])
    elif len(dets) <= DENSE_LIMIT:
        h = action.dense_matrix(dets)
        evals, evecs = np.linalg.eigh(h)
        energy, vec = float(evals[0]), evecs[:, 0]
        if len(evals) > 1 and evals[1] - evals[0] < 1e-10:
            warnings.warn(
                f"ground state nearly degenerate (gap {evals[1]-evals[0]:.2e})",
                stacklevel=2,
            )
    else:
        index = {d: a for a, d in enumerate(dets)}

        def matvec(x):
            wfn = Wavefunction(
                {d: x[a] for d, a in index.items() if x[a] != 0.0},
                action.n_spin,
                n_electrons,
            )
            hx = action.apply(wfn)
            out = np.zeros_like(x)
            for d, v in hx.amplitudes.items():
                out[index[d]] += v
            return out

        op = scipy.sparse.linalg.LinearOperator(
            (len(dets), len(dets)), matvec=matvec, dtype=float
        )
        evals, evecs = scipy.sparse.linalg.eigsh(op, k=1, which="SA", tol=1e-12)
        energy, vec = float(evals[0]), evecs[:, 0]
    pivot = int(np.argmax(np.abs(vec)))
    vec = vec * (np.sign(vec[pivot]) or 1.0)
    wfn = Wavefunction(
        {d: float(v) for d, v in zip(dets, vec) if v != 0.0},
        action.n_spin,
        n_electrons,
    )
    return energy, wfn
