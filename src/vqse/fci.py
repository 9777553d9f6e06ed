"""Exact diagonalization over spin-orbital determinants.

Determinants are integer bitmasks (bit i set means spin orbital i is
occupied) with the reference ordering |det> = a+_{i1} a+_{i2} ... |0>,
i1 < i2 < ...; spatial orbital p holds spin orbitals 2p (alpha) and 2p+1
(beta).

The solver works on the one (n_alpha, n_beta) block that the electron
count and 2 S_z name, and factors it into alpha and beta strings (Knowles
& Handy, CPL 111, 315 (1984); Olsen et al., JCP 89, 2185 (1988)).  A
string is an occupation bitmask over spatial orbitals, and the
block's product states are |I_a I_b> = A(I_a) B(I_b) |0>.  With
E^s_pq = a+_{ps} a_{qs},

    H = K^a (x) 1 + 1 (x) K^b + sum_pqrs (pq|rs) E^a_pq (x) E^b_rs + const,
    K^s = sum_pq k_pq E^s_pq + 1/2 sum_pqrs (pq|rs) E^s_pq E^s_rs,
    k_pq = h_pq - 1/2 sum_r (pr|rq),

and every E^s_pq matrix element is read from a per-spin excitation table
(:func:`string_table`).  Blocks up to ``DENSE_LIMIT`` determinants are
built densely and solved with ``eigh``.  For larger ones only the lowest
eigenpair is found, by Davidson's method (J. Comput. Phys. 17, 87
(1975); :func:`lowest_eigenpair`) over the sigma-build
C[I_a, I_b] -> (HC)[J_a, J_b], preconditioned by the block's diagonal,
from a fixed start subspace.  The interleaved determinant equals the
product state times a reorder phase, applied once to the eigenvector.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations

import numpy as np

from .exceptions import ConvergenceError
from .integrals import MolecularIntegrals

# Blocks up to this size are solved densely.  Whole ground-state solves,
# dense against Davidson (warm medians on 2 cores, H4 chain integrals cut
# to the first n orbitals): 1.8 against 3.7 ms at 100 determinants, 6.4
# against 5.5 at 225 (4 electrons), 9.1 against 9.0 at 256 (2 electrons),
# 29 against 8.3 at 441 and 96 against 13 at 784.
DENSE_LIMIT = 256
# Davidson: converged when |H x - theta x| is below the tolerance.
_DAVIDSON_TOL = 1e-10
_DAVIDSON_MAX_ITER = 200


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


@dataclass
class Wavefunction:
    """Sparse determinant -> amplitude map over a fixed particle sector."""

    amplitudes: dict
    n_spin_orbitals: int
    n_electrons: int


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

    def determinants(self) -> np.ndarray:
        """Interleaved bitmasks, in block order: int64 up to 63 spin
        orbitals, Python ints beyond."""
        dtype = np.int64 if self.action.n_spin < 64 else object
        alpha = np.array([_spread(s) for s in self.alpha.strings], dtype=dtype)
        beta = np.array([_spread(s) << 1 for s in self.beta.strings], dtype=dtype)
        return (alpha[:, None] | beta[None, :]).ravel()

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
        h.reshape(n_a, n_b, n_a, n_b)[...] += (
            self.k_alpha[:, None, :, None] * np.eye(n_b)[None, :, None, :]
            + np.eye(n_a)[:, None, :, None] * self.k_beta[None, :, None, :]
        )
        h[np.diag_indices(self.size)] += self.action.constant
        return h

    def diagonal(self) -> np.ndarray:
        """The diagonal of H as a CI matrix [I_a, I_b]: the same-spin
        diagonals plus sum_pr (pp|rr) n^a_p n^b_r."""
        n = self.action.n_spatial
        coulomb = self.action.g[:: n + 1, :: n + 1]  # (pp|rr)
        return (
            np.add.outer(np.diag(self.k_alpha), np.diag(self.k_beta))
            + self.alpha.occupation @ coulomb @ self.beta.occupation.T
            + self.action.constant
        )

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


def lowest_eigenpair(matvec, diagonal: np.ndarray) -> tuple[float, np.ndarray]:
    """Lowest eigenpair (theta, x) of a Hermitian matrix, given its action
    ``matvec`` on a vector and its ``diagonal``, by Davidson's method with
    the diagonal preconditioner (D - theta)^-1.

    The start subspace holds the unit vector at the lowest diagonal entry
    and the fixed vector sin(1), sin(2), ..., sin(n).  A unit vector alone
    can miss the ground state: on an FCI block H and D both commute with
    the alpha <-> beta flip, so from one closed-shell determinant every
    iterate would keep its flip parity; the sine vector has both.  It is
    not drawn from a generator, so solves are bit-identical.  Converged at
    |A x - theta x| < ``_DAVIDSON_TOL`` or once the subspace spans all n
    dimensions.  The subspace grows by one vector per iteration;
    ``ConvergenceError`` is raised after ``_DAVIDSON_MAX_ITER`` iterations.
    """
    n = diagonal.size
    start = np.zeros((n, 2))
    start[np.argmin(diagonal), 0] = 1.0
    start[:, 1] = np.sin(np.arange(1, n + 1))
    basis = np.linalg.qr(start)[0].T
    images = np.array([matvec(v) for v in basis])
    for _ in range(_DAVIDSON_MAX_ITER):
        theta, y = np.linalg.eigh(basis.conj() @ images.T)
        x, ax = y[:, 0] @ basis, y[:, 0] @ images
        residual = ax - theta[0] * x
        if len(basis) == n or np.linalg.norm(residual) < _DAVIDSON_TOL:
            return float(theta[0]), x
        shift = diagonal - theta[0]
        t = residual / np.where(np.abs(shift) > 1e-8, shift, 1e-8)
        for _ in range(2):
            t -= (basis.conj() @ t) @ basis
        t /= np.linalg.norm(t)
        basis, images = np.vstack([basis, t]), np.vstack([images, matvec(t)])
    raise ConvergenceError(
        f"Davidson did not converge in {_DAVIDSON_MAX_ITER} iterations",
        last_energy=float(theta[0]),
    )


def ground_state(
    action: HamiltonianAction, n_electrons: int, sz: int
) -> tuple[float, Wavefunction]:
    """Lowest eigenpair of the (n_electrons, sz) sector, sz = 2 S_z.

    The sector is the one (n_alpha, n_beta) block that sz names; an odd or
    out-of-range sector raises ``ValueError``.  It is solved by dense
    ``eigh`` of the string-built matrix up to ``DENSE_LIMIT`` determinants,
    and above that by :func:`lowest_eigenpair` over the sigma-build, which
    is bit-identical on repeated solves and raises ``ConvergenceError`` if
    it does not converge.  A gap under 1e-10 between a dense block's two
    lowest eigenvalues is warned about; a block above ``DENSE_LIMIT`` has
    only its lowest eigenvalue computed and is not gap-checked.  The
    eigenvector is returned over the interleaved determinants, ascending,
    with its largest-magnitude amplitude real positive.
    """
    n_alpha, odd = divmod(n_electrons + sz, 2)
    n_beta = n_electrons - n_alpha
    if odd or not (0 <= n_alpha <= action.n_spatial and 0 <= n_beta <= action.n_spatial):
        raise ValueError(f"empty determinant sector: {n_electrons} electrons, 2 S_z = {sz}")
    block = SectorBlock(action, n_alpha, n_beta)
    if block.size <= DENSE_LIMIT:
        evals, evecs = np.linalg.eigh(block.matrix())
        energy, vec = float(evals[0]), evecs[:, 0]
        if len(evals) > 1 and evals[1] - evals[0] < 1e-10:
            warnings.warn(
                f"ground state nearly degenerate (gap {evals[1]-evals[0]:.2e})",
                stacklevel=2,
            )
    else:
        energy, vec = lowest_eigenpair(
            lambda v: block.sigma(v.reshape(block.shape)).ravel(), block.diagonal().ravel()
        )
    dets = block.determinants()
    # the dets are distinct, so every sort gives one order; the default
    # quicksort would page 0.2-0.4 MB more of numpy's code into the RSS
    order = np.argsort(dets, kind="stable")
    dets, vec = dets[order], (block.phase() * vec)[order]
    pivot = int(np.argmax(np.abs(vec)))
    vec = vec * (np.sign(vec[pivot]) or 1.0)
    nonzero = vec != 0.0
    wfn = Wavefunction(
        dict(zip(dets[nonzero].tolist(), vec[nonzero].tolist())), action.n_spin, n_electrons
    )
    return energy, wfn
