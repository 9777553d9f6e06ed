"""Exact diagonalization of one (n_alpha, n_beta) block of strings.

The solver works on the one block that the electron count and 2 S_z
name, and factors it into alpha and beta strings (Knowles & Handy, CPL
111, 315 (1984); Olsen et al., JCP 89, 2185 (1988)).  A string is an
occupation bitmask over spatial orbitals; spatial orbital p holds spin
orbitals 2p (alpha) and 2p+1 (beta).  The block's product states are
|I_a I_b> = A(I_a) B(I_b) |0>, where A(I) = a+_{2p1} a+_{2p2} ... and
B(I) = a+_{2p1+1} a+_{2p2+1} ... create the string's orbitals
p1 < p2 < ... in ascending order.  With E^s_pq = a+_{ps} a_{qs},

    H = K^a (x) 1 + 1 (x) K^b + sum_pqrs (pq|rs) E^a_pq (x) E^b_rs + const,
    K^s = sum_pq k_pq E^s_pq + 1/2 sum_pqrs (pq|rs) E^s_pq E^s_rs,
    k_pq = h_pq - 1/2 sum_r (pr|rq),

and every E^s_pq matrix element is read from a per-spin excitation table
(:func:`string_table`).  Blocks up to ``DENSE_LIMIT`` determinants are
built densely and solved with ``eigh``.  For larger ones only the lowest
eigenpair is found, by Davidson's method (J. Comput. Phys. 17, 87
(1975); :func:`lowest_eigenpair`) over the sigma-build
C[I_a, I_b] -> (HC)[J_a, J_b], preconditioned by the block's diagonal,
from a fixed start subspace.  The ground state is handed over in that
one form, its CI matrix over the string tables (:class:`CiState`).  The
sigma-build's opposite-spin term runs as one batched ``matmul`` per chunk
of alpha strings, each chunk sized so that its intermediates stay within
one byte budget (``_SIGMA_BYTES``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations

import numpy as np

from .exceptions import ConvergenceError
from .integrals import MolecularIntegrals

# Blocks up to this size are solved densely.  Whole ground-state solves,
# dense against Davidson (warm medians on 2 cores, H4 chain integrals cut
# to the first n orbitals): 0.95 against 1.56 ms at 100 determinants, 1.4
# against 1.7 at 121 and 1.8 against 1.8 at 144 (2 electrons, cc-pVDZ),
# 2.6 against 1.9 at 169, 4.2 against 2.6 at 225 and 6.1 against 2.6 at
# 256; 5.0 against 1.5 at 225 (4 electrons, 6-31G), 19 against 2.0 at
# 441 and 66 against 3.1 at 784.
DENSE_LIMIT = 144
# Davidson: converged when |H x - theta x| is below the tolerance.
_DAVIDSON_TOL = 1e-10
_DAVIDSON_MAX_ITER = 200
# Bytes of the sigma-build's per-chunk intermediates (SectorBlock.sigma).
_SIGMA_BYTES = 2 << 20


def _parity_below(det: int, index: int) -> int:
    """(-1)^(number of occupied spin orbitals below index)."""
    return -1 if bin(det & ((1 << index) - 1)).count("1") % 2 else 1


@dataclass(frozen=True, eq=False)
class CiState:
    """A state of one (n_alpha, n_beta) block as its CI matrix:
    sum_{I_a, I_b} c[I_a, I_b] A(I_a) B(I_b) |0>, with rows over the
    strings of ``string_table(n_spatial, n_alpha)`` and columns over
    those of ``string_table(n_spatial, n_beta)``."""

    c: np.ndarray
    n_spatial: int
    n_alpha: int
    n_beta: int


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


@lru_cache(maxsize=None)
def annihilation_table(n_orbitals: int, n_electrons: int, k: int):
    """k-fold annihilations over the strings of ``string_table(n_orbitals,
    n_electrons)``: arrays (target, sign, subset), each of shape
    (number of strings, C(n_electrons, k)).  Entry [I, x] is the x-th
    ascending k-subset p1 < ... < pk of the orbitals occupied in string
    I: a_{p1} ... a_{pk} |I> = sign |target>, with ``target`` indexed in
    ``string_table(n_orbitals, n_electrons - k)`` and ``subset`` the
    index of (p1, ..., pk) in ``combinations(range(n_orbitals), k)``."""
    strings = string_table(n_orbitals, n_electrons).strings
    index = {s: j for j, s in enumerate(string_table(n_orbitals, n_electrons - k).strings)}
    packed = {p: j for j, p in enumerate(combinations(range(n_orbitals), k))}
    target, sign, subset = [], [], []
    for s in strings:
        for p in combinations([q for q in range(n_orbitals) if s >> q & 1], k):
            target.append(index[s - sum(1 << q for q in p)])
            # a_pk acts first, and each later a_q acts below the removed orbitals
            sign.append(math.prod(_parity_below(s, q) for q in p))
            subset.append(packed[p])
    shape = (len(strings), math.comb(n_electrons, k))
    return (
        np.array(target, dtype=np.intp).reshape(shape),
        np.array(sign, dtype=float).reshape(shape),
        np.array(subset, dtype=np.intp).reshape(shape),
    )


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
        whenever E_qp |J> = s |I>.  The opposite-spin term goes over chunks
        of alpha strings J_a: one batched ``matmul`` forms the (J_a, rs,
        I_b) intermediate of a chunk, one flat ``take`` reads it at the
        beta table and one ``einsum`` sums it into the chunk's rows.  A
        chunk holds as many strings as keep that intermediate and its two
        gathers within ``_SIGMA_BYTES`` (at least one string), so every
        row sees the same operations whatever the chunk size.
        """
        a, b = self.alpha, self.beta
        n_a, n_b = self.shape
        out = self.k_alpha @ c + c @ self.k_beta.T + self.action.constant * c
        per_string = np.result_type(c, float).itemsize * n_b * (
            self.action.g.shape[0] + a.target.shape[1] + b.target.shape[1]
        )
        step = max(1, _SIGMA_BYTES // per_string)
        flat = b.pair * n_b + b.target  # (rs, I_b) of each beta table entry
        for j in range(0, n_a, step):
            y = np.matmul(self._g_alpha[j : j + step], c[a.target[j : j + step]])
            y = y.reshape(len(y), -1).take(flat, axis=1)  # frees the (J_a, rs, I_b) product
            out[j : j + step] += np.einsum("jbk,bk->jb", y, b.sign)
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
) -> tuple[float, CiState]:
    """Lowest eigenpair (energy, state) of the (n_electrons, sz) sector,
    sz = 2 S_z.

    The sector is the one (n_alpha, n_beta) block that sz names; an odd or
    out-of-range sector raises ``ValueError``.  It is solved by dense
    ``eigh`` of the string-built matrix up to ``DENSE_LIMIT`` determinants,
    and above that by :func:`lowest_eigenpair` over the sigma-build, which
    is bit-identical on repeated solves and raises ``ConvergenceError`` if
    it does not converge.  A gap under 1e-10 between a dense block's two
    lowest eigenvalues is warned about; a block above ``DENSE_LIMIT`` has
    only its lowest eigenvalue computed and is not gap-checked.  The state
    is the block's :class:`CiState`, its real CI matrix signed so that its
    largest-magnitude entry is positive.  Where that magnitude is shared
    by entries of opposite sign, as in the antisymmetric C of a triplet,
    rounding picks the entry, so the sign is fixed only up to it.
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
    vec = vec * (np.sign(vec[np.argmax(np.abs(vec))]) or 1.0)
    return energy, CiState(vec.reshape(block.shape), action.n_spatial, n_alpha, n_beta)
