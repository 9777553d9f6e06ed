"""Gaussian integrals over s and p shells (McMurchie-Davidson scheme).

All quantities are in atomic units. Two-electron integrals are returned in
chemist notation (pq|rs) with the full 8-fold permutational symmetry.

Every integral is evaluated over arrays of primitive pairs, not one
primitive at a time (McMurchie & Davidson, J. Comput. Phys. 26, 218
(1978)). ``_pair_table`` lists the primitive pairs of all AO pairs i >= j
once per call, with their Gaussian-product data and Hermite products E_tuv,
grouped by pair degree d = l_a + l_b: a pair of degree d needs only
t + u + v <= d, so s and p shells need at most 2. The overlap and kinetic
energy come from the 1D Hermite tables. The nuclear attraction and the ERIs
share one batched Hermite-Coulomb recursion, ``_hermite_coulomb``, run only
to the degree each class of pairs (V) or quartets (ERIs, d_bra + d_ket)
reads; an (ss|ss) quartet reads R_000 = F_0 alone. The ERIs run over blocks
of primitive quartets sized to a fixed byte budget, are summed into the
canonical AO pair x pair matrix, and one gather unpacks that matrix to
(pq|rs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..exceptions import VqseError
from .basis import BasisSet, Geometry

# Boys function: Taylor steps from a table below this argument, erf and
# upward recursion above it.
_SERIES_LIMIT = 25.0
_ERF_IS_ONE = 5.921587195794507  # math.erf(y) == 1.0 exactly from here on (checked to y = 50)
# Bytes of temporaries per ERI block, whatever the basis size and degree.
_BLOCK_BYTES = 2 << 20

# Hermite components (t, u, v), ordered by degree t + u + v. The first 10
# (degree <= 2) index the pair products E_tuv; all 35 (degree <= 4) index
# the ERI Hermite-Coulomb integrals R_tuv.
_TUV = [
    (t, u, degree - t - u)
    for degree in range(5)
    for t in range(degree, -1, -1)
    for u in range(degree - t, -1, -1)
]
_TUV_INDEX = {tuv: k for k, tuv in enumerate(_TUV)}
_N_TUV = [(d + 1) * (d + 2) * (d + 3) // 6 for d in range(5)]  # degree <= d
_N_PAIR_TUV = _N_TUV[2]
_PAIR_TUV = np.array(_TUV[:_N_PAIR_TUV]).T  # (3, 10)
_KET_SIGN = (-1.0) ** _PAIR_TUV.sum(axis=0)


def _recursion_step(tuv):
    """How R^n_tuv comes from level n + 1: step down the first nonzero
    index d, R^n = X_d R^{n+1}[tuv - e_d] + (tuv_d - 1) R^{n+1}[tuv - 2 e_d]."""
    d = next(k for k in range(3) if tuv[k])
    one = list(tuv)
    one[d] -= 1
    two = list(one)
    two[d] = max(two[d] - 1, 0)  # unused (weight 0) when tuv_d = 1
    return d, _TUV_INDEX[tuple(one)], one[d], _TUV_INDEX[tuple(two)]


_STEP_DIM, _STEP_ONE, _STEP_WEIGHT, _STEP_TWO = (
    np.array(column) for column in zip(*map(_recursion_step, _TUV[1:]))
)
_STEP_WEIGHT = _STEP_WEIGHT[:, None].astype(float)


def _shift_table() -> np.ndarray:
    """S[i, j, m] = 1 where pair component i plus pair component j is
    component m, so sum_i E[b, i] S[i, j, m] is E[b] at component m - j."""
    table = np.zeros((_N_PAIR_TUV, _N_PAIR_TUV, _N_TUV[4]))
    for i, a in enumerate(_TUV[:_N_PAIR_TUV]):
        for j, b in enumerate(_TUV[:_N_PAIR_TUV]):
            table[i, j, _TUV_INDEX[tuple(x + y for x, y in zip(a, b))]] = 1.0
    return table


_SHIFT = _shift_table()


def _boys_series(mmax: int, x: np.ndarray) -> np.ndarray:
    """F_0(x) .. F_mmax(x) for an array of 0 <= x <= _SERIES_LIMIT, shape
    (mmax + 1, x.size): Kummer series at the highest order, then downward
    recursion (stable in that direction). The series runs until the term
    of the largest x is below 1e-17 of its sum; the relative size of a term
    grows with x, so every smaller x has converged too. It fills the Taylor
    table once."""
    ex = np.exp(-x)
    top = int(np.argmax(x))
    term = np.full(x.size, 1.0 / (2 * mmax + 1))
    acc = term.copy()
    k = 0
    while True:
        k += 1
        term *= x / (mmax + k + 0.5)
        acc += term
        if term[top] < 1e-17 * acc[top]:
            break
    rows = np.empty((mmax + 1, x.size))
    rows[mmax] = ex * acc
    for m in range(mmax - 1, -1, -1):
        rows[m] = (2.0 * x * rows[m + 1] + ex) / (2 * m + 1)
    return rows


# F_m(x_i) on x_i = i / _TABLE_DENSITY up to _SERIES_LIMIT, for every order
# the Taylor steps of an F_mmax with mmax <= _TABLE_MAX_ORDER read.
_TABLE_DENSITY = 16
_TAYLOR_TERMS = 9
_TABLE_MAX_ORDER = 8
_BOYS_TABLE = _boys_series(
    _TABLE_MAX_ORDER + _TAYLOR_TERMS - 1,
    np.arange(int(_SERIES_LIMIT) * _TABLE_DENSITY + 1) / _TABLE_DENSITY,
)


def _boys_rows(mmax: int, x: np.ndarray) -> np.ndarray:
    """F_0(x) .. F_mmax(x) for an array of x >= 0, shape (mmax + 1, x.size).

    Small x (Helgaker, Jorgensen & Olsen, Molecular Electronic-Structure
    Theory, sec. 9.8): F_mmax(x) = sum_k F_mmax+k(x_i) (x_i - x)^k / k!
    over _TAYLOR_TERMS terms at the nearest x_i of the table (|x_i - x| <=
    1/32), then downward recursion. These rows are computed for every x,
    at x clamped to _SERIES_LIMIT, and overwritten where x is large. Large
    x: F_0 from math.erf, then upward recursion, which is stable once
    x > m + 1/2; math.erf is called only where it differs from 1.0.
    """
    if mmax > _TABLE_MAX_ORDER:
        raise ValueError(f"Boys orders above {_TABLE_MAX_ORDER} are not tabulated")
    clamped = np.minimum(x, _SERIES_LIMIT)
    nearest = np.rint(clamped * _TABLE_DENSITY).astype(int)
    dx = nearest / _TABLE_DENSITY - clamped
    taylor = np.take(_BOYS_TABLE[mmax : mmax + _TAYLOR_TERMS], nearest, axis=1)
    out = np.empty((mmax + 1, x.size))
    top = out[mmax]
    top[:] = taylor[-1]
    for k in range(_TAYLOR_TERMS - 2, -1, -1):
        top *= dx
        top /= k + 1
        top += taylor[k]
    ex = np.exp(-x)
    for m in range(mmax - 1, -1, -1):
        out[m] = (2.0 * x * out[m + 1] + ex) / (2 * m + 1)
    large = x >= _SERIES_LIMIT
    if large.any():
        xl, el = x[large], ex[large]
        rows = np.empty((mmax + 1, xl.size))
        sx = np.sqrt(xl)
        erf = np.ones(sx.size)
        below = sx < _ERF_IS_ONE
        erf[below] = np.fromiter(map(math.erf, sx[below]), float, np.count_nonzero(below))
        rows[0] = math.sqrt(math.pi) / (2.0 * sx) * erf
        for m in range(1, mmax + 1):
            rows[m] = ((2 * m - 1) * rows[m - 1] - el) / (2.0 * xl)
        out[:, large] = rows
    return out


def _hermite_coulomb(degree: int, alpha: np.ndarray, pc: np.ndarray) -> np.ndarray:
    """Hermite Coulomb integrals R_tuv = R^0_tuv(alpha, PC) for t + u + v <=
    ``degree``, shape (_N_TUV[degree], alpha.size); ``pc`` is (3, alpha.size).

    Runs R^n_{t+1,u,v} = t R^{n+1}_{t-1,u,v} + X_PC R^{n+1}_tuv (and the
    same in u and v) down from R^n_000 = (-2 alpha)^n F_n(alpha PC^2),
    keeping one level n at a time: level n holds degrees <= degree - n.
    """
    boys = _boys_rows(degree, alpha * np.einsum("dq,dq->q", pc, pc))
    scale = -2.0 * alpha
    level = (boys[degree] * scale**degree)[None]
    for n in range(degree - 1, -1, -1):
        steps = _N_TUV[degree - n] - 1
        nxt = np.empty((steps + 1, alpha.size))
        nxt[0] = boys[n] * scale**n
        nxt[1:] = pc[_STEP_DIM[:steps]] * level[_STEP_ONE[:steps]]
        nxt[1:] += _STEP_WEIGHT[:steps] * level[_STEP_TWO[:steps]]
        level = nxt
    return level


def _hermite_1d(xpa: np.ndarray, xpb: np.ndarray, inv2p: np.ndarray) -> np.ndarray:
    """1D Hermite expansion coefficients E_t^{ij} for i <= 1, j <= 3,
    shape (2, 4, 5) + xpa.shape.

    E_t^{i+1,j} = E_{t-1}^{ij} / 2p + X_PA E_t^{ij} + (t+1) E_{t+1}^{ij},
    and the same in j with X_PB. The Gaussian-product prefactor
    exp(-mu X_AB^2) is applied separately, so E_0^{00} = 1.
    """
    E = np.zeros((2, 4, 5) + xpa.shape)
    E[0, 0, 0] = 1.0
    t_plus_1 = np.arange(1, 5).reshape((4,) + (1,) * xpa.ndim)
    for i in range(2):
        for j in range(4):
            if i == j == 0:
                continue
            prev, x = (E[i - 1, 0], xpa) if j == 0 else (E[i, j - 1], xpb)
            E[i, j] = x * prev
            E[i, j, 1:] += inv2p * prev[:-1]
            E[i, j, :-1] += t_plus_1 * prev[1:]
    return E


_CARTESIAN_POWERS = {0: [(0, 0, 0)], 1: [(1, 0, 0), (0, 1, 0), (0, 0, 1)]}


@dataclass(frozen=True)
class _Ao:
    """One contracted Cartesian Gaussian basis function."""

    center: np.ndarray
    powers: tuple[int, int, int]
    exponents: np.ndarray
    coefficients: np.ndarray  # includes primitive norms and contraction norm


def build_ao_basis(geometry: Geometry, basis: BasisSet) -> list[_Ao]:
    """Normalized contracted Cartesian functions, atom by atom and shell by
    shell, with the p components in x, y, z order."""
    aos = []
    for atom in geometry.atoms:
        center = np.asarray(atom.position, dtype=float)
        for shell in basis.shells_for(atom.symbol):
            exps = np.asarray(shell.exponents)
            # primitive norms; every double factorial is 1 for l <= 1
            coefs = (
                np.asarray(shell.coefficients)
                * (2.0 * exps / math.pi) ** 0.75
                * (4.0 * exps) ** (shell.l / 2.0)
            )
            p = exps[:, None] + exps[None, :]
            self_overlap = coefs @ ((math.pi / p) ** 1.5 * (0.5 / p) ** shell.l) @ coefs
            coefs = coefs * self_overlap**-0.5
            for powers in _CARTESIAN_POWERS[shell.l]:
                aos.append(_Ao(center, powers, exps, coefs))
    return aos


@dataclass(frozen=True)
class _PairTable:
    """Primitive pairs of every AO pair i >= j, grouped by pair degree
    d = l_a + l_b and, within one degree, ordered by the pair index
    ij = i (i + 1) / 2 + j. All primitive pairs of one AO pair share d."""

    pair: np.ndarray  # (N,) owning AO pair index
    degree_end: np.ndarray  # (3,) the rows of degree <= d end at degree_end[d]
    p: np.ndarray  # (N,) total exponent
    P: np.ndarray  # (3, N) product center
    coef: np.ndarray  # (N,) contraction coefficients times exp(-mu AB^2)
    E: np.ndarray  # (N, 10) E_tuv = E_t^x E_u^y E_v^z over _TUV[:10]
    overlap: np.ndarray  # (N,) primitive overlap, coef included
    kinetic: np.ndarray  # (N,) primitive kinetic energy, coef included

    def classes(self) -> list[tuple[int, slice]]:
        """(d, rows of degree d) for each pair degree present."""
        starts = [0, *self.degree_end[:-1]]
        return [(d, slice(a, b)) for d, (a, b) in enumerate(zip(starts, self.degree_end)) if b > a]


def _pair_table(aos: list[_Ao]) -> _PairTable:
    prim_ao = np.concatenate([np.full(ao.exponents.size, k) for k, ao in enumerate(aos)])
    exps = np.concatenate([ao.exponents for ao in aos])
    coefs = np.concatenate([ao.coefficients for ao in aos])
    centers = np.array([ao.center for ao in aos])[prim_ao].T
    powers = np.array([ao.powers for ao in aos])[prim_ao].T
    a, b = np.nonzero(prim_ao[:, None] >= prim_ao[None, :])
    pair = prim_ao[a] * (prim_ao[a] + 1) // 2 + prim_ao[b]
    degree = powers.sum(axis=0)[a] + powers.sum(axis=0)[b]
    order = np.lexsort((pair, degree))
    a, b, pair = a[order], b[order], pair[order]
    degree_end = np.searchsorted(degree[order], np.arange(3), side="right")

    ea, eb = exps[a], exps[b]
    p = ea + eb
    A, B = centers[:, a], centers[:, b]
    P = (ea * A + eb * B) / p
    ab = A - B
    coef = coefs[a] * coefs[b] * np.exp(-(ea * eb / p) * np.einsum("dn,dn->n", ab, ab))

    E1 = _hermite_1d(P - A, P - B, 0.5 / p)  # (2, 4, 5, 3, N)
    la, lb = powers[:, a], powers[:, b]
    dims, rows = np.arange(3)[:, None], np.arange(p.size)
    Ex, Ey, Ez = E1[la, lb, :3, dims, rows]  # each (N, 3)
    E = Ex[:, _PAIR_TUV[0]] * Ey[:, _PAIR_TUV[1]] * Ez[:, _PAIR_TUV[2]]
    # 1D overlaps are E_0^{ij}. T = -1/2 <a|laplacian|b> is a sum over d of
    # k_d times the other two overlaps, where, with l_b <= 1,
    # k_d = b (2 l_bd + 1) E_0^{i,j} - 2 b^2 E_0^{i,j+2}.
    s1 = E1[la, lb, 0, dims, rows]
    k1 = eb * (2 * lb + 1) * s1 - 2.0 * eb**2 * E1[la, lb + 2, 0, dims, rows]
    norm = coef * (math.pi / p) ** 1.5
    kinetic = k1[0] * s1[1] * s1[2] + s1[0] * k1[1] * s1[2] + s1[0] * s1[1] * k1[2]
    return _PairTable(pair, degree_end, p, P, coef, E, norm * E[:, 0], norm * kinetic)


def _nuclear_rows(table: _PairTable, geometry: Geometry) -> np.ndarray:
    """Nuclear attraction of each primitive pair, coef included; the pairs
    of degree d read R_tuv up to degree d only."""
    s = np.zeros(table.p.size)
    for d, rows in table.classes():
        E = table.E[rows, : _N_TUV[d]]
        for atom in geometry.atoms:
            pc = table.P[:, rows] - np.asarray(atom.position, dtype=float)[:, None]
            R = _hermite_coulomb(d, table.p[rows], pc)
            s[rows] -= atom.charge * np.einsum("nc,cn->n", E, R)
    return 2.0 * math.pi / table.p * table.coef * s


def _eri_pairs(table: _PairTable, n_pairs: int) -> np.ndarray:
    """(ij|kl) over AO pairs, as a symmetric n_pairs x n_pairs matrix.

    The quartets fall into classes by the degrees of their two pairs,
    d_bra >= d_ket, and each class runs the Hermite-Coulomb recursion to
    degree d_bra + d_ket only. Each block of bra rows meets every ket row
    of a lower degree, and those of its own degree up to its last bra pair,
    so every (ij|kl) with (d_ij, ij) >= (d_kl, kl) is summed once; the other
    entries are discarded and mirrored. A block holds as many quartets as
    fit in ``_BLOCK_BYTES``, so the low-degree classes run in larger blocks.
    """
    classes = table.classes()
    scaled = table.E * (table.coef / table.p)[:, None]
    out = np.zeros((n_pairs, n_pairs))
    for k, (d_bra, bra) in enumerate(classes):
        for d_ket, ket in classes[: k + 1]:
            degree = d_bra + d_ket
            n_bra, n_ket, n_tuv = _N_TUV[d_bra], _N_TUV[d_ket], _N_TUV[degree]
            ket_E = scaled[ket, :n_ket] * _KET_SIGN[:n_ket]
            ket_pair, ket_p, ket_P = table.pair[ket], table.p[ket], table.P[:, ket]
            shift = _SHIFT[:n_bra, :n_ket, :n_tuv]
            # the recursion's two levels and index gathers, C and R hold
            # about 5 doubles per component of a quartet, and its Boys rows
            # and geometry 12 more
            block = max(1, _BLOCK_BYTES // (8 * (5 * n_tuv + 12) * ket_p.size))
            for b0 in range(bra.start, bra.stop, block):
                b1 = min(b0 + block, bra.stop)
                first, last = table.pair[b0], table.pair[b1 - 1]
                k1 = np.searchsorted(ket_pair, last, "right") if d_ket == d_bra else ket_p.size
                cols = ket_pair[k1 - 1] + 1
                p, q = table.p[b0:b1, None], ket_p[None, :k1]
                pq = p + q
                pc = table.P[:, b0:b1, None] - ket_P[:, None, :k1]
                R = _hermite_coulomb(degree, (p * q / pq).ravel(), pc.reshape(3, -1))
                # C[k, b, m] = sum_j ket[k, j] E_bra[b] at component m - j
                shifted = np.einsum("bi,ijm->jbm", scaled[b0:b1, :n_bra], shift)
                C = ket_E[:k1] @ shifted.reshape(n_ket, -1)
                W = np.einsum(
                    "kbm,mbk->bk", C.reshape(k1, b1 - b0, -1), R.reshape(-1, b1 - b0, k1)
                )
                W *= 2.0 * math.pi**2.5 / np.sqrt(pq)
                index = (table.pair[b0:b1, None] - first) * cols + ket_pair[None, :k1]
                sums = np.bincount(index.ravel(), W.ravel(), (last - first + 1) * cols)
                out[first : last + 1, :cols] += sums.reshape(last - first + 1, cols)
    key = np.empty(n_pairs, dtype=int)  # (d_ij, ij) as one number
    for d, rows in classes:
        key[table.pair[rows]] = d * n_pairs + table.pair[rows]
    return np.where(np.greater_equal.outer(key, key), out, out.T)


def nuclear_repulsion(geometry: Geometry) -> float:
    """Sum of Z_i Z_j / r_ij over the nuclei; raises VqseError if two of
    them are at zero distance (their squared distance is 0, which a
    positive one below about 1e-162 bohr underflows to)."""
    e = 0.0
    atoms = geometry.atoms
    for i in range(len(atoms)):
        for j in range(i + 1, len(atoms)):
            rij = np.asarray(atoms[i].position) - np.asarray(atoms[j].position)
            r2 = float(rij @ rij)
            if r2 == 0.0:
                raise VqseError(f"nuclei {i} and {j} are at zero distance")
            e += atoms[i].charge * atoms[j].charge / math.sqrt(r2)
    return e


@dataclass
class AoIntegrals:
    overlap: np.ndarray
    kinetic: np.ndarray
    nuclear: np.ndarray
    eri: np.ndarray  # chemist (pq|rs)
    e_nuc: float

    @property
    def n(self) -> int:
        return self.overlap.shape[0]

    @property
    def hcore(self) -> np.ndarray:
        return self.kinetic + self.nuclear


def compute_ao_integrals(geometry: Geometry, basis: BasisSet) -> AoIntegrals:
    """All AO-basis integrals needed for an RHF + FCI treatment."""
    aos = build_ao_basis(geometry, basis)
    n = len(aos)
    n_pairs = n * (n + 1) // 2
    table = _pair_table(aos)
    hi = np.maximum.outer(np.arange(n), np.arange(n))
    pair_index = hi * (hi + 1) // 2 + np.minimum.outer(np.arange(n), np.arange(n))

    def one_electron(rows):
        return np.bincount(table.pair, rows, n_pairs)[pair_index]

    eri = _eri_pairs(table, n_pairs)[pair_index[:, :, None, None], pair_index]
    return AoIntegrals(
        one_electron(table.overlap),
        one_electron(table.kinetic),
        one_electron(_nuclear_rows(table, geometry)),
        eri,
        nuclear_repulsion(geometry),
    )
