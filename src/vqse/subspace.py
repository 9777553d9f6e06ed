"""Subspace expansion over virtual-reaching excitation operators.

Builds the operator pool {identity} u {a+_i a_p} u {a+_mu a_q a+_nu a_r},
each operator held as its ladder string of (spin orbital, dagger) pairs,
assembles the subspace matrices H_ij = <O_i+ H O_j> and S_ij = <O_i+ O_j>
on the (active state) x (virtual vacuum) reference from active-space RDMs,
and solves the generalized eigenvalue problem H C = S C E for its lowest
root after canonical orthogonalization of the metric.

The assembly is vectorized per operator class: the pool operators whose
ladder strings share one (space, dagger) pattern (on the canonical pool:
identity, active->active single, virtual-reaching single, double).  Each
Wick term of each Hamiltonian index block is contracted down to its output
letters and read directly at the pool's own index tuples, a packed group
of letters at the sorted position of its tuple, so no work or memory is
spent on index combinations the pool does not contain.  A term whose
output carries a delta between a bra and a ket parameter (mu = mu', say)
is evaluated only on its support, the (row, col) pairs of the block where
every such delta holds, and scattered there; the support of each delta
signature is computed once per class pair, for both its S and H blocks.

S is assembled first, over the whole pool.  An operator whose S row is
exactly zero annihilates the reference (S_ii = |O_i psi|^2), so its H row
and column are zero; H is assembled only over the other operators.  On
H2/cc-pVDZ these are 56 of 353: the doubles that annihilate two
same-spin electrons, which a 2-electron singlet does not have.

The metric is block diagonal: every virtual is contracted against the
vacuum, so S_ij vanishes unless O_i and O_j create the same virtual spin
orbitals.  Canonical orthogonalization therefore diagonalizes each
connected component of the non-zero pattern of S on its own, as internally
contracted MRCI does (Werner & Knowles, JCP 89, 5803 (1988)).  It reads the
components off S itself, so no result rests on that structure: a stray
non-zero entry only merges two blocks.

One rule contracts every term: its active residue is expanded in normal
order right there, and each normal-ordering term reads the bare RDM of
its rank, unless that RDM vanishes identically (ranks 3 and 4 of a
2-electron state).  The RDMs stay packed (C(n, k)^2 entries per rank).
When Hamiltonian letters sit on active slots (they are then summed), the
coefficient slice W is contracted with that RDM first (W-first): W is
antisymmetrized over each group of summed letters and meets a split
layout of the packed RDM in one batched ``matmul``, whose product is
read as it is.  A term whose RDM shares no letter with W reads the packed
RDM itself at the pool's tuples.  So no tensor over an operator pattern is
built (the rank-8 pattern of a double-double block with an all-active
two-body term has 8^8 entries for 4 active orbitals), and no dense RDM of
any rank either (the rank-4 one has 8^8 entries, 128 MiB).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import wick
from .exceptions import DegenerateMetricError, PartitionError
from .fci import lowest_eigenpair
from .integrals import MolecularIntegrals
from .rdm import (
    _sorted_index,
    compute_rdm,
    cumulant_rdms,
    inject_shot_noise,
    pack_antisymmetrized,
)
from .spaces import OrbitalPartition
from .wick import ACTIVE, VIRTUAL, RdmSet

DEFAULT_EPS = 1e-8
NOISY_EPS = 1e-3


# ---------------------------------------------------------------------------
# pool


def build_pool(partition: OrbitalPartition) -> list:
    """The S_z-conserving expansion-operator pool, canonically ordered.

    Each operator is its ladder string, a tuple of (spin orbital, dagger)
    pairs, leftmost first: () for the identity, ((i, True), (p, False))
    for a single a+_i a_p and ((mu, True), (q, False), (nu, True),
    (r, False)) for a double a+_mu a_q a+_nu a_r (mu < nu virtual, q < r
    active: the (r, q) double is minus the (q, r) one, and the q = r double
    is zero).  Only strings that conserve S_z are enumerated (alpha = even
    index): the others decouple from the S_z-conserving reference sector.
    """
    if not partition.active:
        raise PartitionError("the active space is empty")
    active = partition.active_spin
    virtual = partition.virtual_spin
    pool = [()]
    for i in sorted(active + virtual):
        for p in active:
            if i % 2 == p % 2:
                pool.append(((i, True), (p, False)))
    for mu, nu in itertools.combinations(sorted(virtual), 2):
        for q, r in itertools.combinations(sorted(active), 2):
            if mu % 2 + nu % 2 == q % 2 + r % 2:
                pool.append(((mu, True), (q, False), (nu, True), (r, False)))
    return pool


# ---------------------------------------------------------------------------
# gathered assembly


def _hamiltonian_groups(mol: MolecularIntegrals, partition: OrbitalPartition):
    """Coefficient slices of H by the active/virtual pattern of its indices.

    Each group is (W, pattern): W the coefficient array over local indices
    and pattern the (space, dagger) pairs of the operators it multiplies,
    one per axis of W.  The scalar part of H is handled separately (it is
    just ``constant * S``).
    """
    lists = {ACTIVE: list(partition.active_spin), VIRTUAL: list(partition.virtual_spin)}
    h1s = mol.h1_spin()
    h2s = mol.h2_spin()
    groups = []
    for s0, s1 in itertools.product((ACTIVE, VIRTUAL), repeat=2):
        w = h1s[np.ix_(lists[s0], lists[s1])]
        if w.size and np.any(w):
            groups.append((w, ((s0, True), (s1, False))))
    for s0, s1, s2, s3 in itertools.product((ACTIVE, VIRTUAL), repeat=4):
        w = 0.5 * h2s[np.ix_(lists[s0], lists[s1], lists[s2], lists[s3])]
        if w.size and np.any(w):
            groups.append((w, ((s0, True), (s1, True), (s2, False), (s3, False))))
    return groups


_LETTERS = "abcdefghijklmnopqrstuvwxyz"


class _RdmForms:
    """What one assembly reads of the RDMs: the packed matrix of each rank,
    read as it is by terms that share no letter with W, and the split
    layout (:meth:`vqse.rdm.Rdm.split`) of each W-first split, built on
    first use and dropped with the assembly."""

    def __init__(self, rdms: RdmSet):
        self.rdms = rdms
        self.n = rdms.n_active
        self.vanishing = {k for k, rdm in rdms.rdms.items() if not rdm.packed.any()}
        self._built = {}

    def split(self, k: int, upper: int, lower: int) -> np.ndarray:
        key = (k, upper, lower)
        if key not in self._built:
            self._built[key] = self.rdms.rdm(k).split(upper, lower)
        return self._built[key]


def _gathered_block(pattern_i, pattern_j, idx_i, idx_j, supports, forms, dtype, groups):
    """<O_i+ (op group) O_j> at the pool's own index tuples, shape (n_i, n_j).

    ``pattern_i``/``pattern_j`` are the (space, dagger) ladder patterns of
    the two operator classes, and ``idx_i``/``idx_j`` hold the local index
    of each of their ladder operators, one row per pool operator.  Every
    output letter of a Wick term is an index column of the bra or the ket
    side.  A letter shared by a bra and a ket
    parameter (a virtual or active delta between them) restricts the term
    to its support, the (row, col) pairs where the delta holds;
    ``supports`` caches these per delta signature, and the caller shares it
    between the S and H blocks of one class pair.

    Each normal-ordering term of the active residue joins its delta pairs
    to the virtual pairs and reads the bare RDM of its rank, unless that
    RDM is identically zero; W meets that RDM directly when they share
    summed H letters (W-first).
    """
    block = np.zeros((len(idx_i), len(idx_j)), dtype=dtype)
    bra = tuple((sp, not dg) for sp, dg in reversed(pattern_i))  # O_i+
    # (axis of the block, 1-D column, column broadcast along that axis)
    columns = [(0, col, col[:, np.newaxis]) for col in idx_i.T] + [
        (1, col, col[np.newaxis, :]) for col in idx_j.T
    ]
    n_i = len(pattern_i)
    for w, h_pattern in groups:
        # slots: O_i+ (its parameters reversed), then H, then O_j
        pattern = bra + h_pattern + pattern_j
        n_ih = n_i + len(h_pattern)
        out_positions = list(range(n_i - 1, -1, -1)) + list(range(n_ih, len(pattern)))
        term = (w, range(n_i, n_ih), out_positions, columns, len(pattern))
        for sign, vpairs, active_slots in wick.contract_virtuals_symbolic(pattern):
            daggers = tuple(pattern[s][1] for s in active_slots)
            for no_sign, dpairs, cres, anns in wick.normal_order_symbolic(daggers):
                if len(cres) in forms.vanishing:
                    continue
                pairs = vpairs + tuple((active_slots[a], active_slots[c]) for a, c in dpairs)
                rdm_slots = [active_slots[s] for s in reversed(cres)] + [
                    active_slots[s] for s in anns
                ]
                _gathered_term(block, supports, sign * no_sign, pairs, forms, rdm_slots, *term)
    return block


def _gathered_term(
    block, supports, sign, pairs, forms, t_positions, w, h_positions, out_positions, columns, n
):
    """Add one Wick term, sign * W * RDM with the slots in ``pairs``
    merged, to ``block`` at the output columns.

    Letters are the classes of the n slots under ``pairs``.  A term whose
    output letters include a delta is evaluated on 1-D columns gathered at
    its support and scattered there (the pairs are unique); any other term
    is added to the whole block in place.  If W and the RDM share a summed
    letter, :func:`_contract_with_rdm` reduces them together; otherwise W
    is reduced to its output letters alone and the RDM, whose letters are
    all outputs, is read packed.  :func:`_packed_read` reads each factor.
    """
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a_, c_ in pairs:
        parent[find(a_)] = find(c_)
    letter = {}
    for pos in range(n):
        letter.setdefault(find(pos), _LETTERS[len(letter)])
    first, deltas = {}, []
    for k, pos in enumerate(out_positions):
        ch = letter[find(pos)]
        if ch in first:
            deltas.append((first[ch], k))
        else:
            first[ch] = k
    if deltas:
        key = tuple(deltas)
        target = supports.get(key)
        if target is None:
            mask = np.ones(block.shape, dtype=bool)
            for a, b in deltas:
                mask &= columns[a][2] == columns[b][2]
            flat = np.flatnonzero(mask)
            # the rows overwrite flat: a freed temporary left between the
            # cached pairs fragmented the heap (+6 MB peak RSS on H4/6-31G)
            target = supports[key] = np.divmod(
                flat, mask.shape[1], out=(flat, np.empty_like(flat))
            )
        if not target[0].size:  # no operator pair meets the deltas
            return
        column = {ch: columns[k][1][target[columns[k][0]]] for ch, k in first.items()}
        axis = None
    else:
        target = ...  # the whole block
        column = {ch: columns[k][2] for ch, k in first.items()}
        axis = {ch: columns[k][0] for ch, k in first.items()}
    read = functools.partial(_packed_read, column=column, axis=axis, n=forms.n)
    w_spec = "".join(letter[find(p)] for p in h_positions)
    t_spec = "".join(letter[find(p)] for p in t_positions)
    if set(w_spec) & set(t_spec):
        value = read(*_contract_with_rdm(w, w_spec, forms, t_spec, column))
    else:
        # every RDM slot is in no pair, so its letters are distinct outputs
        factors = [] if np.ndim(w) else [float(w)]
        if w_spec:
            out = "".join(ch for ch in dict.fromkeys(w_spec) if ch in column)
            factors.append(read(np.einsum(w_spec + "->" + out, w), out))
        if k := len(t_spec) // 2:
            factors.append(read(forms.rdms.rdm(k).packed, [t_spec[:k], t_spec[k:]]))
        value = functools.reduce(_product, factors)
    if sign > 0:  # sign is +-1; negating value would copy it
        block[target] += value
    else:
        block[target] -= value


def _packed_read(reduced, groups, column, axis, n):
    """``reduced`` (a W-first product, a reduced W or a packed RDM) read at
    the block's columns, its axis p at those of the letters ``groups[p]``.
    A packed axis (two or more letters) reads the sorted position of their
    tuple over range(n), times the sign of sorting it (0 where an index
    repeats); a one-letter axis reads its column, and an axis without
    letters reads 0.  Columns are 1-D at a support (``axis`` None) or
    broadcast along their block axis ``axis[ch]``.  If no group spans both
    block axes, the [bra axes | ket axes] matrix is gathered by one
    ``take`` per block axis, the one that shrinks most first."""
    read = []  # (index, sign) of each axis
    for group in groups:
        if len(group) < 2:
            read.append(((column[group] if group else 0), 1))
        else:
            positions, signs = _sorted_index(n, len(group))
            flat = np.ravel_multi_index([column[ch] for ch in group], (n,) * len(group))
            read.append((positions[flat], signs[flat]))
    if axis is None or any(len({axis[ch] for ch in group}) > 1 for group in groups):
        value = reduced[tuple(index for index, _ in read)]
    else:
        side = [axis[group[0]] if group else 0 for group in groups]
        order = sorted(range(len(groups)), key=side.__getitem__)
        value = reduced.transpose(order)
        value, takes = value.reshape(math.prod(value.shape[: side.count(0)]), -1), []
        for a in (0, 1):
            if axes := [p for p in order if side[p] == a]:
                dims = [reduced.shape[p] for p in axes]
                flat = np.ravel_multi_index([read[p][0] for p in axes], dims).ravel()
                takes.append((flat.size / value.shape[a], a, flat))
        for _, a, flat in sorted(takes, key=lambda take: take[:2]):
            value = value.take(flat, axis=a)
    for _, sign in read:
        if np.ndim(sign):
            value *= sign
    return value


def _product(a, b):
    """a * b, written into an operand that already has the result's shape
    and dtype (the operands are fresh gathers or scalars)."""
    form = (np.broadcast_shapes(np.shape(a), np.shape(b)), np.result_type(a, b))
    out = next(
        (f for f in (a, b) if isinstance(f, np.ndarray) and (f.shape, f.dtype) == form), None
    )
    return np.multiply(a, b, out=out)


def _contract_with_rdm(w, w_spec, forms, d_spec, column):
    """Sum of W * D over the letters W shares with the rank-k RDM D; returns
    the result and the letter group of each of its axes.

    Each RDM letter is either shared with W or an output letter.  Letters
    are reordered within each antisymmetric half of D, with the permutation
    sign, to [upper outputs | shared | lower outputs].  D is read through
    its split layout over these four groups, each packed, and W is
    antisymmetrized and packed over the two shared groups to match, so the
    contraction is one batched ``matmul`` over the independent entries.
    The product is returned as it is, its output groups still packed.
    """
    k = len(d_spec) // 2
    shared = set(w_spec)
    upper = sorted(d_spec[:k], key=lambda ch: ch in shared)  # outputs first
    lower = sorted(d_spec[k:], key=lambda ch: ch not in shared)  # shared first
    perm = [d_spec.index(ch) for ch in upper + lower]
    sign = (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
    n_up = sum(ch not in shared for ch in upper)
    n_lo = sum(ch in shared for ch in lower)
    summed = "".join(upper[n_up:] + lower[:n_lo])
    w_out = "".join(ch for ch in dict.fromkeys(w_spec) if ch in column)
    wr = np.einsum(w_spec + "->" + w_out + summed, w)
    n = forms.n
    out_shape = wr.shape[: len(w_out)]
    wr = sign * wr.reshape(-1, n ** (k - n_up), n**n_lo)
    wr = pack_antisymmetrized(pack_antisymmetrized(wr, 1, n, k - n_up), 2, n, n_lo)
    product = np.matmul(
        wr.reshape(len(wr), -1),
        forms.split(k, n_up, n_lo).reshape(math.comb(n, n_up), wr[0].size, -1),
    )
    groups = ["".join(upper[:n_up]), *w_out, "".join(lower[n_lo:])]
    return product.reshape(len(product), *out_shape, -1), groups


@dataclass
class SubspacePair:
    """Subspace Hamiltonian and metric over a pool, Hermitized."""

    h: np.ndarray
    s: np.ndarray
    h_asymmetry: float
    s_asymmetry: float
    null_operators: int  # operators with an exactly zero S row; their H rows are not assembled


def assemble_subspace(
    pool, mol: MolecularIntegrals, rdms: RdmSet, partition: OrbitalPartition
) -> SubspacePair:
    """H_ij = <O_i+ H O_j>, S_ij = <O_i+ O_j> on the active (x) vacuum state.

    Each pool entry is a ladder string of (spin orbital, dagger) pairs, as
    :func:`build_pool` makes them.  ``mol`` must already be dressed of core
    orbitals (the partition may not contain core), and the active RDMs must
    reach the rank demanded by the pool (4 for doubles).
    """
    if partition.core:
        raise PartitionError("dress core orbitals into the integrals first")
    if mol.n_spatial != partition.n_spatial:
        raise PartitionError(
            f"integrals cover {mol.n_spatial} orbitals, partition {partition.n_spatial}"
        )
    local = {  # spin orbital -> (space, index within that space)
        so: (space, k)
        for space, spins in ((ACTIVE, partition.active_spin), (VIRTUAL, partition.virtual_spin))
        for k, so in enumerate(spins)
    }
    dtype = np.result_type(float, *(r.packed.dtype for r in rdms.rdms.values()))
    forms = _RdmForms(rdms)  # shared by S and H

    # group pool entries by the (space, dagger) pattern of their ladder
    # strings, in order of first appearance, with their local indices
    by_class: dict = {}
    for row, op in enumerate(pool):
        ladder = [(*local[index], dagger) for index, dagger in op]
        rows, params = by_class.setdefault(tuple((sp, dg) for sp, _, dg in ladder), ([], []))
        rows.append(row)
        params.append([k for _, k, _ in ladder])
    classes = [
        (pattern, np.array(rows, dtype=np.intp), np.array(params, dtype=np.intp))
        for pattern, (rows, params) in by_class.items()
    ]

    n = len(pool)
    s = np.zeros((n, n), dtype=dtype)
    supports = {}  # per class pair, shared by its S and H blocks
    for ci, rows_i, idx_i in classes:
        for cj, rows_j, idx_j in classes:
            cache = supports[ci, cj] = {}
            s[np.ix_(rows_i, rows_j)] = _gathered_block(
                ci, cj, idx_i, idx_j, cache, forms, dtype, [(np.float64(1.0), ())]
            )

    # S_ii = |O_i psi|^2, so a zero S row means O_i psi = 0: H row and column
    # i vanish as well, and only the other rows are assembled.  A class that
    # loses rows loses its cached supports, which index the whole block.
    live = s.any(axis=0) | s.any(axis=1)
    classes = [(pattern, rows[live[rows]], idx[live[rows]], live[rows].all())
               for pattern, rows, idx in classes]
    h_groups = _hamiltonian_groups(mol, partition)
    h = np.zeros((n, n), dtype=dtype)
    for ci, rows_i, idx_i, whole_i in classes:
        for cj, rows_j, idx_j, whole_j in classes:
            cache = supports.pop((ci, cj))
            if rows_i.size and rows_j.size:
                h[np.ix_(rows_i, rows_j)] = _gathered_block(
                    ci, cj, idx_i, idx_j, cache if whole_i and whole_j else {}, forms, dtype,
                    h_groups,
                )
    h += mol.constant * s
    return _hermitized_pair(h, s, n - int(np.count_nonzero(live)))


def _hermitized_pair(h: np.ndarray, s: np.ndarray, null_operators: int) -> SubspacePair:
    h_asym = float(np.max(np.abs(h - h.conj().T), initial=0.0))
    s_asym = float(np.max(np.abs(s - s.conj().T), initial=0.0))
    h = 0.5 * (h + h.conj().T)
    s = 0.5 * (s + s.conj().T)
    if np.iscomplexobj(h) and np.max(np.abs(h.imag), initial=0.0) < 1e-14 and np.max(
        np.abs(s.imag), initial=0.0
    ) < 1e-14:
        h, s = np.ascontiguousarray(h.real), np.ascontiguousarray(s.real)
    return SubspacePair(h, s, h_asym, s_asym, null_operators)


# ---------------------------------------------------------------------------
# generalized eigenvalue problem


@dataclass
class GevpSolution:
    ground_energy: float  # lowest root of H C = S C E, hartree
    retained_dimension: int
    discarded_metric_eigenvalues: np.ndarray
    residual_norm: float  # |H c - E S c| of the ground pair
    metric_condition: float  # lambda_max / lambda_min of the retained metric
    metric_blocks: int  # blocks of the metric orthogonalized apart


def _metric_blocks(s: np.ndarray) -> list:
    """Connected components of the non-zero pattern of the Hermitian ``s``,
    as ascending index arrays; rows that are exactly zero belong to none.

    Every row takes the lowest label among its neighbours, then the label
    of that label, until nothing changes: each component ends up labelled
    by its lowest row.
    """
    rows, cols = np.nonzero(s != 0)  # faster than on the values
    labels = np.arange(len(s))
    while True:
        lowest = labels.copy()
        np.minimum.at(lowest, rows, labels[cols])
        lowest = lowest[lowest]
        if np.array_equal(lowest, labels):
            break
        labels = lowest
    live = np.unique(rows)
    return [live[labels[live] == root] for root in np.unique(labels[live])]


def _retained_directions(s: np.ndarray, eps: float):
    """Canonical orthogonalization: the columns of X = V_r L_r^(-1/2) over
    the metric eigenpairs with lambda > eps * lambda_max, X+ S X = identity.

    ``s`` must be exactly Hermitian, as ``assemble_subspace`` leaves it.
    S is block diagonal over the connected components of its non-zero
    pattern (on the subspace pool: operators that create different
    virtuals have zero overlap), so each block is diagonalized on its own,
    one batched ``eigh`` per block size, against the one lambda_max of all
    blocks, and each column of X lies in one block.  A zero row is in no
    block and adds a discarded eigenvalue 0.

    Returns (directions, discarded eigenvalues ascending, number of
    blocks).  ``directions`` holds, per block size k, the pair (rows,
    values) of shape (c, k): column c of X is ``values[c]`` at the metric
    rows ``rows[c]`` and zero elsewhere.
    """
    blocks = _metric_blocks(s)
    stacks = []  # per block size k: rows (m, k), then eigh's values (m, k) and vectors (m, k, k)
    for k in sorted({block.size for block in blocks}):
        rows = np.array([block for block in blocks if block.size == k])
        stacks.append((rows, *np.linalg.eigh(s[rows[:, :, np.newaxis], rows[:, np.newaxis, :]])))
    lam_max = max((float(evals.max()) for _, evals, _ in stacks), default=0.0)
    if lam_max <= 0.0:
        raise DegenerateMetricError("the metric has no positive eigenvalues")
    directions, discarded = [], [np.zeros(len(s) - sum(block.size for block in blocks))]
    for rows, evals, evecs in stacks:
        keep = evals > eps * lam_max
        b, j = np.nonzero(keep)
        directions.append((rows[b], evecs[b, :, j] / np.sqrt(evals[b, j])[:, np.newaxis]))
        discarded.append(evals[~keep])
    if not any(rows.size for rows, _ in directions):
        raise DegenerateMetricError("all metric eigenvalues fall below the threshold")
    return directions, np.sort(np.concatenate(discarded)), len(blocks)


def _dense_columns(directions, n: int) -> np.ndarray:
    """X over all n metric rows from its retained directions."""
    x_t = []
    for rows, values in directions:
        part = np.zeros((len(rows), n), dtype=values.dtype)
        np.put_along_axis(part, rows, values, 1)
        x_t.append(part)
    return np.concatenate(x_t).T


def solve_gevp(pair: SubspacePair, eps: float = DEFAULT_EPS) -> GevpSolution:
    """The lowest root of H C = S C E on the canonically orthogonalized
    subspace, by :func:`vqse.fci.lowest_eigenpair` over H~ = X+ H X.

    H~ is never formed: its action on y is X+ (H (X y)), and its diagonal
    x_k+ H x_k is read block by block, since each column x_k of X lies in
    one metric block.  X keeps the rows where it is zero: copying H to the
    other rows costs more than the products save.  The residual is that of
    the ground pair (E, c = X y).
    """
    directions, discarded, n_blocks = _retained_directions(pair.s, eps)
    x = _dense_columns(directions, len(pair.s))
    x_h = x.conj().T
    diagonal = np.concatenate([
        np.einsum("ci,cij,cj->c", values.conj(), pair.h[r[:, :, None], r[:, None, :]], values)
        for r, values in directions
    ]).real
    energy, y = lowest_eigenpair(lambda v: x_h @ (pair.h @ (x @ v)), diagonal)
    c = x @ y
    residual = float(np.linalg.norm(pair.h @ c - energy * (pair.s @ c)))
    # column k of X has norm lambda_k^(-1/2)
    inv_sqrt = np.linalg.norm(x, axis=0)
    condition = float((inv_sqrt.max() / inv_sqrt.min()) ** 2)
    return GevpSolution(energy, x.shape[1], discarded, residual, condition, n_blocks)


# ---------------------------------------------------------------------------
# reference state


@dataclass
class VqseOptions:
    """How the reference RDMs are prepared (see :func:`reference_rdms`).

    ``basis``, ``n_active_spatial`` and ``compute_full_fci`` are read by
    nothing in the package; the benchmark harness still passes them.
    """

    basis: str = "cc-pvdz"
    n_active_spatial: int = 2
    cumulant: bool = False  # rebuild rank-3/4 RDMs from rank-1/2 cumulants
    compute_full_fci: bool = True
    shots: float | None = None  # Gaussian shot-noise model on the 1-/2-RDMs
    seed: int = 0


def reference_rdms(wfn, options: VqseOptions) -> RdmSet:
    """Active-space RDM set for the assembly, per the options.

    Exact mode computes ranks 1-4 from the wavefunction; cumulant mode
    measures only ranks 1-2 and reconstructs 3 and 4 with the connected 3-
    and 4-body parts dropped.  ``shots`` adds Gaussian noise to each
    measured rank k, seeded with ``seed + k``, before any reconstruction.
    """
    measured = (1, 2) if options.cumulant else (1, 2, 3, 4)
    rdms = {k: compute_rdm(wfn, k) for k in measured}
    if options.shots:
        rdms = {
            k: inject_shot_noise(r, options.shots, options.seed + k)
            for k, r in rdms.items()
        }
    if options.cumulant:
        rdms.update(cumulant_rdms(rdms[1], rdms[2]))
    return RdmSet(rdms)
