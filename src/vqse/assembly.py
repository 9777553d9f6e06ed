"""H_ij = <O_i+ H O_j> and S_ij = <O_i+ O_j> over an operator pool, from
active-space RDMs (:func:`vqse.subspace.assemble_subspace`).

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

H and S are Hermitian, so only the class pairs i <= j are assembled, and
block (j, i) is written as the conjugate transpose of block (i, j).  The
diagonal class blocks are Hermitized in place, and ``h_asymmetry`` and
``s_asymmetry`` measure those blocks.  Everything that depends on the pool
and the partition alone, not on the geometry or the RDMs (the classes,
the Wick terms of each block, their supports, and the flat index and
sorting sign of every read), is a plan (:class:`_Plan`), built by the
first assembly over a pool and reused by every later one; a curve repeats
the assembly over one pool at every geometry.  Each assembly then does
only the arithmetic: the reduced factors, their reads and the sums.

S is assembled first, over the whole pool.  An operator whose S row is
exactly zero annihilates the reference (S_ii = |O_i psi|^2), so its H row
and column are zero; H is assembled only over the other operators.  On
H2/cc-pVDZ these are 56 of 353: the doubles that annihilate two
same-spin electrons, which a 2-electron singlet does not have.

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
from typing import NamedTuple

import numpy as np

from . import wick
from .integrals import MolecularIntegrals
from .rdm import _sorted_index, pack_antisymmetrized
from .spaces import OrbitalPartition
from .subspace import SubspacePair
from .wick import ACTIVE, VIRTUAL, RdmSet


def _spin_blocks(block: np.ndarray, patterns) -> np.ndarray:
    """``block``, over spatial orbitals, written at each spin pattern (one
    spin per axis) of a zeroed array over the interleaved spin orbitals
    2p + s of those spatial orbitals."""
    out = np.zeros([d for m in block.shape for d in (m, 2)])
    for spins in patterns:
        out[tuple(x for s in spins for x in (slice(None), s))] = block
    return out.reshape([2 * m for m in block.shape])


def _hamiltonian_groups(mol: MolecularIntegrals, partition: OrbitalPartition):
    """Coefficient slices of H by the active/virtual pattern of its indices.

    Each group is (W, pattern): W the coefficient array over local indices
    and pattern the (space, dagger) pairs of the operators it multiplies,
    one per axis of W.  W is the spin-orbital slice of h_ij delta(s_i,s_j)
    or of 1/2 h_ijkl = 1/2 delta(s_i,s_l) delta(s_j,s_k) (il|jk), read
    from the spatial integrals.  The scalar part of H is handled
    separately (it is just ``constant * S``).
    """
    order = list(partition.active) + list(partition.virtual)
    spaces = {ACTIVE: slice(0, len(partition.active)), VIRTUAL: slice(len(partition.active), None)}
    h1 = mol.h1[np.ix_(order, order)]
    half_eri = 0.5 * mol.eri[np.ix_(order, order, order, order)]
    groups = []
    for s0, s1 in itertools.product((ACTIVE, VIRTUAL), repeat=2):
        block = h1[spaces[s0], spaces[s1]]
        if block.size and np.any(block):
            w = _spin_blocks(block, ((0, 0), (1, 1)))
            groups.append((w, ((s0, True), (s1, False))))
    same_outer = [(a, b, b, a) for a in (0, 1) for b in (0, 1)]
    for s0, s1, s2, s3 in itertools.product((ACTIVE, VIRTUAL), repeat=4):
        block = half_eri[spaces[s0], spaces[s3], spaces[s1], spaces[s2]].transpose(0, 2, 3, 1)
        if block.size and np.any(block):
            w = _spin_blocks(block, same_outer)
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


class _Contraction(NamedTuple):
    """A W-first contraction of W (letters ``w_spec``) with the rank-k RDM
    (letters ``d_spec``): W reduced by ``einsum`` to [its output letters |
    the summed ones], the split (k, n_up, n_lo) of the RDM, the sign of
    reordering its letters to that split, and the letter group of each
    axis of the product (:func:`_contract_with_rdm`)."""

    w_spec: str
    d_spec: str
    einsum: str
    k: int
    n_up: int
    n_lo: int
    sign: int
    groups: tuple


def _w_first(w_spec: str, d_spec: str, outputs) -> _Contraction:
    """Each RDM letter is either shared with W or an output letter.  Letters
    are reordered within each antisymmetric half of D, with the permutation
    sign, to [upper outputs | shared | lower outputs]; the product keeps
    the upper and the lower outputs packed, one group each, around the
    output letters of W."""
    k = len(d_spec) // 2
    shared = set(w_spec)
    upper = sorted(d_spec[:k], key=lambda ch: ch in shared)  # outputs first
    lower = sorted(d_spec[k:], key=lambda ch: ch not in shared)  # shared first
    perm = [d_spec.index(ch) for ch in upper + lower]
    sign = (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
    n_up = sum(ch not in shared for ch in upper)
    n_lo = sum(ch in shared for ch in lower)
    summed = "".join(upper[n_up:] + lower[:n_lo])
    w_out = "".join(ch for ch in dict.fromkeys(w_spec) if ch in outputs)
    groups = ("".join(upper[:n_up]), *w_out, "".join(lower[n_lo:]))
    return _Contraction(w_spec, d_spec, f"{w_spec}->{w_out}{summed}", k, n_up, n_lo, sign, groups)


def _contract_with_rdm(w, contraction: _Contraction, forms: _RdmForms) -> np.ndarray:
    """Sum of W * D over the letters W shares with the rank-k RDM D.

    D is read through its split layout over the four groups of
    :func:`_w_first`, each packed, and W is antisymmetrized and packed over
    the two shared groups to match, so the contraction is one batched
    ``matmul`` over the independent entries.  The product is returned as
    it is, its output groups still packed.
    """
    k, n_up, n_lo, n = contraction.k, contraction.n_up, contraction.n_lo, forms.n
    wr = np.einsum(contraction.einsum, w)
    out_shape = wr.shape[: len(contraction.groups) - 2]
    wr = contraction.sign * wr.reshape(-1, n ** (k - n_up), n**n_lo)
    wr = pack_antisymmetrized(pack_antisymmetrized(wr, 1, n, k - n_up), 2, n, n_lo)
    product = np.matmul(
        wr.reshape(len(wr), -1),
        forms.split(k, n_up, n_lo).reshape(math.comb(n, n_up), wr[0].size, -1),
    )
    return product.reshape(len(product), *out_shape, -1)


class _WickTerm(NamedTuple):
    """One Wick term of a class pair's block under one H group: ``sign``
    times the product of its factors, each reduced to output letters and
    read at the block's columns.  The output columns are the bra's
    parameters, then the ket's.  ``rank`` is that of the RDM the term
    reads (0 for none), ``deltas`` the pairs of output columns that share
    a letter (the term lives on their support), and each factor is (kind,
    spec, the output columns of each of its axes): ("product",
    :class:`_Contraction`) for a W-first product, ("w", einsum) for W
    reduced alone, ("rdm", rank) for the packed RDM."""

    sign: int
    rank: int
    deltas: tuple
    factors: tuple


@functools.lru_cache(maxsize=None)
def _wick_terms(pattern_i: tuple, pattern_j: tuple, h_pattern: tuple) -> tuple:
    """The Wick terms of <O_i+ (op group) O_j> for the (space, dagger)
    ladder patterns of two operator classes and of an H group.

    Each normal-ordering term of the active residue joins its delta pairs
    to the virtual pairs and reads the bare RDM of its rank; W meets that
    RDM directly when they share summed H letters (W-first).  The terms
    depend on the patterns alone, so every pool shares them.
    """
    bra = tuple((sp, not dg) for sp, dg in reversed(pattern_i))  # O_i+
    # slots: O_i+ (its parameters reversed), then H, then O_j
    pattern = bra + h_pattern + pattern_j
    n_i = len(pattern_i)
    n_ih = n_i + len(h_pattern)
    out_positions = [*range(n_i - 1, -1, -1), *range(n_ih, len(pattern))]
    terms = []
    for sign, vpairs, active_slots in wick.contract_virtuals_symbolic(pattern):
        daggers = tuple(pattern[s][1] for s in active_slots)
        for no_sign, dpairs, cres, anns in wick.normal_order_symbolic(daggers):
            pairs = vpairs + tuple((active_slots[a], active_slots[c]) for a, c in dpairs)
            rdm_slots = [active_slots[s] for s in reversed(cres)] + [
                active_slots[s] for s in anns
            ]
            terms.append(_lettered(
                sign * no_sign, pairs, range(n_i, n_ih), rdm_slots, out_positions, len(pattern)
            ))
    return tuple(terms)


def _lettered(sign, pairs, h_positions, t_positions, out_positions, n) -> _WickTerm:
    """One term, sign * W * RDM with the slots in ``pairs`` merged, in
    letters: the classes of the n slots under ``pairs``.  If W and the RDM
    share a summed letter they are reduced together (W-first); otherwise W
    is reduced to its output letters alone and the RDM, whose letters are
    all outputs, is read packed."""
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
    w_spec = "".join(letter[find(p)] for p in h_positions)
    t_spec = "".join(letter[find(p)] for p in t_positions)
    k = len(t_spec) // 2
    if set(w_spec) & set(t_spec):
        contraction = _w_first(w_spec, t_spec, first)
        factors = [("product", contraction, contraction.groups)]
    else:
        # every RDM slot is in no pair, so its letters are distinct outputs
        factors = []
        if w_spec:
            out = "".join(ch for ch in dict.fromkeys(w_spec) if ch in first)
            factors.append(("w", f"{w_spec}->{out}", tuple(out)))
        if k:
            factors.append(("rdm", k, (t_spec[:k], t_spec[k:])))
    factors = [
        (kind, spec, tuple(tuple(first[ch] for ch in group) for group in groups))
        for kind, spec, groups in factors
    ]
    return _WickTerm(sign, k, tuple(deltas), tuple(factors))


def _reduced(kind: str, spec, w, forms: _RdmForms) -> np.ndarray:
    """One factor of a term reduced to its output letters."""
    if kind == "product":
        return _contract_with_rdm(w, spec, forms)
    if kind == "w":
        return np.einsum(spec, w)
    return forms.rdms.rdm(spec).packed


class _Gather(NamedTuple):
    """A read of a factor by one flat index into it (in the narrowest
    unsigned type) and the sign of sorting its packed groups (int8; None
    if it has none)."""

    flat: np.ndarray
    sign: np.ndarray | None


class _BySide(NamedTuple):
    """A read of a factor as its [bra axes | ket axes] matrix (axes in
    ``order``, ``rows`` rows): one ``take`` per block axis, (axis, flat
    index), the one that shrinks most first, then each packed group's
    sign, broadcast along its block axis."""

    order: tuple
    rows: int
    takes: tuple
    signs: tuple


def _compact(index: np.ndarray) -> np.ndarray:
    """``index`` (non-negative) in the narrowest unsigned type that holds it."""
    return index.astype(np.min_scalar_type(index.max(initial=0)))


def _read_index(shape, groups, column, axis, n):
    """How a reduced factor of ``shape`` (a W-first product, a reduced W or
    a packed RDM) is read at the block's columns, its axis p at the
    columns ``column[c]`` of the keys c in ``groups[p]`` (output columns,
    or letters).  A packed axis (two or more keys) reads the sorted
    position of their tuple over range(n), times the sign of sorting it
    (0 where an index repeats); a one-key axis reads its column, and an
    axis without keys reads 0.  Columns are 1-D at a support (``axis``
    None) or broadcast along their block axis ``axis[c]``.  If no group
    spans both block axes, the factor is read by side (:class:`_BySide`),
    else by one flat index (:class:`_Gather`)."""
    read = []  # (index, sign or None) of each axis
    for group in groups:
        if len(group) < 2:
            read.append(((column[group[0]] if group else 0), None))
        else:
            positions, signs = _sorted_index(n, len(group))
            flat = np.ravel_multi_index([column[ch] for ch in group], (n,) * len(group))
            read.append((positions[flat], signs[flat]))
    signs = [sign for _, sign in read if sign is not None]
    if axis is None or any(len({axis[ch] for ch in group}) > 1 for group in groups):
        flat = np.ravel_multi_index([index for index, _ in read], shape)
        sign = functools.reduce(np.multiply, signs).astype(np.int8) if signs else None
        return _Gather(_compact(flat), sign)
    side = [axis[group[0]] if group else 0 for group in groups]
    order = sorted(range(len(groups)), key=side.__getitem__)
    rows = math.prod(shape[p] for p in order[: side.count(0)])
    extent = (rows, math.prod(shape) // rows)
    takes = []
    for a in (0, 1):
        if axes := [p for p in order if side[p] == a]:
            dims = [shape[p] for p in axes]
            flat = np.ravel_multi_index([read[p][0] for p in axes], dims).ravel()
            takes.append((flat.size / extent[a], a, flat))
    takes = tuple((a, flat) for _, a, flat in sorted(takes, key=lambda take: take[:2]))
    return _BySide(tuple(order), rows, takes, tuple(signs))


def _read(reduced: np.ndarray, index) -> np.ndarray:
    """``reduced`` read by its :func:`_read_index`."""
    if isinstance(index, _Gather):
        value = reduced.reshape(-1).take(index.flat.astype(np.intp))
        if index.sign is not None:
            value *= index.sign
        return value
    value = reduced.transpose(index.order).reshape(index.rows, -1)
    for a, flat in index.takes:
        value = value.take(flat, axis=a)
    for sign in index.signs:
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


class _Class(NamedTuple):
    """Pool operators of one (space, dagger) ladder pattern: their pool
    rows, the local index of each of their ladder operators (one row per
    operator), and the rows as a slice where they are consecutive (on a
    canonical pool every class is), else the rows again."""

    pattern: tuple
    rows: np.ndarray
    idx: np.ndarray
    at: slice | np.ndarray


def _class(pattern: tuple, rows: np.ndarray, idx: np.ndarray) -> _Class:
    at = rows
    if rows.size and np.array_equal(rows, np.arange(rows[0], rows[0] + rows.size)):
        at = slice(rows[0], rows[0] + rows.size)
    return _Class(pattern, rows, idx, at)


def _at(class_i: _Class, class_j: _Class):
    """Index of the block of two classes in a pool x pool matrix; a view
    where either class is a slice."""
    if isinstance(class_i.at, slice) or isinstance(class_j.at, slice):
        return class_i.at, class_j.at
    return np.ix_(class_i.rows, class_j.rows)


class _PlannedTerm:
    """A Wick term of one block, its target (a support, or None for the
    whole block), whether the next term reads its W-first product too
    (``keep``), and, once it has been evaluated, one read per factor."""

    __slots__ = ("term", "target", "keep", "reads")

    def __init__(self, term: _WickTerm, target):
        self.term, self.target, self.keep, self.reads = term, target, False, None


def _w_first_product(term: _WickTerm):
    """The contraction of a W-first term, None for any other."""
    return term.factors[0][1] if term.factors and term.factors[0][0] == "product" else None


class _BlockPlan:
    """The index work of the block of one class pair: the support of each
    delta signature, as flat positions in the block (shared by the S and H
    blocks of the pair while both classes keep all their rows), the
    planned terms of each H group pattern, and the reads they share.  A
    term whose support is empty (no operator pair meets its deltas) is
    dropped when planned."""

    def __init__(self, class_i: _Class, class_j: _Class, supports: dict):
        self.class_i, self.class_j = class_i, class_j
        self.supports = supports
        self._terms = {}
        self._reads = {}

    def terms(self, h_pattern: tuple) -> list:
        terms = self._terms.get(h_pattern)
        if terms is None:
            terms = []
            for term in _wick_terms(self.class_i.pattern, self.class_j.pattern, h_pattern):
                target = self._support(term.deltas) if term.deltas else None
                if target is None or target.size:
                    terms.append(_PlannedTerm(term, target))
            for planned, after in zip(terms, terms[1:]):
                product = _w_first_product(planned.term)
                planned.keep = product is not None and product == _w_first_product(after.term)
            self._terms[h_pattern] = terms  # complete before it is shared
        return terms

    def _columns(self):
        """(block axis, 1-D column, column broadcast along that axis) of
        each output column: the bra's parameters, then the ket's."""
        return [(0, col, col[:, np.newaxis]) for col in self.class_i.idx.T] + [
            (1, col, col[np.newaxis, :]) for col in self.class_j.idx.T
        ]

    def _support(self, deltas: tuple) -> np.ndarray:
        target = self.supports.get(deltas)
        if target is None:
            columns = self._columns()
            mask = np.ones((len(self.class_i.rows), len(self.class_j.rows)), dtype=bool)
            for a, b in deltas:
                mask &= columns[a][2] == columns[b][2]
            target = self.supports[deltas] = _compact(np.flatnonzero(mask))
        return target

    def read(self, planned: _PlannedTerm, shape: tuple, groups: tuple, n: int):
        """The read (:func:`_read_index`) of a factor of ``shape`` whose
        axes read the output columns ``groups`` on the term's target."""
        key = (planned.term.deltas, shape, groups)
        index = self._reads.get(key)
        if index is None:
            columns = self._columns()
            read = set(itertools.chain(*groups))  # the output columns read
            if planned.target is None:
                column = {k: columns[k][2] for k in read}
                axis = {k: columns[k][0] for k in read}
            else:
                at = np.divmod(planned.target, len(self.class_j.rows))  # support (rows, cols)
                column = {k: columns[k][1][at[columns[k][0]]] for k in read}
                axis = None
            index = self._reads[key] = _read_index(shape, groups, column, axis, n)
        return index


class _Plan:
    """Everything of one pool's assembly that depends on the pool and the
    partition alone: the operator classes, their class pairs i <= j (the
    other blocks are conjugate transposes), and per pair and pass the
    supports and each Wick term's reads (:class:`_BlockPlan`), built on
    first use and reused by every later assembly over the pool.  The H
    blocks cover only the live rows (operators with a non-zero S row), so
    they are planned for one live-row mask and planned anew for another."""

    def __init__(self, pool: tuple, partition: OrbitalPartition):
        local = {  # spin orbital -> (space, index within that space)
            so: (space, k)
            for space, spins in ((ACTIVE, partition.active_spin), (VIRTUAL, partition.virtual_spin))
            for k, so in enumerate(spins)
        }
        # group pool entries by the (space, dagger) pattern of their ladder
        # strings, with their local indices; the classes are in pattern
        # order, so the triangle is the same one for any order of the pool
        by_class: dict = {}
        for row, op in enumerate(pool):
            ladder = [(*local[index], dagger) for index, dagger in op]
            rows, params = by_class.setdefault(tuple((sp, dg) for sp, _, dg in ladder), ([], []))
            rows.append(row)
            params.append([k for _, k, _ in ladder])
        self.classes = [
            _class(pattern, np.array(rows, dtype=np.intp), np.array(params, dtype=np.intp))
            for pattern, (rows, params) in sorted(by_class.items())
        ]
        self.s_blocks = {
            (i, j): _BlockPlan(self.classes[i], self.classes[j], {})
            for i, j in itertools.combinations_with_replacement(range(len(self.classes)), 2)
        }
        self._h = (None, [])  # (live-row mask, H blocks planned for it)

    def h_blocks(self, live: np.ndarray) -> list:
        """The H blocks over the rows where ``live`` holds, the class pairs
        of the doubles first: they are the largest blocks, and they are
        then assembled while the RDM forms hold only the split layouts
        they read themselves (on H4/6-31G 5.1 of the 6.4 MB all blocks
        read)."""
        planned_for, blocks = self._h
        if planned_for is None or not np.array_equal(planned_for, live):
            kept = [
                c if live[c.rows].all()
                else _class(c.pattern, c.rows[live[c.rows]], c.idx[live[c.rows]])
                for c in self.classes
            ]
            blocks = []
            for (i, j), s_block in reversed(self.s_blocks.items()):
                ci, cj = kept[i], kept[j]
                if ci.rows.size and cj.rows.size:
                    whole = ci is self.classes[i] and cj is self.classes[j]
                    blocks.append(_BlockPlan(ci, cj, s_block.supports if whole else {}))
            self._h = (live, blocks)
        return blocks


@functools.lru_cache(maxsize=1)
def _plan(pool: tuple, partition: OrbitalPartition) -> _Plan:
    """The plan of the last pool assembled; a new pool replaces it."""
    return _Plan(pool, partition)


def _factors(planned: _PlannedTerm, plan: _BlockPlan, w, forms: _RdmForms, held: dict) -> list:
    """The factors of a planned term, each reduced and read in turn (so a
    reduced factor is dropped once read); the first evaluation looks up
    each read by the shape of its factor.  A W-first product the next
    term reads too is handed to it through ``held``."""
    index = planned.reads or []
    values = []
    for f, (kind, spec, groups) in enumerate(planned.term.factors):
        reduced = held.pop(spec) if spec in held else _reduced(kind, spec, w, forms)
        if planned.keep:
            held[spec] = reduced
        if planned.reads is None:
            index.append(plan.read(planned, reduced.shape, groups, forms.n))
        values.append(_read(reduced, index[f]))
    planned.reads = index
    return values


def _block(plan: _BlockPlan, groups, forms: _RdmForms, dtype) -> np.ndarray:
    """<O_i+ (op group) O_j>, summed over ``groups`` ((W, H pattern)
    pairs), at the pool's own index tuples of the two classes of ``plan``.
    A term whose RDM vanishes identically (ranks 3 and 4 of a 2-electron
    state) is skipped."""
    block = np.zeros((len(plan.class_i.rows), len(plan.class_j.rows)), dtype=dtype)
    for w, h_pattern in groups:
        held = {}
        for planned in plan.terms(h_pattern):
            if planned.term.rank not in forms.vanishing:
                _add_term(block, planned, _factors(planned, plan, w, forms, held))
    return block


def _add_term(block: np.ndarray, planned: _PlannedTerm, values: list) -> None:
    """Adds the term's sign times the product of its read factors to
    ``block``: on a support at its flat positions (they are unique), else
    to the whole block in place."""
    value = functools.reduce(_product, values) if values else 1.0
    if planned.target is None:
        where, into = ..., block
    else:
        where, into = planned.target.astype(np.intp), block.reshape(-1)
    if planned.term.sign > 0:  # sign is +-1; negating value would copy it
        into[where] += value
    else:
        into[where] -= value


_STRIPE = 64  # rows hermitized at a time


def _hermitize(block: np.ndarray) -> float:
    """``block`` replaced by (block + block^H) / 2 in place, a stripe of
    rows and the matching stripe of columns at a time; returns
    max |block - block^H| before."""
    asymmetry = 0.0
    for start in range(0, len(block), _STRIPE):
        upper = block[start : start + _STRIPE, start:]
        lower = np.conjugate(block[start:, start : start + _STRIPE].T)
        asymmetry = max(asymmetry, float(np.max(np.abs(upper - lower), initial=0.0)))
        upper += lower
        upper *= 0.5
        block[start:, start : start + _STRIPE] = np.conjugate(upper.T)
    return asymmetry


def _place(matrix: np.ndarray, block: np.ndarray, plan: _BlockPlan) -> float:
    """Writes ``block`` into ``matrix`` at its class pair (i, j) and its
    conjugate transpose at (j, i), Hermitizing a diagonal block (i = j)
    first; returns that block's asymmetry, 0 for any other."""
    class_i, class_j = plan.class_i, plan.class_j
    asymmetry = 0.0
    if class_i.pattern == class_j.pattern:
        asymmetry = _hermitize(block)
    else:
        matrix[_at(class_j, class_i)] = block.conj().T
    matrix[_at(class_i, class_j)] = block
    return asymmetry


def assemble(
    pool, mol: MolecularIntegrals, rdms: RdmSet, partition: OrbitalPartition
) -> SubspacePair:
    """:func:`vqse.subspace.assemble_subspace` after its checks."""
    plan = _plan(tuple(pool), partition)
    dtype = np.result_type(float, *(r.packed.dtype for r in rdms.rdms.values()))
    forms = _RdmForms(rdms)  # shared by S and H

    n = len(pool)
    s = np.zeros((n, n), dtype=dtype)
    s_asym = 0.0
    for block_plan in plan.s_blocks.values():
        s_asym = max(s_asym, _place(s, _block(block_plan, [(None, ())], forms, dtype), block_plan))

    # S_ii = |O_i psi|^2, so a zero S row means O_i psi = 0: H row and column
    # i vanish as well, and only the other rows are assembled
    live = s.any(axis=0) | s.any(axis=1)
    h_groups = _hamiltonian_groups(mol, partition)
    h = np.zeros((n, n), dtype=dtype)
    h_asym = 0.0
    for block_plan in plan.h_blocks(live):
        block = _block(block_plan, h_groups, forms, dtype)
        block += mol.constant * s[_at(block_plan.class_i, block_plan.class_j)]
        h_asym = max(h_asym, _place(h, block, block_plan))
        del block  # before the next one is built
    if np.iscomplexobj(h) and np.max(np.abs(h.imag), initial=0.0) < 1e-14 and np.max(
        np.abs(s.imag), initial=0.0
    ) < 1e-14:
        h, s = np.ascontiguousarray(h.real), np.ascontiguousarray(s.real)
    return SubspacePair(h, s, h_asym, s_asym, n - int(np.count_nonzero(live)))
