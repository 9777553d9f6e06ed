"""Subspace expansion over virtual-reaching excitation operators.

Builds the operator pool {identity} u {a+_i a_p} u {a+_mu a_q a+_nu a_r},
assembles the subspace matrices H_ij = <O_i+ H O_j> and S_ij = <O_i+ O_j>
on the (active state) x (virtual vacuum) reference from active-space RDMs,
and solves the generalized eigenvalue problem H C = S C E after canonical
orthogonalization of the metric.

The assembly is vectorized per operator class (identity, active->active
single, virtual-reaching single, double).  Each Wick term of each
Hamiltonian index block is contracted down to its output letters, and the
result is indexed directly at the pool's own parameter tuples, so no work
or memory is spent on index combinations the pool does not contain.  This
is what makes a ~10^3 operator pool with a 20-spatial-orbital Hamiltonian
tractable in pure numpy.  A term whose output carries a delta between a
bra and a ket parameter (mu = mu', say) is evaluated only on its support,
the (row, col) pairs of the block where every such delta holds, and
scattered there; the support of each delta signature is computed once per
class pair and shared by its S and H blocks.  Only terms without such a
delta are evaluated on the whole block.

One rule contracts every term: its active residue is expanded in normal
order right there, and each normal-ordering term reads the bare RDM of
its rank.  When Hamiltonian letters sit on active slots (they are then
summed), the coefficient slice W is contracted with that RDM first
(W-first), by one batched ``matmul`` on a reshaped view of the RDM.  So no
tensor over an operator pattern is built, in particular not the dense
rank-8 pattern of a double-double block with an all-active two-body term
(8^8 entries, 134 MB, for 4 active orbitals).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from . import wick
from .exceptions import DegenerateMetricError, PartitionError, VqseError
from .integrals import MolecularIntegrals
from .spaces import OrbitalPartition
from .wick import ACTIVE, VIRTUAL, RdmSet

DEFAULT_EPS = 1e-8
NOISY_EPS = 1e-3


# ---------------------------------------------------------------------------
# pool


@dataclass(frozen=True)
class ExpansionOperator:
    """Identity, single a+_i a_p, or double a+_mu a_q a+_nu a_r.

    ``indices`` holds full-space spin orbitals: () for the identity,
    (i, p) for a single, (mu, q, nu, r) for a double.
    """

    kind: str  # "identity" | "single" | "double"
    indices: tuple = ()

    def __post_init__(self):
        expected = {"identity": 0, "single": 2, "double": 4}
        if self.kind not in expected:
            raise VqseError(f"unknown operator kind {self.kind!r}")
        if len(self.indices) != expected[self.kind]:
            raise VqseError(f"{self.kind} operator takes {expected[self.kind]} indices")

    def ladder_ops(self) -> tuple:
        """(index, dagger) pairs, leftmost first."""
        if self.kind == "identity":
            return ()
        if self.kind == "single":
            i, p = self.indices
            return ((i, True), (p, False))
        mu, q, nu, r = self.indices
        return ((mu, True), (q, False), (nu, True), (r, False))

    def delta_sz(self) -> int:
        """Change in 2*S_z caused by the operator (alpha = even index)."""
        return sum(
            (1 if d else -1) * (1 if i % 2 == 0 else -1) for i, d in self.ladder_ops()
        )


def build_pool(partition: OrbitalPartition, restrict_to=None) -> list:
    """Enumerate the S_z-conserving expansion-operator pool, canonically ordered.

    ``restrict_to`` limits the active indices p, q, r to a subset of the
    active spin orbitals.  Operators that change S_z are dropped: their
    subspace rows decouple from the S_z-conserving reference sector.
    """
    if not partition.active:
        raise PartitionError("the active space is empty")
    active = partition.active_spin
    virtual = partition.virtual_spin
    if restrict_to is None:
        targets = active
    else:
        targets = tuple(sorted(restrict_to))
        if not set(targets) <= set(active):
            raise PartitionError("restriction must be a subset of the active spin orbitals")
    pool = [ExpansionOperator("identity")]
    for i in sorted(active + virtual):
        for p in targets:
            pool.append(ExpansionOperator("single", (i, p)))
    for mu, nu in itertools.combinations(sorted(virtual), 2):
        for q in targets:
            for r in targets:
                pool.append(ExpansionOperator("double", (mu, q, nu, r)))
    return [op for op in pool if op.delta_sz() == 0]


# ---------------------------------------------------------------------------
# gathered assembly


@dataclass(frozen=True)
class _OpClass:
    """Shape class of pool operators: which slots are active or virtual."""

    name: str
    slots: tuple  # ket-side (space, dagger, param_id) triples
    axes: tuple  # per parameter: ACTIVE or VIRTUAL


_CLASS_I = _OpClass("I", (), ())
_CLASS_SA = _OpClass(
    "SA", ((ACTIVE, True, 0), (ACTIVE, False, 1)), (ACTIVE, ACTIVE)
)
_CLASS_SV = _OpClass(
    "SV", ((VIRTUAL, True, 0), (ACTIVE, False, 1)), (VIRTUAL, ACTIVE)
)
_CLASS_D = _OpClass(
    "D",
    ((VIRTUAL, True, 0), (ACTIVE, False, 1), (VIRTUAL, True, 2), (ACTIVE, False, 3)),
    (VIRTUAL, ACTIVE, VIRTUAL, ACTIVE),
)


def _classify(op: ExpansionOperator, active: set) -> _OpClass:
    if op.kind == "identity":
        return _CLASS_I
    if op.kind == "single":
        return _CLASS_SA if op.indices[0] in active else _CLASS_SV
    return _CLASS_D


def _hamiltonian_groups(mol: MolecularIntegrals, partition: OrbitalPartition):
    """Coefficient slices of H by the active/virtual pattern of its indices.

    Each group is (W, slots): W the coefficient array over local indices
    and slots the (space, dagger, axis) triples of the operators it
    multiplies.  The scalar part of H is handled separately (it is just
    ``constant * S``).
    """
    lists = {ACTIVE: list(partition.active_spin), VIRTUAL: list(partition.virtual_spin)}
    h1s = mol.h1_spin()
    h2s = mol.h2_spin()
    groups = []
    for s0, s1 in itertools.product((ACTIVE, VIRTUAL), repeat=2):
        w = h1s[np.ix_(lists[s0], lists[s1])]
        if w.size and np.any(w):
            groups.append((w, ((s0, True, 0), (s1, False, 1))))
    for s0, s1, s2, s3 in itertools.product((ACTIVE, VIRTUAL), repeat=4):
        w = 0.5 * h2s[np.ix_(lists[s0], lists[s1], lists[s2], lists[s3])]
        if w.size and np.any(w):
            groups.append(
                (w, ((s0, True, 0), (s1, True, 1), (s2, False, 2), (s3, False, 3)))
            )
    return groups


_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _gathered_block(class_i, class_j, idx_i, idx_j, supports, rdms, dtype, groups):
    """<O_i+ (op group) O_j> at the pool's own index tuples, shape (n_i, n_j).

    ``idx_i``/``idx_j`` hold the local parameter indices of the pool
    operators of each class, one row per operator.  Every output letter of
    a Wick term is an index column, (n_i, 1) on the bra side and (1, n_j)
    on the ket side.  A letter shared by a bra and a ket parameter (a
    virtual or active delta between them) restricts the term to its
    support, the (row, col) pairs where the delta holds; ``supports``
    caches these per delta signature, and the caller shares it between the
    S and H blocks of one class pair.

    Each normal-ordering term of the active residue joins its delta pairs
    to the virtual pairs and reads the bare RDM; W meets that RDM directly
    when they share summed H letters (W-first).
    """
    block = np.zeros((len(idx_i), len(idx_j)), dtype=dtype)
    bra = tuple((sp, not dg, pid) for sp, dg, pid in reversed(class_i.slots))
    # (axis of the block, 1-D column, column broadcast along that axis)
    columns = [(0, col, col[:, np.newaxis]) for col in idx_i.T] + [
        (1, col, col[np.newaxis, :]) for col in idx_j.T
    ]
    for w, hslots in groups:
        slots = (
            [(sp, dg, ("i", pid)) for sp, dg, pid in bra]
            + [(sp, dg, ("h", pid)) for sp, dg, pid in hslots]
            + [(sp, dg, ("j", pid)) for sp, dg, pid in class_j.slots]
        )
        tag_to_slot = {tag: pos for pos, (_, _, tag) in enumerate(slots)}
        pattern = tuple((sp, dg) for sp, dg, _ in slots)
        h_positions = [tag_to_slot[("h", k)] for k in range(np.ndim(w))]
        out_positions = [tag_to_slot[("i", pid)] for pid in range(len(class_i.axes))] + [
            tag_to_slot[("j", pid)] for pid in range(len(class_j.axes))
        ]
        term = (w, h_positions, out_positions, columns, len(slots))
        for sign, vpairs, active_slots in wick.contract_virtuals_symbolic(pattern):
            daggers = tuple(pattern[s][1] for s in active_slots)
            for no_sign, dpairs, cres, anns in wick.normal_order_symbolic(daggers):
                pairs = vpairs + tuple((active_slots[a], active_slots[c]) for a, c in dpairs)
                rdm_slots = [active_slots[s] for s in reversed(cres)] + [
                    active_slots[s] for s in anns
                ]
                _gathered_term(
                    block, supports, sign * no_sign, pairs, rdms.tensor(len(cres)), rdm_slots,
                    *term,
                )
    return block


def _gathered_term(
    block, supports, sign, pairs, tensor, t_positions, w, h_positions, out_positions, columns, n
):
    """Add one Wick term, sign * W * RDM with the slots in ``pairs``
    merged, to ``block`` at the output columns.

    Letters are the classes of the n slots under ``pairs``.  A term whose
    output letters include a delta is evaluated on 1-D columns gathered at
    its support and scattered there (the pairs are unique); any other term
    broadcasts the bra columns against the ket columns and is added to the
    whole block in place.  W and the RDM are reduced separately to their
    output letters, unless they share a summed letter;
    :func:`_contract_with_rdm` then sums the shared letters.
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
    target = ...  # the whole block
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
    column = {}
    for ch, k in first.items():
        axis, col, spread = columns[k]
        column[ch] = col[target[axis]] if deltas else spread
    w_spec = "".join(letter[find(p)] for p in h_positions)
    t_spec = "".join(letter[find(p)] for p in t_positions)
    if set(w_spec) & set(t_spec):
        reduced, out = _contract_with_rdm(w, w_spec, tensor, t_spec, column)
        value = reduced[tuple(column[ch] for ch in out)]
    else:
        factors = [] if np.ndim(w) else [float(w)]
        for operand, spec in ((w, w_spec), (tensor, t_spec)):
            if spec:
                out = "".join(ch for ch in dict.fromkeys(spec) if ch in column)
                reduced = np.einsum(spec + "->" + out, operand)
                factors.append(reduced[tuple(column[ch] for ch in out)])
        value = functools.reduce(_product, factors)
    if sign > 0:  # sign is +-1; negating value would copy it
        block[target] += value
    else:
        block[target] -= value


def _product(a, b):
    """a * b, written into an operand that already has the result's shape
    (the operands are fresh gathers or scalars)."""
    shape = np.broadcast_shapes(np.shape(a), np.shape(b))
    out = next((f for f in (a, b) if isinstance(f, np.ndarray) and f.shape == shape), None)
    return np.multiply(a, b, out=out)


def _contract_with_rdm(w, w_spec, d, d_spec, column):
    """Sum of W * d over the letters W shares with the RDM d; returns the
    result and its letters.

    Each RDM letter is either shared with W or an output letter.  Letters
    are reordered within each antisymmetric half of d, with the permutation
    sign, to [upper outputs | shared | lower outputs], so d is read through a
    reshaped view by one batched ``matmul`` and never copied.
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
    n = d.shape[0]
    product = np.matmul(
        wr.reshape(-1, n ** len(summed)),
        d.reshape(n**n_up, n ** len(summed), -1),
    )
    shape = (n,) * n_up + wr.shape[: len(w_out)] + (n,) * (k - n_lo)
    return sign * product.reshape(shape), "".join(upper[:n_up]) + w_out + "".join(lower[n_lo:])


@dataclass
class SubspacePair:
    """Subspace Hamiltonian and metric over a pool, Hermitized."""

    h: np.ndarray
    s: np.ndarray
    pool: list
    h_asymmetry: float = 0.0
    s_asymmetry: float = 0.0


def assemble_subspace(
    pool, mol: MolecularIntegrals, rdms: RdmSet, partition: OrbitalPartition
) -> SubspacePair:
    """H_ij = <O_i+ H O_j>, S_ij = <O_i+ O_j> on the active (x) vacuum state.

    ``mol`` must already be dressed of core orbitals (the partition may not
    contain core), and the active RDMs must reach the rank demanded by the
    pool (4 for doubles).
    """
    if partition.core:
        raise PartitionError("dress core orbitals into the integrals first")
    if mol.n_spatial != partition.n_spatial:
        raise PartitionError(
            f"integrals cover {mol.n_spatial} orbitals, partition {partition.n_spatial}"
        )
    active = set(partition.active_spin)
    loc = {ACTIVE: {so: k for k, so in enumerate(partition.active_spin)},
           VIRTUAL: {so: k for k, so in enumerate(partition.virtual_spin)}}
    dtype = np.result_type(float, *(r.tensor.dtype for r in rdms.rdms.values()))

    # group pool entries by shape class, with their local parameter indices
    by_class: dict = {}
    for row, op in enumerate(pool):
        cls = _classify(op, active)
        params = [loc[space][index] for space, (index, _) in zip(cls.axes, op.ladder_ops())]
        by_class.setdefault(cls.name, (cls, [], []))
        by_class[cls.name][1].append(row)
        by_class[cls.name][2].append(params)
    by_class = {
        name: (cls, rows, np.array(params, dtype=np.intp))
        for name, (cls, rows, params) in by_class.items()
    }

    h_groups = _hamiltonian_groups(mol, partition)
    s_groups = [(np.float64(1.0), ())]
    n = len(pool)
    h = np.zeros((n, n), dtype=dtype)
    s = np.zeros((n, n), dtype=dtype)
    for ci, rows_i, idx_i in by_class.values():
        for cj, rows_j, idx_j in by_class.values():
            supports: dict = {}
            args = (ci, cj, idx_i, idx_j, supports, rdms, dtype)
            target = np.ix_(rows_i, rows_j)
            s[target] = _gathered_block(*args, s_groups)
            h[target] = _gathered_block(*args, h_groups)
    h += mol.constant * s
    return _hermitized_pair(h, s, pool)


def _hermitized_pair(h: np.ndarray, s: np.ndarray, pool) -> SubspacePair:
    h_asym = float(np.max(np.abs(h - h.conj().T), initial=0.0))
    s_asym = float(np.max(np.abs(s - s.conj().T), initial=0.0))
    h = 0.5 * (h + h.conj().T)
    s = 0.5 * (s + s.conj().T)
    if np.iscomplexobj(h) and np.max(np.abs(h.imag), initial=0.0) < 1e-14 and np.max(
        np.abs(s.imag), initial=0.0
    ) < 1e-14:
        h, s = np.ascontiguousarray(h.real), np.ascontiguousarray(s.real)
    return SubspacePair(h, s, list(pool), h_asym, s_asym)


# ---------------------------------------------------------------------------
# generalized eigenvalue problem


@dataclass
class GevpSolution:
    eigenvalues: np.ndarray  # ascending, hartree
    eigenvectors: np.ndarray  # columns, pool basis
    retained_dimension: int
    discarded_metric_eigenvalues: np.ndarray
    residual_norm: float = 0.0
    metric_condition: float = 1.0  # lambda_max / lambda_min of the retained metric

    @property
    def ground_energy(self) -> float:
        return float(self.eigenvalues[0])


def canonical_orthogonalize(s: np.ndarray, eps: float = DEFAULT_EPS):
    """X = V_r L_r^(-1/2) over metric eigenpairs with lambda > eps * lambda_max.

    Returns (X, discarded eigenvalues ascending); X+ S X = identity.
    ``s`` must be exactly Hermitian, as ``assemble_subspace`` leaves it.
    """
    evals, evecs = np.linalg.eigh(s)
    lam_max = float(evals[-1])
    if lam_max <= 0.0:
        raise DegenerateMetricError("the metric has no positive eigenvalues")
    keep = evals > eps * lam_max
    if not np.any(keep):
        raise DegenerateMetricError("all metric eigenvalues fall below the threshold")
    x = evecs[:, keep] / np.sqrt(evals[keep])
    return x, evals[~keep]


def solve_gevp(pair: SubspacePair, eps: float = DEFAULT_EPS) -> GevpSolution:
    """Solve H C = S C E on the canonically orthogonalized subspace."""
    x, discarded = canonical_orthogonalize(pair.s, eps)
    h_tilde = x.conj().T @ pair.h @ x
    h_tilde = 0.5 * (h_tilde + h_tilde.conj().T)
    evals, evecs = np.linalg.eigh(h_tilde)
    c = x @ evecs
    residual = pair.h @ c - pair.s @ c * evals[np.newaxis, :]
    res_norm = float(np.max(np.linalg.norm(residual, axis=0), initial=0.0))
    # column k of X has norm lambda_k^(-1/2)
    inv_sqrt = np.linalg.norm(x, axis=0)
    condition = float((inv_sqrt.max() / inv_sqrt.min()) ** 2)
    return GevpSolution(evals, c, x.shape[1], discarded, res_norm, condition)


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
    keeps only ranks 1-2 and reconstructs 3 and 4 with the connected 3-
    and 4-body parts dropped; ``shots`` adds Gaussian noise to the
    measured ranks first.
    """
    from .rdm import compute_rdm, cumulant_3rdm, cumulant_4rdm, inject_shot_noise

    if options.cumulant:
        r1 = compute_rdm(wfn, 1)
        r2 = compute_rdm(wfn, 2)
        if options.shots:
            r1 = inject_shot_noise(r1, options.shots, options.seed)
            r2 = inject_shot_noise(r2, options.shots, options.seed + 1)
        return RdmSet({1: r1, 2: r2, 3: cumulant_3rdm(r1, r2), 4: cumulant_4rdm(r1, r2)})
    rdms = {k: compute_rdm(wfn, k) for k in range(1, 5)}
    if options.shots:
        rdms = {
            k: inject_shot_noise(r, options.shots, options.seed + k)
            for k, r in rdms.items()
        }
    return RdmSet(rdms)
