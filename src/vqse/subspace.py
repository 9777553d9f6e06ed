"""Subspace expansion over virtual-reaching excitation operators.

Builds the operator pool {identity} u {a+_i a_p} u {a+_mu a_q a+_nu a_r},
assembles the subspace matrices H_ij = <O_i+ H O_j> and S_ij = <O_i+ O_j>
on the (active state) x (virtual vacuum) reference from active-space RDMs,
and solves the generalized eigenvalue problem H C = S C E after canonical
orthogonalization of the metric.

The assembly is vectorized: pool operators of the same shape (identity,
active->active single, virtual-reaching single, double) share one dense
buffer over the full parameter grid, each Wick term of each Hamiltonian
index block becomes a single ``einsum`` over coefficient slices and
active-pattern tensors, and the pool entries are gathered from the buffer
at the end.  This is what makes a ~10^3 operator pool with a 20-spatial-
orbital Hamiltonian tractable in pure numpy.
"""

from __future__ import annotations

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

    def adjoint_ops(self) -> tuple:
        return tuple((i, not d) for i, d in reversed(self.ladder_ops()))

    def delta_sz(self) -> int:
        """Change in 2*S_z caused by the operator (alpha = even index)."""
        return sum(
            (1 if d else -1) * (1 if i % 2 == 0 else -1) for i, d in self.ladder_ops()
        )


def build_pool(
    partition: OrbitalPartition,
    restrict_to=None,
    level: int = 2,
    prune_sz: bool = True,
) -> list:
    """Enumerate the expansion-operator pool, canonically ordered.

    ``restrict_to`` limits the active indices p, q, r to a subset of the
    active spin orbitals; ``level`` caps the excitation rank at 1 or 2;
    ``prune_sz`` drops operators that change S_z (their subspace rows
    decouple from the S_z-conserving reference sector).
    """
    if not partition.active:
        raise PartitionError("the active space is empty")
    if level not in (1, 2):
        raise VqseError("excitation level must be 1 or 2")
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
    if level >= 2:
        for mu, nu in itertools.combinations(sorted(virtual), 2):
            for q in targets:
                for r in targets:
                    pool.append(ExpansionOperator("double", (mu, q, nu, r)))
    if prune_sz:
        pool = [op for op in pool if op.delta_sz() == 0]
    return pool


# ---------------------------------------------------------------------------
# vectorized assembly


@dataclass(frozen=True)
class _OpClass:
    """Shape class of pool operators sharing one dense parameter grid."""

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


def _block_buffer(class_i: _OpClass, class_j: _OpClass, groups, rdms: RdmSet, sizes, dtype):
    """Dense <O_i+ (op group) O_j> buffer over the full parameter grids."""
    shape = tuple(sizes[s] for s in class_i.axes) + tuple(sizes[s] for s in class_j.axes)
    buf = np.zeros(shape, dtype=dtype)
    bra = tuple((sp, not dg, pid) for sp, dg, pid in reversed(class_i.slots))
    n_i = len(class_i.axes)
    for w, hslots in groups:
        slots = (
            [(sp, dg, ("i", pid)) for sp, dg, pid in bra]
            + [(sp, dg, ("h", pid)) for sp, dg, pid in hslots]
            + [(sp, dg, ("j", pid)) for sp, dg, pid in class_j.slots]
        )
        tag_to_slot = {tag: pos for pos, (_, _, tag) in enumerate(slots)}
        pattern = tuple((sp, dg) for sp, dg, _ in slots)
        h_positions = [tag_to_slot[("h", k)] for k in range(np.ndim(w))]
        for sign, vpairs, active_slots in wick.contract_virtuals_symbolic(pattern):
            parent = list(range(len(slots)))

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for a_, c_ in vpairs:
                parent[find(a_)] = find(c_)
            letter = {}
            for pos in range(len(slots)):
                root = find(pos)
                if root not in letter:
                    letter[root] = _LETTERS[len(letter)]
            operands, specs = [], []
            coeff = sign if np.ndim(w) else sign * float(w)
            if np.ndim(w):
                operands.append(w)
                specs.append("".join(letter[find(p)] for p in h_positions))
            if active_slots:
                daggers = tuple(pattern[s][1] for s in active_slots)
                operands.append(wick.active_pattern_tensor(daggers, rdms))
                specs.append("".join(letter[find(s)] for s in active_slots))
            out_spec = "".join(
                letter[find(tag_to_slot[(side, pid)])]
                for side, pids in (("i", range(n_i)), ("j", range(len(class_j.axes))))
                for pid in pids
            )
            covered = set("".join(specs))
            for ax, ch in enumerate(out_spec):
                if ch not in covered:
                    operands.append(np.ones(shape[ax]))
                    specs.append(ch)
                    covered.add(ch)
            if not operands:
                buf += coeff
                continue
            out_unique = "".join(dict.fromkeys(out_spec))
            result = np.einsum(
                ",".join(specs) + "->" + out_unique, *operands, optimize=True
            )
            if out_unique == out_spec:
                buf += coeff * result
            else:
                # writable diagonal view of the buffer for repeated axes
                view = np.einsum(out_spec + "->" + out_unique, buf)
                view += coeff * result
    return buf


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
    sizes = {ACTIVE: len(partition.active_spin), VIRTUAL: len(partition.virtual_spin)}
    dtype = np.result_type(float, *(r.tensor.dtype for r in rdms.rdms.values()))

    # group pool entries by shape class, with flat indices into the grids
    by_class: dict = {}
    for row, op in enumerate(pool):
        cls = _classify(op, active)
        flat = 0
        params = [i for i, _ in op.ladder_ops()]
        for space, index in zip(cls.axes, params):
            flat = flat * sizes[space] + loc[space][index]
        by_class.setdefault(cls.name, (cls, [], []))
        by_class[cls.name][1].append(row)
        by_class[cls.name][2].append(flat)

    h_groups = _hamiltonian_groups(mol, partition)
    s_groups = [(np.float64(1.0), ())]
    n = len(pool)
    h = np.zeros((n, n), dtype=dtype)
    s = np.zeros((n, n), dtype=dtype)
    for ci, rows_i, flat_i in by_class.values():
        for cj, rows_j, flat_j in by_class.values():
            size_i = int(np.prod([sizes[a] for a in ci.axes], dtype=int))
            size_j = int(np.prod([sizes[a] for a in cj.axes], dtype=int))
            sbuf = _block_buffer(ci, cj, s_groups, rdms, sizes, dtype)
            hbuf = _block_buffer(ci, cj, h_groups, rdms, sizes, dtype)
            sbuf = sbuf.reshape(size_i, size_j)
            hbuf = hbuf.reshape(size_i, size_j) + mol.constant * sbuf
            gather = np.ix_(flat_i, flat_j)
            target = np.ix_(rows_i, rows_j)
            s[target] = sbuf[gather]
            h[target] = hbuf[gather]
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

    @property
    def ground_energy(self) -> float:
        return float(self.eigenvalues[0])


def canonical_orthogonalize(s: np.ndarray, eps: float = DEFAULT_EPS):
    """X = V_r L_r^(-1/2) over metric eigenpairs with lambda > eps * lambda_max.

    Returns (X, discarded eigenvalues ascending); X+ S X = identity.
    """
    s = 0.5 * (s + s.conj().T)
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
    return GevpSolution(evals, c, x.shape[1], discarded, res_norm)


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


def _slice_integrals(mol: MolecularIntegrals, spatial) -> MolecularIntegrals:
    spatial = list(spatial)
    return MolecularIntegrals(
        n_spatial=len(spatial),
        e_nuc=mol.e_nuc,
        h1=mol.h1[np.ix_(spatial, spatial)],
        eri=mol.eri[np.ix_(spatial, spatial, spatial, spatial)],
        core_energy_shift=mol.core_energy_shift,
    )


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
