"""Subspace expansion over virtual-reaching excitation operators.

Builds the operator pool {identity} u {a+_i a_p} u {a+_mu a_q a+_nu a_r},
each operator held as its ladder string of (spin orbital, dagger) pairs,
assembles the subspace matrices H_ij = <O_i+ H O_j> and S_ij = <O_i+ O_j>
on the (active state) x (virtual vacuum) reference from active-space RDMs,
and solves the generalized eigenvalue problem H C = S C E for its lowest
root after canonical orthogonalization of the metric.

The assembly of H and S from the RDMs is :mod:`vqse.assembly`; it is
imported by the first assembly, so a scan that never assembles (``vqse:
false``) never loads it.

The metric is block diagonal: every virtual is contracted against the
vacuum, so S_ij vanishes unless O_i and O_j create the same virtual spin
orbitals.  Canonical orthogonalization therefore diagonalizes each
connected component of the non-zero pattern of S on its own, as internally
contracted MRCI does (Werner & Knowles, JCP 89, 5803 (1988)).  It reads the
components off S itself, so no result rests on that structure: a stray
non-zero entry only merges two blocks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateMetricError, PartitionError
from .fci import lowest_eigenpair
from .integrals import MolecularIntegrals
from .rdm import compute_rdm, cumulant_rdms, inject_shot_noise
from .spaces import OrbitalPartition
from .wick import RdmSet

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
# assembly


@dataclass
class SubspacePair:
    """Subspace Hamiltonian and metric over a pool, Hermitized."""

    h: np.ndarray
    s: np.ndarray
    h_asymmetry: float  # max |B - B^H| over the diagonal class blocks B of H
    s_asymmetry: float  # the same for S
    null_operators: int  # operators with an exactly zero S row; their H rows are not assembled


def assemble_subspace(
    pool, mol: MolecularIntegrals, rdms: RdmSet, partition: OrbitalPartition
) -> SubspacePair:
    """H_ij = <O_i+ H O_j>, S_ij = <O_i+ O_j> on the active (x) vacuum state.

    Each pool entry is a ladder string of (spin orbital, dagger) pairs, as
    :func:`build_pool` makes them.  ``mol`` must already be dressed of core
    orbitals (the partition may not contain core), and the active RDMs must
    reach the rank demanded by the pool (4 for doubles).  The index work
    is planned on the first call for a pool and reused while the pool
    stays the same (:class:`vqse.assembly._Plan`).
    """
    if partition.core:
        raise PartitionError("dress core orbitals into the integrals first")
    if mol.n_spatial != partition.n_spatial:
        raise PartitionError(
            f"integrals cover {mol.n_spatial} orbitals, partition {partition.n_spatial}"
        )
    from .assembly import assemble  # here, so a scan that never assembles never loads it

    return assemble(pool, mol, rdms, partition)


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
