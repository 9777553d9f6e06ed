"""Restricted Hartree-Fock by damped fixed-point iteration."""

from __future__ import annotations

import numpy as np

from ..exceptions import ConvergenceError
from .gaussians import AoIntegrals
from .mo import ScfResult

MAX_ITER = 200
CONV_TOL = 1e-9  # max |FDS - SDF|
N_DAMPED = 5  # leading iterations whose density is damped
DAMPING = 0.5  # weight of the new density in a damped iteration


def _coulomb_exchange(eri):
    """The (n^2, n^2) layouts [pq, rs] of (pq|rs) and of (pr|qs), so that
    J and K are each one matrix-vector product with the flat density."""
    n = eri.shape[0]
    return eri.reshape(n * n, n * n), eri.transpose(0, 2, 1, 3).reshape(n * n, n * n)


def _fock(hcore, coulomb, exchange, density):
    d = density.ravel()
    return hcore + (2.0 * (coulomb @ d) - exchange @ d).reshape(hcore.shape)


def _fix_column_signs(c: np.ndarray) -> np.ndarray:
    """Each column with its largest-magnitude entry (the first of equal
    ones) made positive."""
    pivot = c[np.argmax(np.abs(c), axis=0), np.arange(c.shape[1])]
    return np.where(pivot < 0, -c, c)


def run_rhf(ao: AoIntegrals, n_electrons: int) -> ScfResult:
    """Closed-shell SCF; converges on max |FDS - SDF| < CONV_TOL.

    The density is damped for the first N_DAMPED iterations, which is
    enough to stabilize the desk-scale systems this package targets.
    """
    if n_electrons % 2 != 0:
        raise ValueError("RHF needs an even electron count")
    if n_electrons > 2 * ao.n:
        raise ValueError("more electrons than spin orbitals")
    n_occ = n_electrons // 2
    s, h = ao.overlap, ao.hcore
    coulomb, exchange = _coulomb_exchange(ao.eri)

    s_eval, s_evec = np.linalg.eigh(s)
    if s_eval.min() < 1e-10:
        raise ValueError("AO overlap matrix is numerically singular")
    x = s_evec @ np.diag(s_eval**-0.5) @ s_evec.T  # symmetric orthogonalization

    def diagonalize(f):
        e, cp = np.linalg.eigh(x.T @ f @ x)
        c = _fix_column_signs(x @ cp)
        return e, c

    e_orb, c = diagonalize(h)
    density = c[:, :n_occ] @ c[:, :n_occ].T
    energy = np.nan
    for it in range(1, MAX_ITER + 1):
        f = _fock(h, coulomb, exchange, density)
        energy = float(np.einsum("pq,pq->", density, h + f)) + ao.e_nuc
        err = f @ density @ s - s @ density @ f
        if np.max(np.abs(err)) < CONV_TOL:
            e_orb, c = diagonalize(f)
            return ScfResult(c, e_orb, energy, converged=True, n_iterations=it)
        e_orb, c = diagonalize(f)
        new_density = c[:, :n_occ] @ c[:, :n_occ].T
        if it <= N_DAMPED:
            density = DAMPING * new_density + (1.0 - DAMPING) * density
        else:
            density = new_density
    raise ConvergenceError(f"SCF did not converge in {MAX_ITER} iterations", last_energy=energy)
