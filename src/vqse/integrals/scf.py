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


def _fock(hcore, eri, density):
    j = np.einsum("pqrs,rs->pq", eri, density, optimize=True)
    k = np.einsum("prqs,rs->pq", eri, density, optimize=True)
    return hcore + 2.0 * j - k


def _fix_column_signs(c: np.ndarray) -> np.ndarray:
    c = c.copy()
    for col in range(c.shape[1]):
        pivot = np.argmax(np.abs(c[:, col]))
        if c[pivot, col] < 0:
            c[:, col] = -c[:, col]
    return c


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
        f = _fock(h, ao.eri, density)
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
