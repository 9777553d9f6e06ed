"""Molecular integrals: Gaussian evaluation, SCF, MO transforms, FCIDUMP."""

from .basis import Atom, BasisSet, Geometry, Shell, h2_geometry, load_basis, parse_basis
from .fcidump import read_fcidump, write_fcidump
from .gaussians import AoIntegrals, compute_ao_integrals, nuclear_repulsion
from .mo import (
    MolecularIntegrals,
    ScfResult,
    dress_core,
    rotate_integrals,
    transform_one,
    transform_to_mo,
    transform_two,
)
from .scf import run_rhf

__all__ = [
    "Atom",
    "AoIntegrals",
    "BasisSet",
    "Geometry",
    "MolecularIntegrals",
    "ScfResult",
    "Shell",
    "compute_ao_integrals",
    "dress_core",
    "h2_geometry",
    "load_basis",
    "nuclear_repulsion",
    "parse_basis",
    "read_fcidump",
    "rotate_integrals",
    "run_rhf",
    "transform_one",
    "transform_to_mo",
    "transform_two",
    "write_fcidump",
]
