"""Molecular geometries and Gaussian basis sets.

Basis data files are plain text: an ``element <symbol>`` header followed by
shell blocks ``S <nprim>`` or ``P <nprim>``, each with ``<exponent>
<coefficient>`` pairs. Exponents are in bohr^-2; coefficients refer to
normalized primitives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources

from ..exceptions import ParseError

ANGULAR_MOMENTUM = {"S": 0, "P": 1}


@dataclass(frozen=True)
class Atom:
    symbol: str
    charge: float
    position: tuple[float, float, float]  # bohr


@dataclass(frozen=True)
class Geometry:
    atoms: tuple[Atom, ...]

    def __post_init__(self):
        if not self.atoms:
            raise ValueError("geometry needs at least one atom")
        for atom in self.atoms:
            if atom.charge <= 0:
                raise ValueError(f"nuclear charge must be positive, got {atom.charge}")
            if not all(math.isfinite(x) for x in atom.position):
                raise ValueError("atom position must be finite")

    @classmethod
    def from_list(cls, atoms) -> "Geometry":
        return cls(tuple(Atom(sym, float(z), tuple(map(float, pos))) for sym, z, pos in atoms))


def h2_geometry(r_bohr: float) -> Geometry:
    """H2 along z with bond length ``r_bohr``."""
    return Geometry.from_list(
        [("H", 1.0, (0.0, 0.0, 0.0)), ("H", 1.0, (0.0, 0.0, r_bohr))]
    )


@dataclass(frozen=True)
class Shell:
    """Contracted shell: all Cartesian components of one angular momentum."""

    l: int
    exponents: tuple[float, ...]
    coefficients: tuple[float, ...]

    def __post_init__(self):
        if self.l > 1:
            raise ValueError("only s and p shells are supported")
        if not self.exponents:
            raise ValueError("shell needs at least one primitive")
        if any(e <= 0 for e in self.exponents):
            raise ValueError("exponents must be positive")


@dataclass(frozen=True)
class BasisSet:
    """Per-element shell lists."""

    shells: dict  # element symbol -> tuple[Shell, ...]

    def shells_for(self, symbol: str) -> tuple[Shell, ...]:
        try:
            return self.shells[symbol]
        except KeyError:
            raise ValueError(f"basis has no entry for element {symbol}") from None


def parse_basis(text: str) -> BasisSet:
    shells: dict[str, list[Shell]] = {}
    element = None
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        line = lines[i].strip()
        i += 1
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if fields[0].lower() == "element":
            if len(fields) != 2:
                raise ParseError("expected 'element <symbol>'", line=i)
            element = fields[1]
            shells.setdefault(element, [])
        elif fields[0].upper() in ANGULAR_MOMENTUM:
            if element is None:
                raise ParseError("shell block before any 'element' header", line=i)
            try:
                nprim = int(fields[1])
            except (IndexError, ValueError):
                raise ParseError("expected '<S|P> <nprim>'", line=i) from None
            exps, coefs = [], []
            for _ in range(nprim):
                if i >= len(lines):
                    raise ParseError("unexpected end of file in shell block", line=i)
                prim = lines[i].split()
                i += 1
                if len(prim) != 2:
                    raise ParseError("expected '<exponent> <coefficient>'", line=i)
                exps.append(float(prim[0]))
                coefs.append(float(prim[1]))
            shells[element].append(
                Shell(ANGULAR_MOMENTUM[fields[0].upper()], tuple(exps), tuple(coefs))
            )
        else:
            raise ParseError(f"unrecognized directive {fields[0]!r}", line=i)
    return BasisSet({el: tuple(sh) for el, sh in shells.items()})


def load_basis(name: str) -> BasisSet:
    """Load a bundled basis set by name (e.g. 'sto-3g', '6-31g', 'cc-pvdz')."""
    fname = name.lower() + ".dat"
    ref = resources.files("vqse.data").joinpath(fname)
    if not ref.is_file():
        raise ValueError(f"no bundled basis named {name!r}")
    return parse_basis(ref.read_text())
