"""Core/active/virtual orbital partitions.

Spatial orbital ``p`` maps to spin orbitals ``2p`` (alpha) and ``2p + 1``
(beta); every module in the package relies on this convention.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exceptions import PartitionError


def spatial_to_spin(spatials) -> tuple[int, ...]:
    """Expand spatial orbital indices to the interleaved spin-orbital list."""
    out = []
    for p in spatials:
        out.extend((2 * p, 2 * p + 1))
    return tuple(out)


@dataclass(frozen=True)
class OrbitalPartition:
    """Disjoint core/active/virtual split of the spatial orbitals."""

    core: tuple[int, ...]
    active: tuple[int, ...]
    virtual: tuple[int, ...]

    def __post_init__(self):
        core, active, virtual = map(tuple, (self.core, self.active, self.virtual))
        object.__setattr__(self, "core", core)
        object.__setattr__(self, "active", active)
        object.__setattr__(self, "virtual", virtual)
        seen = set()
        for name, block in (("core", core), ("active", active), ("virtual", virtual)):
            for p in block:
                if p in seen:
                    raise PartitionError(f"orbital {p} appears twice (in {name})")
                seen.add(p)

    @classmethod
    def from_counts(cls, n_core: int, n_active: int, n_spatial: int) -> "OrbitalPartition":
        """Partition the first ``n_core`` orbitals as core, the next
        ``n_active`` as active, and the rest as virtual (energy order)."""
        if n_core + n_active > n_spatial:
            raise PartitionError("core + active exceeds the orbital count")
        return cls(
            core=tuple(range(n_core)),
            active=tuple(range(n_core, n_core + n_active)),
            virtual=tuple(range(n_core + n_active, n_spatial)),
        )

    @property
    def n_spatial(self) -> int:
        return len(self.core) + len(self.active) + len(self.virtual)

    @property
    def active_spin(self) -> tuple[int, ...]:
        return spatial_to_spin(self.active)

    @property
    def virtual_spin(self) -> tuple[int, ...]:
        return spatial_to_spin(self.virtual)
