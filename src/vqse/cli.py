"""Command-line driver: bond-length scans, curve diffs, FCIDUMP bridging.

``vqse scan`` runs the configured method stack over a grid of H2 bond
lengths and writes a CSV curve plus a JSON sidecar with the resolved
configuration and full per-point reports.  ``vqse diff`` compares two
curve files column by column.  ``vqse fcidump`` exports integrals to the
FCIDUMP exchange format or imports one and solves it.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from . import ANGSTROM_PER_BOHR, __version__
from .exceptions import VqseError

CSV_COLUMNS = (
    "r_angstrom",
    "e_ref",
    "e_vqse",
    "e_oo",
    "e_fci_full",
    "err_vqse",
    "err_oo",
    "status",
)

DEFAULT_GRID = [round(0.3 + 0.1 * k, 10) for k in range(23)]  # 0.3 .. 2.5 A


@dataclass
class ScanConfig:
    """Resolved scan configuration (all defaults applied)."""

    points_angstrom: list = field(default_factory=lambda: list(DEFAULT_GRID))
    basis: str = "cc-pvdz"
    n_active_spatial: int = 2
    n_electrons: int = 2
    vqse: bool = True
    cumulant_rank: int | None = None  # None or 4 = exact active RDMs, 2 = rebuilt 3-/4-RDMs
    oo: str = "none"  # none | iterate
    oo_cycles: int = 10
    shots: float | None = None
    seed: int = 0
    eps: float = 1e-8
    full_fci: bool = True

    def __post_init__(self):
        pts = self.points_angstrom
        if not isinstance(pts, (list, tuple)) or not all(
            isinstance(r, (int, float)) and not isinstance(r, bool) and math.isfinite(r) and r > 0
            for r in pts
        ):
            raise VqseError(
                f"points_angstrom must be a list of positive finite bond lengths, not {pts!r}"
            )
        pts = [float(r) for r in pts]
        if any(b - a <= 0 for a, b in zip(pts, pts[1:])):
            raise VqseError("scan points must be strictly increasing")
        if not pts:
            raise VqseError("the scan needs at least one point")
        self.points_angstrom = pts
        from .integrals import load_basis

        if not isinstance(self.basis, str):
            raise VqseError(f"basis must be the name of a bundled basis, not {self.basis!r}")
        try:
            basis = load_basis(self.basis)
        except ValueError as exc:  # no bundled basis of that name
            raise VqseError(str(exc)) from None
        for key in ("vqse", "full_fci"):
            if type(getattr(self, key)) is not bool:  # the string "false" is truthy
                raise VqseError(f"{key} must be true or false, not {getattr(self, key)!r}")
        if self.oo not in ("none", "iterate"):
            raise VqseError(
                f'oo must be "none" or "iterate", not {self.oo!r}; one relaxation '
                f'step is oo: "iterate" with oo_cycles: 1'
            )
        if self.cumulant_rank not in (None, 2, 4):
            raise VqseError(
                f"cumulant_rank must be 2 (3- and 4-RDMs rebuilt from the 1- and "
                f"2-RDMs), 4 (exact RDMs) or omitted, not {self.cumulant_rank!r}"
            )
        # JSON true reads as 1: eps 1 keeps no direction, shots 1 is one shot
        if isinstance(self.eps, bool) or not (math.isfinite(self.eps) and self.eps > 0):
            raise VqseError(f"eps must be a positive finite threshold, not {self.eps!r}")
        if self.shots is not None and (
            isinstance(self.shots, bool) or not (math.isfinite(self.shots) and self.shots > 0)
        ):
            raise VqseError(f"shots must be omitted or a positive finite count, not {self.shots!r}")
        if type(self.seed) is not int or self.seed < 0:
            raise VqseError(f"seed must be a non-negative integer, not {self.seed!r}")
        if type(self.oo_cycles) is not int or self.oo_cycles < 1:
            raise VqseError(f"oo_cycles must be an integer of at least 1, not {self.oo_cycles!r}")
        if type(self.n_active_spatial) is not int or self.n_active_spatial < 1:
            raise VqseError(
                f"n_active_spatial must be an integer of at least 1, not {self.n_active_spatial!r}"
            )
        n_orbitals = 2 * sum(1 + 2 * shell.l for shell in basis.shells_for("H"))  # s and p shells
        if self.n_active_spatial > n_orbitals:
            raise VqseError(
                f"n_active_spatial must be at most {n_orbitals}, the orbital count of H2 in "
                f"{self.basis}, not {self.n_active_spatial}"
            )
        n = self.n_electrons
        if type(n) is not int or n < 2 or n % 2 or n > 2 * self.n_active_spatial:
            raise VqseError(
                f"n_electrons must be a positive even integer of at most 2 * n_active_spatial "
                f"= {2 * self.n_active_spatial}, not {n!r}"
            )

    @classmethod
    def from_file(cls, path) -> "ScanConfig":
        with open(path) as fh:
            data = json.load(fh)
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise VqseError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)


@dataclass
class CurveRow:
    r_angstrom: float
    e_ref: float = math.nan
    e_vqse: float = math.nan
    e_oo: float = math.nan
    e_fci_full: float = math.nan
    status: str = "ok"

    def csv_cells(self) -> list:
        def fmt(x):
            if not math.isfinite(x):
                return "nan"
            cell = f"{x:.12f}"
            return cell.lstrip("-") if float(cell) == 0 else cell  # no signed zero

        err_vqse = self.e_vqse - self.e_fci_full
        err_oo = self.e_oo - self.e_fci_full
        return [
            f"{self.r_angstrom:.6f}",
            fmt(self.e_ref),
            fmt(self.e_vqse),
            fmt(self.e_oo),
            fmt(self.e_fci_full),
            fmt(err_vqse),
            fmt(err_oo),
            self.status,
        ]


def _scan_point(r_angstrom: float, config: ScanConfig) -> tuple:
    """One grid point; returns (CurveRow, report dict)."""
    from .fci import build_hamiltonian_action, ground_state
    from .integrals import (
        compute_ao_integrals,
        dress_core,
        h2_geometry,
        load_basis,
        run_rhf,
        transform_to_mo,
    )
    from .oo import relax_then_resolve
    from .spaces import OrbitalPartition
    from .subspace import (
        NOISY_EPS,
        VqseOptions,
        assemble_subspace,
        build_pool,
        reference_rdms,
        solve_gevp,
    )

    r_bohr = r_angstrom / ANGSTROM_PER_BOHR
    row = CurveRow(r_angstrom=r_angstrom)
    report: dict = {"r_angstrom": r_angstrom, "r_bohr": r_bohr}

    ao = compute_ao_integrals(h2_geometry(r_bohr), load_basis(config.basis))
    scf = run_rhf(ao, config.n_electrons)
    mol = transform_to_mo(ao, scf.mo_coefficients)
    partition = OrbitalPartition.from_counts(0, config.n_active_spatial, mol.n_spatial)
    report["e_scf"] = scf.scf_energy

    active_mol = dress_core(mol, partition)
    e_ref, state = ground_state(
        build_hamiltonian_action(active_mol), config.n_electrons, sz=0
    )
    row.e_ref = float(e_ref)
    report["e_ref"] = row.e_ref

    if config.full_fci:
        e_fci, _ = ground_state(build_hamiltonian_action(mol), config.n_electrons, sz=0)
        row.e_fci_full = float(e_fci)
        report["e_fci_full"] = row.e_fci_full

    if config.vqse:
        options = VqseOptions(
            cumulant=config.cumulant_rank == 2,
            shots=config.shots,
            seed=config.seed,
        )
        rdms = reference_rdms(state, options)
        pool = build_pool(partition)
        pair = assemble_subspace(pool, mol, rdms, partition)
        eps = config.eps if config.shots is None else max(config.eps, NOISY_EPS)
        solution = solve_gevp(pair, eps)
        row.e_vqse = solution.ground_energy
        discarded = solution.discarded_metric_eigenvalues
        report.update(
            e_vqse=row.e_vqse,
            pool_size=len(pool),
            retained_dimension=solution.retained_dimension,
            gevp_residual=solution.residual_norm,
            h_asymmetry=pair.h_asymmetry,
            s_asymmetry=pair.s_asymmetry,
            discarded_metric_count=int(discarded.size),
            discarded_metric_min=float(discarded.min()) if discarded.size else None,
            discarded_metric_max=float(discarded.max()) if discarded.size else None,
            retained_metric_condition=solution.metric_condition,
            metric_blocks=solution.metric_blocks,
            null_operators=pair.null_operators,
        )

    if config.oo == "iterate":
        _, energies, reports = relax_then_resolve(
            mol, partition, config.n_electrons, cycles=config.oo_cycles
        )
        row.e_oo = reports[-1].final_energy
        report["oo_cycle_energies"] = energies
        report["oo_sweeps"] = sum(r.n_sweeps for r in reports)
        report["oo_evaluations"] = sum(r.n_evaluations for r in reports)
        report["e_oo"] = row.e_oo
    return row, report


def run_scan(config: ScanConfig, output_dir, threads: int = 1) -> int:
    """Execute the scan, one point after another, and write curve.csv +
    report.json; returns the number of failed points.

    ``threads`` must be 1: the benchmark harness still passes it, and its
    next change drops the parameter.
    """
    if threads != 1:
        raise VqseError(f"the scan runs serially; threads must be 1, not {threads!r}")
    output_dir = Path(output_dir)
    try:
        output_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file of that name, or one on its path
        raise VqseError(f"cannot make the output directory: {exc}") from None
    rows, reports = [], []
    for r in config.points_angstrom:
        try:
            row, report = _scan_point(r, config)
        except Exception as exc:  # fail-soft: record and continue
            row = CurveRow(r_angstrom=r, status=f"failed: {type(exc).__name__}: {exc}")
            report = {"r_angstrom": r, "error": row.status}
        rows.append(row)
        reports.append(report)

    header = "# " + ",".join(CSV_COLUMNS) + "  (lengths in angstrom, energies in hartree)"
    lines = [header] + [",".join(row.csv_cells()) for row in rows]
    (output_dir / "curve.csv").write_text("\n".join(lines) + "\n")
    sidecar = {
        "version": __version__,
        "config": asdict(config),
        "points": reports,
    }
    (output_dir / "report.json").write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
    return sum(1 for row in rows if row.status != "ok")


# ---------------------------------------------------------------------------
# diff


def read_curve(path) -> tuple:
    """Parse a scan CSV back into (column names, list of cell lists).

    Every row has one cell per column, and every cell but the last
    (status) is a number or ``nan``."""
    lines = Path(path).read_text().splitlines()
    if not lines or not lines[0].startswith("#"):
        raise VqseError(f"{path}: missing '#' header line")
    names = lines[0].lstrip("# ").split("  ")[0].split(",")
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != len(names):
            raise VqseError(
                f"{path}: line {number} has {len(cells)} cells, not {len(names)}"
            )
        for name, cell in zip(names[:-1], cells):
            try:
                float(cell)
            except ValueError:
                raise VqseError(
                    f"{path}: line {number}: {name} {cell!r} is not a number"
                ) from None
        rows.append(cells)
    return names, rows


def diff_curves(path_a, path_b, tol: float) -> tuple:
    """Compare two curve files; returns (report text, worst offence or None)."""
    # every difference compares False with nan, and even 0 exceeds -1
    if not (math.isfinite(tol) and tol >= 0):
        raise VqseError(f"--tol must be a finite tolerance of at least 0, not {tol!r}")
    names_a, rows_a = read_curve(path_a)
    names_b, rows_b = read_curve(path_b)
    if names_a != names_b:
        raise VqseError("curve files have different columns")
    if len(rows_a) != len(rows_b):
        raise VqseError("curve files have different point counts")
    grid_a = [row[0] for row in rows_a]
    grid_b = [row[0] for row in rows_b]
    if grid_a != grid_b:
        raise VqseError("curve files have different R grids")
    lines = []
    worst = None
    status = len(names_a) - 1
    for col in range(1, status):  # numeric columns
        diffs = []
        for ra, rb in zip(rows_a, rows_b):
            a, b = float(ra[col]), float(rb[col])
            if math.isnan(a) and math.isnan(b):
                diffs.append(0.0)
            elif math.isnan(a) or math.isnan(b):
                diffs.append(math.inf)  # a value on one side only
            else:
                diffs.append(abs(a - b))
        mx = max(diffs, default=0.0)
        mean = sum(diffs) / len(diffs) if diffs else 0.0
        lines.append(f"{names_a[col]:>12s}  max {mx:.3e}  mean {mean:.3e}")
        if mx > tol:
            k = diffs.index(mx)
            offence = (names_a[col], grid_a[k], mx)
            if worst is None or mx > worst[2]:
                worst = offence
    for r, ra, rb in zip(grid_a, rows_a, rows_b):
        if ra[status] != rb[status]:
            lines.append(f"{'status':>12s}  differs at R={r}: {ra[status]!r} vs {rb[status]!r}")
            worst = worst or ("status", r, math.inf)
    if worst is not None:
        size = f"by {worst[2]:.3e}" if math.isfinite(worst[2]) else "(nan or status on one side)"
        lines.append(f"TOLERANCE EXCEEDED: column {worst[0]} at R={worst[1]} differs {size}")
    return "\n".join(lines) + "\n", worst


# ---------------------------------------------------------------------------
# entry point


def _cmd_scan(args) -> int:
    try:
        config = ScanConfig.from_file(args.config)
        if args.seed is not None:
            config = replace(config, seed=args.seed)
    except (OSError, json.JSONDecodeError, VqseError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        failures = run_scan(config, args.output)
    except VqseError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    if failures:
        print(f"{failures} point(s) failed; see report.json", file=sys.stderr)
    return 1 if failures else 0


def _cmd_diff(args) -> int:
    try:
        text, worst = diff_curves(args.file_a, args.file_b, args.tol)
    except (OSError, VqseError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    print(text, end="")
    return 1 if worst is not None else 0


def _cmd_fcidump(args) -> int:
    # a file that is missing, malformed or too large to hold; --basis;
    # --n-electrons; an --r-angstrom that puts the nuclei at zero distance
    try:
        return _fcidump(args)
    except (OSError, MemoryError, VqseError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


def _fcidump(args) -> int:
    from .fci import build_hamiltonian_action, ground_state
    from .integrals import (
        compute_ao_integrals,
        h2_geometry,
        load_basis,
        read_fcidump,
        run_rhf,
        transform_to_mo,
        write_fcidump,
    )

    if args.action == "export":
        r = args.r_angstrom
        if not (math.isfinite(r) and r > 0):
            raise ValueError(f"--r-angstrom must be a positive finite bond length, not {r!r}")
        ao = compute_ao_integrals(
            h2_geometry(args.r_angstrom / ANGSTROM_PER_BOHR), load_basis(args.basis)
        )
        scf = run_rhf(ao, args.n_electrons)
        mol = transform_to_mo(ao, scf.mo_coefficients)
        write_fcidump(mol, args.n_electrons, 0, args.file)
        print(f"wrote {args.file} (norb={mol.n_spatial}, E_scf={scf.scf_energy:.10f})")
        return 0
    mol, nelec, ms2 = read_fcidump(args.file)
    energy, _ = ground_state(build_hamiltonian_action(mol), nelec, sz=ms2)
    print(f"norb={mol.n_spatial} nelec={nelec} ms2={ms2} E_fci={energy:.10f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vqse",
        description="Subspace expansion and orbital relaxation for molecular curves.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    scan = sub.add_parser("scan", help="run a bond-length scan from a JSON config")
    scan.add_argument("--config", required=True, help="JSON file with ScanConfig keys")
    scan.add_argument("--output", required=True, help="output directory")
    scan.add_argument("--seed", type=int, default=None, help="override the config seed")
    scan.set_defaults(func=_cmd_scan)

    diff = sub.add_parser("diff", help="compare two curve CSV files")
    diff.add_argument("--tol", type=float, required=True)
    diff.add_argument("file_a")
    diff.add_argument("file_b")
    diff.set_defaults(func=_cmd_diff)

    fcid = sub.add_parser("fcidump", help="export/import FCIDUMP integral files")
    fcid.add_argument("action", choices=("export", "import"))
    fcid.add_argument("file")
    fcid.add_argument("--basis", default="sto-3g")
    fcid.add_argument("--r-angstrom", type=float, default=0.7414)
    fcid.add_argument("--n-electrons", type=int, default=2)
    fcid.set_defaults(func=_cmd_fcidump)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
