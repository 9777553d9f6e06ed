"""vqse benchmark: three oracle-checked workloads driven through the public API.

Run from the repository root:

    python3 perfbench/run.py --workload h2_ccpvdz_curve --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

The seed draws the grid points; the package sees only the generated
geometries and configs.  Points run in a serial closed loop (each starts
when the previous one finishes) until ``--seconds`` have passed.  Every
point is checked against its oracle; a point that raised, was marked failed
on its row or missed its check counts as failed, and any failure makes the
run exit 1 after printing its result.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` first runs the
points untraced, then again with every layer entry point wrapped (see
``tracing.py``), and reports per-layer metrics, the tracing overhead and
whether both passes gave bit-identical energies.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # set-up is timed from before vqse is imported

import argparse
import ctypes
import itertools
import json
import math
import random
import re
import resource
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

from tracing import Tracer, instrument  # noqa: E402

try:
    import vqse  # noqa: E402
except ImportError as exc:
    raise SystemExit(f"perfbench: cannot import vqse from {SRC}: {exc}")
if Path(vqse.__file__).resolve().parent != SRC / "vqse":
    raise SystemExit(f"perfbench: vqse was imported from {vqse.__file__}, not from {SRC}")

import vqse.cli as cli  # noqa: E402
import vqse.fci as fci  # noqa: E402
import vqse.integrals as integrals  # noqa: E402
import vqse.subspace as subspace  # noqa: E402
from vqse.integrals import Geometry, MolecularIntegrals  # noqa: E402
from vqse.spaces import OrbitalPartition  # noqa: E402

SETUP_SAMPLES = 3

# --------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str  # of the grid variable
    low: float
    high: float
    strata: int  # each round of the grid draws one point per equal slice of the range
    n_active_spatial: int
    run: Callable  # (x, work_dir) -> raw result; the timed call
    check: Callable  # (x, raw, work_dir) -> energies tuple; raises OracleMiss
    warm_up: Callable  # (work_dir) -> None; the first call, on a small fixed input


class OracleMiss(Exception):
    """A point finished but its output disagrees with the oracle."""


def _scan(r_angstrom, work_dir, **config):
    return cli.run_scan(cli.ScanConfig(points_angstrom=[r_angstrom], **config), work_dir, threads=1)


def _scan_report(n_failed, work_dir) -> dict:
    report = json.loads((Path(work_dir) / "report.json").read_text())["points"][0]
    if n_failed or "error" in report:
        raise OracleMiss(f"row failed: {report.get('error', 'status not ok')}")
    return report


def _h2_sector_size(basis: str) -> int:
    """Sz = 0 determinants of two electrons over all H2 orbitals."""
    n_spatial = 2 * sum(2 * shell.l + 1 for shell in integrals.load_basis(basis).shells_for("H"))
    return n_spatial * n_spatial


CURVE_CONFIG = dict(basis="cc-pvdz", n_active_spatial=2)
RELAX_CONFIG = dict(basis="cc-pvdz", n_active_spatial=2, vqse=False, oo="iterate", oo_cycles=10)


def curve_check(r, n_failed, work_dir):
    report = _scan_report(n_failed, work_dir)
    error = abs(report["e_vqse"] - report["e_fci_full"])
    if not error <= 1e-8:
        raise OracleMiss(f"|E_vqse - E_FCI| = {error:.3e} > 1e-8")
    sector = _h2_sector_size(CURVE_CONFIG["basis"])
    if report["retained_dimension"] != sector:
        raise OracleMiss(f"retained {report['retained_dimension']} != Sz=0 sector {sector}")
    return report["e_ref"], report["e_vqse"], report["e_fci_full"]


def relax_check(r, n_failed, work_dir):
    report = _scan_report(n_failed, work_dir)
    e_fci, e_oo, e_ref = report["e_fci_full"], report["e_oo"], report["e_ref"]
    if not e_fci <= e_oo <= e_ref + 1e-12:
        raise OracleMiss(f"E_oo {e_oo!r} outside [E_FCI {e_fci!r}, E_ref {e_ref!r} + 1e-12]")
    cycles = report["oo_cycle_energies"]
    if any(b > a for a, b in zip(cycles, cycles[1:])):
        raise OracleMiss(f"cycle energies increase: {cycles}")
    return (e_ref, e_oo, e_fci, *cycles)


def direct_point(geometry, basis: str, n_electrons: int, n_active: int) -> dict:
    """The scan pipeline through the public layer functions, for geometries
    that ``ScanConfig`` (H2 only) cannot express.  Layer calls go through
    the module attributes so that tracing sees them."""
    ao = integrals.compute_ao_integrals(geometry, integrals.load_basis(basis))
    scf = integrals.run_rhf(ao, n_electrons)
    mol = integrals.transform_to_mo(ao, scf.mo_coefficients)
    partition = OrbitalPartition.from_counts(0, n_active, mol.n_spatial)
    active_mol = MolecularIntegrals(
        n_spatial=n_active,
        e_nuc=mol.e_nuc,
        h1=mol.h1[:n_active, :n_active],
        eri=mol.eri[:n_active, :n_active, :n_active, :n_active],
    )
    e_ref, wfn = fci.ground_state(fci.build_hamiltonian_action(active_mol), n_electrons, sz=0)
    options = subspace.VqseOptions(basis=basis, n_active_spatial=n_active, compute_full_fci=False)
    rdms = subspace.reference_rdms(wfn, options)
    pool = subspace.build_pool(partition)
    pair = subspace.assemble_subspace(pool, mol, rdms, partition)
    solution = subspace.solve_gevp(pair, subspace.DEFAULT_EPS)
    e_fci, _ = fci.ground_state(fci.build_hamiltonian_action(mol), n_electrons, sz=0)
    return dict(
        converged=scf.converged,
        e_ref=float(e_ref),
        e_vqse=solution.ground_energy,
        e_fci=float(e_fci),
    )


def h_chain(n_atoms: int, spacing_bohr: float) -> Geometry:
    return Geometry.from_list([("H", 1.0, (0.0, 0.0, k * spacing_bohr)) for k in range(n_atoms)])


def h4_check(d, out, work_dir):
    if not out["converged"]:
        raise OracleMiss("RHF did not converge")
    e_fci, e_vqse, e_ref = out["e_fci"], out["e_vqse"], out["e_ref"]
    if not e_fci - 1e-9 <= e_vqse <= e_ref + 1e-9:
        raise OracleMiss(f"E_vqse {e_vqse!r} outside [E_FCI {e_fci!r}, E_ref {e_ref!r}] +- 1e-9")
    return e_ref, e_vqse, e_fci


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "h2_ccpvdz_curve", "angstrom", 0.5, 2.5, 4, 2,
            run=lambda r, d: _scan(r, d, **CURVE_CONFIG),
            check=curve_check,
            warm_up=lambda d: _scan(0.75, d, basis="6-31g", n_active_spatial=2),
        ),
        Workload(
            "h2_ccpvdz_relax", "angstrom", 0.8, 2.0, 3, 2,
            run=lambda r, d: _scan(r, d, **RELAX_CONFIG),
            check=relax_check,
            warm_up=lambda d: _scan(0.75, d, **{**RELAX_CONFIG, "basis": "6-31g", "oo_cycles": 2}),
        ),
        Workload(
            "h4_chain_631g", "bohr", 1.6, 2.4, 2, 4,
            run=lambda x, d: direct_point(h_chain(4, x), "6-31g", 4, 4),
            check=h4_check,
            warm_up=lambda d: direct_point(h_chain(2, 1.4), "6-31g", 2, 2),
        ),
    )
}


def grid(workload: Workload, seed: int):
    """Endless stratified draw: every round takes one uniform point from
    each of ``strata`` equal slices of the range, in shuffled order, so a
    short run still spans the range."""
    rng = random.Random(f"{workload.name}:{seed}")
    width = (workload.high - workload.low) / workload.strata
    while True:
        draws = [round(workload.low + (k + rng.random()) * width, 4) for k in range(workload.strata)]
        rng.shuffle(draws)
        yield from draws


# --------------------------------------------------------------------------
# measurement


@dataclass
class Point:
    x: float
    seconds: float
    energies: tuple = ()
    error: str | None = None


def run_point(workload: Workload, x: float, work_dir, tracer: Tracer | None = None) -> Point:
    """One closed-loop step; only the call into the package is timed.
    Under tracing the call is the root span, standing for the cli layer."""
    start = time.perf_counter()
    root = tracer.begin("cli") if tracer else None
    try:
        raw = workload.run(x, work_dir)
    except Exception as exc:  # a raising point is a failed point, not a crash
        return Point(x, time.perf_counter() - start, error=f"raised {type(exc).__name__}: {exc}")
    finally:
        if tracer:
            tracer.end(root)
    seconds = time.perf_counter() - start
    try:
        return Point(x, seconds, workload.check(x, raw, work_dir))
    except OracleMiss as exc:
        return Point(x, seconds, error=str(exc))


def closed_loop(workload: Workload, points, seconds: float, work_dir) -> list[Point]:
    """Start points back to back until ``seconds`` have passed."""
    out = []
    start = time.perf_counter()
    while not out or time.perf_counter() - start < seconds:
        out.append(run_point(workload, next(points), work_dir))
    return out


def blas_threads() -> int:
    """Thread count of the loaded OpenBLAS, or 0 if none can be asked."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return 0
    names = (
        "scipy_openblas_get_num_threads64_",
        "scipy_openblas_get_num_threads",
        "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    )
    for path in sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps))):
        lib = ctypes.CDLL(path)
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return 0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_samples(args, own_sample: float) -> list[float]:
    """This process's set-up plus fresh processes doing only the set-up."""
    samples = [own_sample]
    cmd = [sys.executable, __file__, "--workload", args.workload, "--setup-only"]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


# --------------------------------------------------------------------------
# per-layer metrics

# span name -> metric holding the span's self time; together they add up
# to the traced wall time
SELF_METRICS = {
    "cli": "cli.self_s",
    "integrals.ao": "integrals.ao_s",
    "integrals.rhf": "integrals.rhf_s",
    "integrals.mo": "integrals.mo_s",
    "fci.active": "fci.active_s",
    "fci.full": "fci.full_s",
    "rdm": "rdm.s",
    "subspace.pool": "subspace.pool_s",
    "subspace.assemble": "subspace.assemble_s",
    "wick.pattern_tensor": "wick.pattern_tensor_s",
    "subspace.gevp": "subspace.gevp_s",
    "oo.relax": "oo.relax_self_s",
    "oo.sweep": "oo.sweep_self_s",
    "oo.energy_eval": "oo.energy_eval_self_s",
    "oo.energy_from_rdms": "oo.energy_from_rdms_s",
    "oo.rotate_integrals": "oo.rotate_integrals_s",
}
INCLUSIVE_METRICS = {"oo.relax": "oo.relax_s", "oo.energy_eval": "oo.energy_eval_s"}
COUNT_METRICS = (
    "integrals.rhf_iterations",
    "fci.full_dets",
    "rdm.bytes",
    "wick.pattern_tensor_calls",
    "subspace.pool_size",
    "subspace.retained_dim",
    "oo.cycles",
    "oo.evaluations",
)
MAX_METRICS = ("subspace.assemble_peak_mb", "subspace.gevp_residual", "subspace.h_asymmetry")

UNITS = {
    **{m: "s" for m in SELF_METRICS.values()},
    **{m: "s" for m in INCLUSIVE_METRICS.values()},
    **{m: "count" for m in COUNT_METRICS},
    "rdm.bytes": "B",
    "subspace.assemble_peak_mb": "MB",
    "subspace.gevp_residual": "Ha",
    "subspace.h_asymmetry": "Ha",
    "subspace.retained_ratio": "ratio",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "point_wall_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def layer_metrics(tracer: Tracer, traced: list[Point], untraced: list[Point]) -> dict:
    """Per-point means of the traced pass (maxima for the max metrics)."""
    n = len(traced)
    inclusive, own = tracer.totals()
    values = {metric: own.get(span, 0.0) / n for span, metric in SELF_METRICS.items()}
    values.update({m: inclusive.get(span, 0.0) / n for span, m in INCLUSIVE_METRICS.items()})
    values.update({m: tracer.counts.get(m, 0.0) / n for m in COUNT_METRICS})
    values.update({m: tracer.maxima.get(m, 0.0) for m in MAX_METRICS})
    pool = tracer.counts.get("subspace.pool_size", 0.0)
    values["subspace.retained_ratio"] = tracer.counts["subspace.retained_dim"] / pool if pool else 0.0
    values["trace.wall_s"] = inclusive["cli"] / n
    values["trace.untraced_wall_s"] = sum(p.seconds for p in untraced) / n
    values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
    return values


# --------------------------------------------------------------------------
# entry point


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def print_points(workload: Workload, label: str, points: list[Point]) -> None:
    print(f"grid {label} ({workload.unit}): " + " ".join(f"{p.x:g}" for p in points))
    for p in points:
        status = "ok" if p.error is None else f"FAILED {p.error}"
        print(f"  x={p.x:<8g} {p.seconds:9.4f} s  {status}")


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as work_dir:
        workload.warm_up(work_dir)
        setup = time.perf_counter() - T_START
        if args.setup_only:
            print(repr(setup))
            return 0
        threads = blas_threads()
        print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds:g}  "
              f"trace {args.trace}  blas_threads {threads or 'unknown'}")
        points = grid(workload, args.seed)
        if not args.trace:
            done = closed_loop(workload, points, args.seconds, work_dir)
            print_points(workload, "run", done)
            times = [p.seconds for p in done]
            print(f"point_wall_s is the median of {len(times)} points")
            metrics = {
                "point_wall_s": statistics.median(times),
                "peak_rss_mb": peak_rss_mb(),
                "setup_s": statistics.median(setup_samples(args, setup)),
            }
            attempted, failures, mismatch = len(done), [p for p in done if p.error], []
        else:
            # one untimed full-size point first, so that neither pass pays
            # for growing the heap
            first = next(points)
            run_point(workload, first, work_dir)
            untraced = closed_loop(workload, itertools.chain([first], points), args.seconds / 3, work_dir)
            tracer = Tracer()
            restore = instrument(tracer, workload.n_active_spatial)
            try:
                traced = [run_point(workload, p.x, work_dir, tracer) for p in untraced]
            finally:
                restore()
            print_points(workload, "untraced", untraced)
            print_points(workload, "traced", traced)
            metrics = layer_metrics(tracer, traced, untraced)
            self_sum = sum(metrics[m] for m in SELF_METRICS.values())
            if not math.isclose(self_sum, metrics["trace.wall_s"], rel_tol=1e-9, abs_tol=1e-12):
                raise SystemExit(f"self times add up to {self_sum!r}, traced wall {metrics['trace.wall_s']!r}")
            print(f"self times add up to {self_sum:.6f} s per point = traced wall_s")
            mismatch = [
                a.x for a, b in zip(untraced, traced)
                if a.error is None and b.error is None and a.energies != b.energies
            ]
            for x in mismatch:
                print(f"  x={x:g}: traced energies differ from untraced")
            attempted = len(untraced) + len(traced)
            failures = [p for p in untraced + traced if p.error]
    n_failed = len(failures) + len(mismatch)
    print(f"failed_share {n_failed}/{attempted}")
    for name, value in metrics.items():
        print(f"{name:28s} {value:14.6g} {UNITS[name]}")
    result = {
        "correct": n_failed == 0,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if n_failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            raise SystemExit(f"workload {name} printed no result (exit {done.returncode})")
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"] and done.returncode == 0
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
