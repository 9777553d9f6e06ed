"""The benchmark's layer tracer (perfbench/tracing.py) against the package.

The tracer looks each layer entry point up by module attribute and rebinds
it to a timing wrapper, so a refactor that renames or drops one of them
would break ``perfbench/run.py --trace 1`` without failing anything else.
"""

import importlib.util
import sys
from pathlib import Path

import vqse.fci
import vqse.integrals
import vqse.oo
import vqse.subspace
import vqse.wick
from conftest import exact_rdms, h2_case
from vqse.rdm import compute_rdm

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
RUN = PERFBENCH / "run.py"
LAYER_MODULES = (vqse.fci, vqse.integrals, vqse.oo, vqse.subspace, vqse.wick)


def load_module(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


def load_tracing():
    return load_module("perfbench_tracing", TRACING)


def test_instrument_wraps_every_layer_and_restores_it():
    tracing = load_tracing()
    before = [(module, dict(vars(module))) for module in LAYER_MODULES]
    original = vqse.oo.energy_of_rotation
    restore = tracing.instrument(tracing.Tracer(), 2)
    try:
        assert vqse.oo.energy_of_rotation is not original
    finally:
        restore()
    for module, attributes in before:
        for name, value in attributes.items():
            assert getattr(module, name) is value, f"{module.__name__}.{name}"


def test_sweep_calls_the_traced_oo_layers():
    """Every evaluation of a relaxation goes through the module attributes
    the tracer rebinds.  Each energy (``n_evaluations`` less one
    gradient-and-Hessian for each of its ``n_sweeps`` iterations) rotates
    the integrals once and contracts them with the RDMs, and each accepted
    step rotates them once more for the next gradient and Hessian; the
    first one, at U = I, reads the integrals as they are."""
    tracing = load_tracing()
    case = h2_case(0.7414, "6-31g")
    d1, d2 = vqse.oo.core_active_rdms(
        compute_rdm(case["wfn"], 1), compute_rdm(case["wfn"], 2), case["partition"]
    )
    tracer = tracing.Tracer()
    restore = tracing.instrument(tracer, 2)
    try:
        _, report = vqse.oo.givens_sweep(case["mol"], d1, d2, case["partition"])
    finally:
        restore()
    names = [span.name for span in tracer.spans]
    assert names.count("oo.sweep") == 1
    n_energies = report.n_evaluations - report.n_sweeps
    n_accepted = len(report.sweep_energies)
    assert names.count("oo.rotate_integrals") == n_energies + n_accepted
    for layer in ("oo.energy_eval", "oo.energy_from_rdms"):
        assert names.count(layer) == n_energies, layer
    assert report.n_evaluations > report.n_sweeps


def test_assembly_builds_no_pattern_tensor(monkeypatch):
    """Every Wick term of the assembly reads the bare RDMs, so one assembly
    makes no call to ``vqse.wick.active_pattern_tensor`` (the attribute the
    tracer rebinds for its ``wick.pattern_tensor_*`` metrics)."""
    case = h2_case(0.7414, "6-31g")
    rdms = exact_rdms(case["wfn"])
    pool = vqse.subspace.build_pool(case["partition"])
    calls = []
    monkeypatch.setattr(vqse.wick, "active_pattern_tensor", lambda *args: calls.append(args))
    pair = vqse.subspace.assemble_subspace(pool, case["mol"], rdms, case["partition"])
    assert calls == []
    assert pair.h.shape == (len(pool), len(pool))


def test_benchmark_workloads_warm_up(tmp_path, monkeypatch):
    """Each benchmark workload's warm-up call runs against the package, so
    a refactor that drops a name or keyword the benchmark calls (such as
    ``run_scan(threads=)``, the ``VqseOptions`` fields or the layer calls of
    ``direct_point``) fails here rather than only in the benchmark run."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # run.py prepends its own paths
    run = load_module("perfbench_run", RUN)
    assert set(run.WORKLOADS) == {"h2_ccpvdz_curve", "h2_ccpvdz_relax", "h4_chain_631g"}
    for name, workload in run.WORKLOADS.items():
        work_dir = tmp_path / name
        work_dir.mkdir()
        workload.warm_up(work_dir)
