"""Outside-in layer tracing for the vqse benchmark.

The package's call sites look their collaborators up at call time
(``from .fci import ground_state`` inside a function body, ``wick.`` or
module-global names), so rebinding a module attribute to a timing wrapper
puts a span around every call into that layer without touching ``src/``.

A span is (name, start, end, parent).  A layer's self time is its span's
duration minus the durations of its direct children; calls are serial,
so children never overlap and the self times of all spans add up to the
durations of the root spans.
"""

from __future__ import annotations

import functools
import math
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans


class Tracer:
    """In-memory span recorder plus per-layer counters."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict = defaultdict(float)
        self.maxima: dict = defaultdict(float)
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        if self._open.pop() != index:
            raise RuntimeError("spans closed out of order")

    def totals(self) -> tuple[dict, dict]:
        """(inclusive seconds, self seconds) summed per span name."""
        inclusive: dict = defaultdict(float)
        own: dict = defaultdict(float)
        for span in self.spans:
            duration = span.end - span.start
            inclusive[span.name] += duration
            own[span.name] += duration
            if span.parent is not None:
                own[self.spans[span.parent].name] -= duration
        return dict(inclusive), dict(own)


def _wrap(tracer: Tracer, original, name_of, after=None, peak_memory: str | None = None):
    @functools.wraps(original)
    def traced(*args, **kwargs):
        name = name_of(*args, **kwargs) if callable(name_of) else name_of
        if peak_memory:
            tracemalloc.start()
        index = tracer.begin(name)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.end(index)
            if peak_memory:
                peak = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
                tracer.maxima[peak_memory] = max(tracer.maxima[peak_memory], peak)
        if after is not None:
            after(tracer, result, *args, **kwargs)
        return result

    return traced


def _after_rhf(tracer, scf, *args, **kwargs):
    tracer.counts["integrals.rhf_iterations"] += scf.n_iterations


def _after_rdms(tracer, rdms, *args, **kwargs):
    tracer.counts["rdm.bytes"] += sum(r.tensor.nbytes for r in rdms.rdms.values())


def _after_pool(tracer, pool, *args, **kwargs):
    tracer.counts["subspace.pool_size"] += len(pool)


def _after_assemble(tracer, pair, *args, **kwargs):
    tracer.maxima["subspace.h_asymmetry"] = max(
        tracer.maxima["subspace.h_asymmetry"], pair.h_asymmetry
    )


def _after_gevp(tracer, solution, *args, **kwargs):
    tracer.counts["subspace.retained_dim"] += solution.retained_dimension
    tracer.maxima["subspace.gevp_residual"] = max(
        tracer.maxima["subspace.gevp_residual"], solution.residual_norm
    )


def _after_pattern(tracer, tensor, *args, **kwargs):
    tracer.counts["wick.pattern_tensor_calls"] += 1


def _after_relax(tracer, result, *args, **kwargs):
    _, energies, reports = result
    tracer.counts["oo.cycles"] += len(energies)
    tracer.counts["oo.evaluations"] += sum(r.n_evaluations for r in reports)


def instrument(tracer: Tracer, n_active_spatial: int):
    """Rebind the traced layer entry points; returns a function that
    restores the originals.

    ``fci.ground_state`` serves both the active-space solve and the
    full-FCI oracle; the span name is chosen from the orbital count of
    the Hamiltonian it is given.
    """
    import vqse.fci
    import vqse.integrals
    import vqse.oo
    import vqse.subspace
    import vqse.wick

    def fci_name(action, n_electrons, sz=None):
        return "fci.active" if action.n_spin == 2 * n_active_spatial else "fci.full"

    def after_fci(tracer, result, action, n_electrons, sz=None):
        if action.n_spin != 2 * n_active_spatial:
            n = action.n_spin // 2
            n_alpha = (n_electrons + (sz or 0)) // 2
            tracer.counts["fci.full_dets"] += math.comb(n, n_alpha) * math.comb(
                n, n_electrons - n_alpha
            )

    table = [
        (vqse.integrals, "compute_ao_integrals", "integrals.ao", None, None),
        (vqse.integrals, "run_rhf", "integrals.rhf", _after_rhf, None),
        (vqse.integrals, "transform_to_mo", "integrals.mo", None, None),
        (vqse.fci, "ground_state", fci_name, after_fci, None),
        (vqse.subspace, "reference_rdms", "rdm", _after_rdms, None),
        (vqse.subspace, "build_pool", "subspace.pool", _after_pool, None),
        (
            vqse.subspace,
            "assemble_subspace",
            "subspace.assemble",
            _after_assemble,
            "subspace.assemble_peak_mb",
        ),
        (vqse.subspace, "solve_gevp", "subspace.gevp", _after_gevp, None),
        (vqse.wick, "active_pattern_tensor", "wick.pattern_tensor", _after_pattern, None),
        (vqse.oo, "relax_then_resolve", "oo.relax", _after_relax, None),
        (vqse.oo, "givens_sweep", "oo.sweep", None, None),
        (vqse.oo, "energy_of_rotation", "oo.energy_eval", None, None),
        (vqse.oo, "energy_from_rdms", "oo.energy_from_rdms", None, None),
        (vqse.oo, "rotate_integrals", "oo.rotate_integrals", None, None),
    ]
    saved = []
    for module, attr, name, after, peak in table:
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, _wrap(tracer, original, name, after, peak))

    def restore():
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

    return restore
