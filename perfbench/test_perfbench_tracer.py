"""Invariants of the benchmark's tracer and of its import-time parser.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import time

import numpy as np

import procs
import steklov_pert
from steklov_pert import expansion, integrals, kernels, solver
from steklov_pert.series import FourierSeries
from tracer import Tracer, summarize

RHO = FourierSeries(b=[0.0, 0.0, 0.0, 0.3], a=[0.0, 0.1])
CFG = solver.SolverConfig(basis_size=8, quad_points=64)


def test_one_solve_per_eps_point():
    grid = solver.symmetric_grid(0.02, 5)
    tracer = Tracer()
    with tracer.install():
        solver.sweep(RHO, grid, CFG, n_branches=2)
    summary = summarize(tracer.take())
    assert summary["solver.sweep"]["work"] == grid.size
    assert summary["solver.solve"]["calls"] == grid.size
    assert summary["solver.assemble"]["calls"] == grid.size


def test_names_are_wrapped_in_every_importing_namespace():
    originals = (kernels.boundary_traces, integrals.coupled_constants, solver.sweep)
    tracer = Tracer()
    with tracer.install():
        assert solver.boundary_traces is kernels.boundary_traces
        assert expansion.coupled_constants is integrals.coupled_constants
        assert steklov_pert.sweep is solver.sweep
        assert kernels.boundary_traces is not originals[0]

        solver.assemble(RHO, 0.01, CFG)  # reaches the kernel through solver's namespace
        expansion.first_order_coefficients(RHO, 1, (1.0, 0.0), 2)  # integrals through expansion's
        steklov_pert.steklov_eigenvalues(RHO, 0.0, CFG)  # the package namespace
    summary = summarize(tracer.take())
    assert summary["kernels.boundary_traces"]["calls"] == 2
    assert summary["integrals.coupled_constants"]["calls"] == 1
    assert summary["solver.solve"]["calls"] == 1
    assert (kernels.boundary_traces, integrals.coupled_constants, solver.sweep) == originals
    assert solver.boundary_traces is originals[0]


def test_self_times_are_nonnegative_and_fit_in_the_job():
    tracer = Tracer()
    with tracer.install():
        start = time.perf_counter()
        with tracer.span("job"):
            solver.fit_derivatives(solver.sweep(RHO, solver.symmetric_grid(0.02, 5), CFG, n_branches=2))
            expansion.expand(RHO, 2)
        wall = time.perf_counter() - start
    spans = tracer.take()
    assert len(spans) > 1 and spans[0].name == "job" and spans[0].parent == -1
    assert all(span.self_time >= 0.0 for span in spans)
    assert sum(span.self_time for span in spans) <= wall
    assert np.isclose(sum(span.self_time for span in spans), spans[0].duration, rtol=1e-9, atol=1e-12)
    for span in spans[1:]:
        parent = spans[span.parent]
        assert parent.start <= span.start and span.start + span.duration <= parent.start + parent.duration


def test_importtime_self_times_add_up_per_package():
    text = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       120 |        120 |   numpy._core\n"
        "import time:        30 |        150 | numpy\n"
        "import time:        40 |        190 |     scipy.linalg\n"
        "import time:         5 |          5 | json\n"
        "import time:      1000 |       1000 | steklov_pert.cli\n"
    )
    seconds = procs.parse_importtime(text)
    assert np.isclose(seconds["numpy"], 150e-6)
    assert np.isclose(seconds["scipy"], 40e-6)
    assert np.isclose(seconds["steklov_pert"], 1000e-6)
    assert seconds["click"] == 0.0
