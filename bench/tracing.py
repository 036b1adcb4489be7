"""Layer spans for the traced run.

The spans are installed from outside the package: each public entry point of
mesh, basis, discretization, euler, blocklinalg, timestepping and vonneumann
is replaced by a wrapper that records (name, start, end, parent) in memory.
Functions are replaced in every polydg module that holds them, because the
drivers import names directly (`from .blocklinalg import gmres`); methods are
wrapped on their class, which catches every caller.

A span's self time is its duration minus the time its child spans cover, so
the self times of all spans add up to the time the top-level spans cover;
`experiments.self_s` is the rest of the driver call.
"""

import functools
import inspect
import sys
import weakref

# span name -> per-layer time metric (the span's summed self time)
SPAN_METRICS = {
    "mesh.build": "mesh.build_s",
    "mesh.ordering": "mesh.ordering_s",
    "basis.dgspace": "basis.dgspace_s",
    "basis.project": "basis.project_s",
    "discretization.assemble": "discretization.assemble_s",
    "euler.setup": "euler.setup_s",
    "euler.residual": "euler.residual_s",
    "euler.jacobian": "euler.jacobian_s",
    "blocklinalg.assembly": "blocklinalg.assembly_s",
    "blocklinalg.ilu0_setup": "blocklinalg.ilu0_setup_s",
    "blocklinalg.ilu0_apply": "blocklinalg.ilu0_apply_s",
    "blocklinalg.jacobi_setup": "blocklinalg.jacobi_setup_s",
    "blocklinalg.jacobi_apply": "blocklinalg.jacobi_apply_s",
    "blocklinalg.matvec": "blocklinalg.matvec_s",
    "blocklinalg.jacobi_solve": "blocklinalg.jacobi_solve_self_s",
    "blocklinalg.gmres": "blocklinalg.gmres_self_s",
    "timestepping.newton": "timestepping.newton_s",
    "vonneumann.operators": "vonneumann.operators_s",
    "vonneumann.sweep": "vonneumann.sweep_s",
    "vonneumann.refine": "vonneumann.refine_s",
}

COUNT_METRICS = (
    "mesh.cells", "basis.quad_nodes", "discretization.blocks",
    "euler.residual_calls", "euler.jacobian_calls",
    "blocklinalg.ilu0_setups", "blocklinalg.ilu0_applies",
    "blocklinalg.jacobi_setups", "blocklinalg.matvec_calls",
    "blocklinalg.jacobi_iters", "blocklinalg.gmres_iters",
    "timestepping.newton_steps", "vonneumann.symbol_points",
)

# every per-layer metric, in report order, with its unit
LAYER_METRICS = (
    [(m, "s") for m in SPAN_METRICS.values()]
    + [(m, "count") for m in COUNT_METRICS]
    + [("blocklinalg.factor_reuse", "1"),
       ("experiments.self_s", "s"),
       ("trace.wall_s", "s"),
       ("trace.overhead_frac", "1")]
)


class Tracer:
    """In-memory spans and counters for one driver call."""

    def __init__(self, clock):
        self._clock = clock     # returns seconds
        self.spans = []     # [name, start, end, parent index or -1]
        self.counts = {}
        self._stack = []
        self._factored = {}     # factorization kind -> matrices factored

    def add(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def span(self, name, fn, count=None):
        """Wrap fn in a span; count(tracer, args, result) runs after it."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = self._clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = self._clock()
                self._stack.pop()
            if count is not None:
                count(self, args, out)
            return out
        return traced

    def counter(self, fn, count):
        """Wrap fn without a span; only count(tracer, args, result) runs."""
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            count(self, args, out)
            return out
        return counted

    def factored(self, kind, matrix):
        """Record one factorization of `matrix` (for factor_reuse)."""
        self.add("blocklinalg.factorizations")
        seen = self._factored.setdefault(kind, weakref.WeakSet())
        if matrix not in seen:
            seen.add(matrix)
            self.add("blocklinalg.distinct_factored")


def replace_function(fn, wrapper):
    """Replace fn by wrapper in every loaded polydg module that holds it."""
    for name, mod in list(sys.modules.items()):
        if name == "polydg" or name.startswith("polydg."):
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    setattr(mod, attr, wrapper)


def wrap_method(cls, attr, make_wrapper):
    """Replace cls.attr by make_wrapper(function); keeps classmethods."""
    raw = inspect.getattr_static(cls, attr)
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(make_wrapper(raw.__func__)))
    else:
        setattr(cls, attr, make_wrapper(raw))


def _quad_nodes(space):
    return (sum(len(b.quadrature.weights) for b in space.bases)
            + sum(len(q.weights) for q in space.edge_quads))


def install(tracer):
    """Wrap the public entry points of every layer in spans of `tracer`."""
    import numpy as np
    import scipy.optimize
    from polydg import (basis, blocklinalg, discretization, euler, mesh,
                        timestepping, vonneumann)

    t = tracer
    bl = blocklinalg

    def iterations(metric):
        return lambda tr, args, out: tr.add(metric, out[1])

    functions = [
        (mesh.build_regular_mesh, "mesh.build",
         lambda tr, args, out: tr.add("mesh.cells", out.n_cells)),
        (mesh.build_random_mesh_pair, "mesh.build",
         lambda tr, args, out: tr.add("mesh.cells",
                                      sum(m.n_cells for m in out))),
        (mesh.natural_ordering, "mesh.ordering", None),
        (discretization.assemble_advection, "discretization.assemble",
         lambda tr, args, out: tr.add("discretization.blocks",
                                      sum(m.n_blocks for m in out))),
        (bl.block_jacobi_solve, "blocklinalg.jacobi_solve",
         iterations("blocklinalg.jacobi_iters")),
        (bl.gmres, "blocklinalg.gmres", iterations("blocklinalg.gmres_iters")),
        (timestepping.newton_solve, "timestepping.newton",
         lambda tr, args, out: tr.add("timestepping.newton_steps",
                                      out.n_iters)),
        (vonneumann.max_spectral_radius, "vonneumann.sweep", None),
    ]
    for fn, name, count in functions:
        replace_function(fn, t.span(name, fn, count))
    # max_spectral_radius imports minimize at call time; only it calls it
    scipy.optimize.minimize = t.span("vonneumann.refine",
                                     scipy.optimize.minimize)

    def calls(metric):
        return lambda tr, args, out: tr.add(metric)

    def factored(metric):
        def count(tr, args, out):
            tr.add(metric)
            tr.factored(metric, args[1])
        return count

    methods = [
        (basis.DgSpace, "__init__", "basis.dgspace",
         lambda tr, args, out: tr.add("basis.quad_nodes",
                                      _quad_nodes(args[0]))),
        (basis.DgSpace, "project", "basis.project", None),
        (euler.EulerDiscretization, "__init__", "euler.setup", None),
        (euler.EulerDiscretization, "project_exact", "euler.setup", None),
        (euler.EulerDiscretization, "mass_blocks", "euler.setup", None),
        (euler.EulerDiscretization, "spatial_residual", "euler.residual",
         calls("euler.residual_calls")),
        (euler.EulerDiscretization, "spatial_jacobian", "euler.jacobian",
         calls("euler.jacobian_calls")),
        (bl.BlockSparseMatrix, "from_block_dict", "blocklinalg.assembly",
         None),
        (bl.BlockSparseMatrix, "matvec", "blocklinalg.matvec",
         calls("blocklinalg.matvec_calls")),
        (bl.BlockILU0Factorization, "__init__", "blocklinalg.ilu0_setup",
         factored("blocklinalg.ilu0_setups")),
        (bl.BlockILU0Factorization, "apply", "blocklinalg.ilu0_apply",
         calls("blocklinalg.ilu0_applies")),
        (bl.BlockJacobiFactorization, "__init__", "blocklinalg.jacobi_setup",
         factored("blocklinalg.jacobi_setups")),
        (bl.BlockJacobiFactorization, "apply", "blocklinalg.jacobi_apply",
         None),
        (vonneumann.PatternOperators, "__init__", "vonneumann.operators",
         None),
    ]
    for cls, attr, name, count in methods:
        wrap_method(cls, attr,
                    lambda fn, name=name, count=count: t.span(name, fn, count))

    def points(tr, args, out):
        tr.add("vonneumann.symbol_points", np.broadcast(args[2], args[3]).size)

    wrap_method(vonneumann.PatternSymbol, "spectral_radius_phases",
                lambda fn: t.counter(fn, points))


def layer_metrics(spans, counts, wall):
    """Per-layer metrics of one traced driver call that took `wall` seconds."""
    child = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    self_time = {}
    covered = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        self_time[name] = self_time.get(name, 0.0) + (end - start) - child[i]
        if parent < 0:
            covered += end - start
    out = {metric: self_time.get(span, 0.0)
           for span, metric in SPAN_METRICS.items()}
    out.update({name: counts.get(name, 0) for name in COUNT_METRICS})
    factorizations = counts.get("blocklinalg.factorizations", 0)
    out["blocklinalg.factor_reuse"] = (
        counts.get("blocklinalg.distinct_factored", 0) / factorizations
        if factorizations else 0.0)
    out["experiments.self_s"] = wall - covered
    out["trace.wall_s"] = wall
    return out
