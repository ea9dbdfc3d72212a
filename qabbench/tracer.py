"""Span recorder for the traced benchmark run, and the per-layer table built from it.

`install()` wraps the public functions of every qab layer module from outside
the package: each module attribute (and each value of a module-level dict,
such as the harness suite table) that is one of those functions is replaced
by a wrapper, so names imported with `from .x import f` are traced too.
`numpy.linalg.svd` and the harness worker pool get spans of their own.  Spans
stay in memory until `Recorder.dump()`; `layer_metrics()` turns a dump into
the per-layer numbers.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict

LAYERS = ("kinematics", "representation", "coalgebra", "smatrix", "kmatrix", "harness")
SUITES = ("rep-check", "coalgebra", "smatrix", "ybe", "kmatrix", "bybe", "unitarity", "limits")
_COMPLEX_BYTES = 16


def _kin_key(kin):
    return (complex(kin.x_plus), complex(kin.x_minus), kin.M)


def _svd_note(args, kwargs):
    a = args[0]
    m, n = a.shape[-2:]
    k = min(m, n)
    full = kwargs.get("full_matrices", args[1] if len(args) > 1 else True)
    uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
    if not uv:
        elems = k
    elif full:
        elems = m * m + n * n + k
    else:
        elems = 2 * m * k + k
    return {"rows": m, "cols": n, "factor_mb": elems * _COMPLEX_BYTES / 1e6}


# Argument facts a metric needs, recorded on the span of the named function.
_NOTES = {
    "smatrix.solve_intertwiner": lambda a, kw: {"pair": repr((_kin_key(a[0]), _kin_key(a[1])))},
    "representation.verify_algebra": lambda a, kw: {"mp": kw.get("dtype", complex) is object},
    "representation.build_basis": lambda a, kw: {"M": a[0]},
    "numpy.linalg.svd": _svd_note,
}


class Recorder:
    """In-memory span store with one parent stack per thread."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def wrap(self, name, fn, parent_of=None):
        note = _NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else (parent_of() if parent_of else None)
            extra = note(args, kwargs) if note else None
            stack.append(span_id)
            t0 = time.perf_counter()
            ok = False
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.spans.append((span_id, parent, name, t0, t1, ok, extra))

        return traced

    def dump(self):
        return [list(s) for s in self.spans]


def install(recorder: Recorder):
    """Patch every lookup site of the layer functions; returns the recorder."""
    import importlib

    import numpy as np

    modules = {name: importlib.import_module(f"qab.{name}") for name in LAYERS}
    originals = {}
    for layer, mod in modules.items():
        for attr, val in vars(mod).items():
            if (
                not attr.startswith("_")
                and callable(val)
                and getattr(val, "__module__", None) == mod.__name__
                and not isinstance(val, type)
                and attr != "main"
            ):
                originals[id(val)] = recorder.wrap(f"{layer}.{attr}", val)
    for mod in modules.values():
        for attr, val in list(vars(mod).items()):
            if id(val) in originals:
                setattr(mod, attr, originals[id(val)])
            elif isinstance(val, dict):
                for key, item in val.items():
                    if id(item) in originals:
                        val[key] = originals[id(item)]

    np.linalg.svd = recorder.wrap("numpy.linalg.svd", np.linalg.svd)

    harness = modules["harness"]
    map_points = harness._map_points

    def traced_map_points(fn, jobs):
        # Pool threads start with an empty stack: hang their per-point spans
        # under the span that submitted the jobs.
        submitter = recorder.current()
        point = recorder.wrap("harness.point", fn, parent_of=lambda: submitter)
        return map_points(point, jobs)

    harness._map_points = traced_map_points
    return recorder


def _union(intervals):
    total, end = 0.0, None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def layer_metrics(spans, verify_s):
    """Per-layer counts and times from one traced pass's spans."""
    by_id = {}
    children = defaultdict(list)
    for span_id, parent, name, t0, t1, ok, extra in spans:
        by_id[span_id] = (parent, name, t0, t1, ok, extra or {})
        if parent is not None:
            children[parent].append(span_id)

    def self_time(span_id):
        _, _, t0, t1, _, _ = by_id[span_id]
        covered = _union(
            (max(t0, by_id[c][2]), min(t1, by_id[c][3])) for c in children[span_id]
        )
        return (t1 - t0) - covered

    def ancestors(span_id):
        parent = by_id[span_id][0]
        while parent is not None and parent in by_id:
            yield by_id[parent][1]
            parent = by_id[parent][0]

    def named(*names):
        return [i for i, s in by_id.items() if s[1] in names]

    def spanned(*names):
        """Time inside any of `names`, nested calls among them counted once."""
        wanted = set(names)
        return sum(
            by_id[i][3] - by_id[i][2]
            for i in named(*names)
            if not wanted.intersection(ancestors(i))
        )

    def self_of(*names):
        return sum(self_time(i) for i in named(*names))

    def owner(span_id):
        for name in ancestors(span_id):
            if name.startswith(("smatrix.", "kmatrix.")):
                return name.split(".")[0]
        return None

    layer_self = defaultdict(float)
    for i, (_, name, *_rest) in by_id.items():
        layer_self[name.split(".")[0]] += self_time(i)

    svds = {"smatrix": [], "kmatrix": []}
    for i in named("numpy.linalg.svd"):
        who = owner(i)
        if who:
            svds[who].append(i)
    all_svds = named("numpy.linalg.svd")
    svd_total = sum(by_id[i][3] - by_id[i][2] for i in all_svds)
    # Wall time during which at least one SVD runs; the pool overlaps them.
    svd_wall = _union((by_id[i][2], by_id[i][3]) for i in all_svds)

    def svd_time(ids):
        return sum(by_id[i][3] - by_id[i][2] for i in ids)

    def svd_max(ids, key):
        return max((by_id[i][5][key] for i in ids), default=0)

    solves = named("smatrix.solve_intertwiner")
    pairs = {by_id[i][5]["pair"] for i in solves}
    bases = named("representation.build_basis")
    basis_ms = {by_id[i][5]["M"] for i in bases}
    algebra = named("representation.verify_algebra")
    samples = [i for i in named("harness.sample_kinematics") if by_id[i][4]]
    shortening = named("kinematics.solve_shortening")
    suite_wall = spanned(*(f"harness.suite_{s.replace('-', '_')}" for s in SUITES))
    point_time = sum(by_id[i][3] - by_id[i][2] for i in named("harness.point"))

    out = {
        "kinematics.calls": len([i for i, s in by_id.items() if s[1].startswith("kinematics.")]),
        "kinematics.busy_s": layer_self["kinematics"],
        "kinematics.sample_accept_ratio": len(samples) / max(1, len(shortening)),
        "representation.generators_calls": len(named("representation.all_generators")),
        "representation.generators_s": spanned("representation.all_generators"),
        "representation.basis_reuse_ratio": len(bases) / max(1, len(basis_ms)),
        "representation.verify_algebra_s": sum(
            by_id[i][3] - by_id[i][2] for i in algebra if not by_id[i][5]["mp"]
        ),
        "representation.verify_algebra_mp_s": sum(
            by_id[i][3] - by_id[i][2] for i in algebra if by_id[i][5]["mp"]
        ),
        "coalgebra.coproduct_calls": len(named("coalgebra.coproduct", "coalgebra.opposite_coproduct")),
        "coalgebra.coproduct_s": spanned("coalgebra.coproduct", "coalgebra.opposite_coproduct"),
        "coalgebra.permutation_calls": len(named("coalgebra.graded_permutation")),
        "coalgebra.permutation_s": spanned("coalgebra.graded_permutation"),
        "coalgebra.twisted_s": spanned("coalgebra.twisted_boundary_charges"),
        "coalgebra.checks_s": spanned(
            "coalgebra.hom_check", "coalgebra.coideal_expansion_check",
            "coalgebra.twisted_f1_action_residual", "coalgebra.twisted_central_invariance",
            "coalgebra.yangian_limit_probe",
        ),
        "smatrix.solve_calls": len(solves),
        "smatrix.solve_distinct_ratio": len(pairs) / max(1, len(solves)),
        "smatrix.nullspace_s": spanned("smatrix.intertwiner_nullspace"),
        "smatrix.assembly_s": self_of("smatrix.intertwiner_nullspace"),
        "smatrix.svd_s": svd_time(svds["smatrix"]),
        "smatrix.svd_rows_max": svd_max(svds["smatrix"], "rows"),
        "smatrix.svd_cols_max": svd_max(svds["smatrix"], "cols"),
        "smatrix.svd_factor_mb_max": svd_max(svds["smatrix"], "factor_mb"),
        "smatrix.ybe_self_s": self_of("smatrix.ybe_residual"),
        "kmatrix.closed_form_s": spanned("kmatrix.closed_form_kmatrix"),
        "kmatrix.boundary_solve_calls": len(named(
            "kmatrix.solve_boundary_intertwiner", "kmatrix.boundary_nullspace_dimension"
        )),
        "kmatrix.boundary_assembly_s": self_of(
            "kmatrix.solve_boundary_intertwiner", "kmatrix.boundary_nullspace_dimension"
        ),
        "kmatrix.boundary_svd_s": svd_time(svds["kmatrix"]),
        "kmatrix.svd_factor_mb_max": svd_max(svds["kmatrix"], "factor_mb"),
        "kmatrix.bybe_self_s": self_of("kmatrix.boundary_ybe_residual"),
        "kmatrix.residuals_s": spanned(
            "kmatrix.invariance_residual", "kmatrix.unitarity_residual",
            "kmatrix.ck_symmetry_residual", "kmatrix.compare_kmatrices",
        ),
        "harness.sample_s": spanned("harness.sample_kinematics"),
        "harness.emit_s": spanned("harness.emit_report"),
        "harness.overlap_ratio": point_time / suite_wall if suite_wall else 0.0,
        "linalg.svd_s": svd_total,
        "linalg.svd_share": svd_wall / verify_s if verify_s else 0.0,
    }
    for suite in SUITES:
        out[f"harness.suite_s.{suite}"] = spanned(f"harness.suite_{suite.replace('-', '_')}")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer]
    return out
