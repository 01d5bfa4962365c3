"""Span tracing of pwham from outside, and the per-layer split derived from it.

``Tracer.install`` replaces the public names pwham calls across its module
boundaries with wrappers that record a span (name, start, end, parent span,
unit id) or, on the hottest calls, only bump a counter.  Each name is
patched where it is looked up: ``pwham.solver`` binds the algebra, matcher
and systems functions by value at import, ``pwham.algebra`` calls its own
functions through its globals, and methods are patched on their classes.
``uninstall`` restores every original.  Spans stay in memory until
``layer_metrics`` derives the per-layer numbers from them.

A span's self time is its duration minus the durations of its direct
children; the ``unit`` root span is the benchmark's own, so per unit the
layers' self times add up to at most the unit's wall time.
"""

from __future__ import annotations

import functools
import statistics
from time import perf_counter

from pwham import algebra, cli, dynamics, solver

# (layer span name, owners that look the function up, attribute name)
FUNCTIONS = (
    ("algebra.refine_root", (solver, algebra), "refine_root"),
    ("algebra.sturm_isolate", (solver, algebra), "sturm_isolate"),
    ("algebra.squarefree", (solver, algebra), "squarefree"),
    ("algebra.real_roots", (solver,), "real_roots"),
    ("algebra.resultant", (algebra,), "resultant"),
    ("matcher.build", (solver,), "matching_systems_for"),
    ("matcher.sum_diff", (solver,), "to_sum_diff"),
    ("systems.is_continuous", (solver,), "is_continuous"),
    ("solver.solve", (solver,), "solve"),
    ("solver.back_substitute", (solver,), "back_substitute"),
    ("solver.annulus_check", (solver,), "annulus_check"),
    ("dynamics.integrate_arc", (dynamics,), "integrate_arc"),
    ("specfile.load_spec", (cli,), "load_spec"),
    ("cli.report_to_json", (cli,), "report_to_json"),
)
METHODS = (
    ("dynamics.displacement", dynamics.FlowMachine, "displacement"),
    ("dynamics.oracle", dynamics.FlowMachine, "oracle"),
    ("dynamics.return_map", dynamics.FlowMachine, "return_map"),
    ("dynamics.verify", dynamics.FlowMachine, "verify_candidate"),
)
ALGEBRA_SPANS = tuple(n for n, _, _ in FUNCTIONS if n.startswith("algebra."))

NAME, START, END, PARENT, UNIT, RAISED = range(6)


class Tracer:
    """Records spans and counters while installed; one per traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.unit = -1
        self.poly_evals = 0
        self.field_evals = 0
        self.arcs_to_boundary = 0
        self.displacement_defined = 0
        self.reports: list = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def wrap(self, name: str, fn, observe=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.unit, False]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[RAISED] = True
                raise
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(out)
            return out

        return traced

    def run_unit(self, unit_id: int, fn, *args):
        """Run ``fn(*args)`` under a ``unit`` root span."""
        self.unit = unit_id
        return self.wrap("unit", fn)(*args)

    def _observe_arc(self, traj):
        if traj.status == "reached-boundary":
            self.arcs_to_boundary += 1

    def _observe_displacement(self, d):
        if d is not None:
            self.displacement_defined += 1

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attr: str, new):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        observers = {"dynamics.integrate_arc": self._observe_arc,
                     "solver.solve": self.reports.append,
                     "dynamics.displacement": self._observe_displacement}
        for name, owners, attr in FUNCTIONS:
            traced = self.wrap(name, getattr(owners[0], attr), observers.get(name))
            for owner in owners:
                self._patch(owner, attr, traced)
        for name, cls, attr in METHODS:
            self._patch(cls, attr, self.wrap(name, cls.__dict__[attr], observers.get(name)))

        poly_call = algebra.UniPoly.__call__

        def counted_poly_call(poly, x):
            self.poly_evals += 1
            return poly_call(poly, x)

        self._patch(algebra.UniPoly, "__call__", counted_poly_call)

        zone_field_fn = dynamics.zone_field_fn

        def counted_zone_field_fn(zone):
            f = zone_field_fn(zone)

            def counted_field(x, y):
                self.field_evals += 1
                return f(x, y)

            return counted_field

        self._patch(dynamics, "zone_field_fn", counted_zone_field_fn)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- derived per-layer metrics -------------------------------------------

    def self_times(self) -> list[float]:
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def layer_metrics(self, units: int) -> dict:
        """Every per-layer metric of the traced pass, as {name: (value, unit)}."""
        own = self.self_times()
        self_s: dict[str, float] = {}
        total_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        raised: dict[str, int] = {}
        for i, s in enumerate(self.spans):
            name = s[NAME]
            self_s[name] = self_s.get(name, 0.0) + own[i]
            calls[name] = calls.get(name, 0) + 1
            raised[name] = raised.get(name, 0) + s[RAISED]
            # inclusive time counts only the outermost span of each name
            ancestors = set()
            p = s[PARENT]
            while p >= 0:
                ancestors.add(self.spans[p][NAME])
                p = self.spans[p][PARENT]
            if name not in ancestors:
                total_s[name] = total_s.get(name, 0.0) + (s[END] - s[START])

        # children run inside their parent, so per unit the layers' self
        # times add up to at most the unit's wall time
        if min(own, default=0.0) < -1e-9:
            raise ValueError("a span's children outlast it")
        wall = total_s.get("unit", 0.0)

        reports = self.reports
        candidates = sum(len(r.candidates) for r in reports)
        verified = sum(len(r.verified()) for r in reports)
        extraneous = sum(d.get("extraneous_roots", 0)
                         for r in reports for d in r.diagnostics["topologies"].values())
        bits = [_bits(r.eliminant) for r in reports if not r.eliminant.is_zero]
        arcs = calls.get("dynamics.integrate_arc", 0)
        displacements = calls.get("dynamics.displacement", 0)

        def share(part: float) -> float:
            return part / wall if wall else 0.0

        m = {}
        for name in ALGEBRA_SPANS:
            m[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
        m["algebra.refine_root.calls"] = (calls.get("algebra.refine_root", 0), "count")
        m["algebra.resultant.calls"] = (calls.get("algebra.resultant", 0), "count")
        m["algebra.real_roots.total_s"] = (total_s.get("algebra.real_roots", 0.0), "s")
        m["algebra.poly_evals"] = (self.poly_evals, "count")
        m["algebra.eliminant_degree_max"] = (
            max((max(r.eliminant.degree, 0) for r in reports), default=0), "count")
        m["algebra.eliminant_bits_p50"] = (statistics.median(bits) if bits else 0, "bits")
        m["algebra.self_share"] = (share(sum(self_s.get(n, 0.0) for n in ALGEBRA_SPANS)),
                                   "s/s")
        for name in ("matcher.build", "matcher.sum_diff", "systems.is_continuous",
                     "solver.solve", "solver.back_substitute", "dynamics.integrate_arc"):
            m[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
        m["systems.is_continuous.calls"] = (calls.get("systems.is_continuous", 0), "count")
        m["solver.annulus_check.total_s"] = (total_s.get("solver.annulus_check", 0.0), "s")
        m["solver.annulus_check.calls"] = (calls.get("solver.annulus_check", 0), "count")
        m["solver.candidates"] = (candidates, "count")
        m["solver.verified"] = (verified, "count")
        m["solver.extraneous_roots"] = (extraneous, "count")
        m["solver.verified_ratio"] = (verified / candidates if candidates else 0.0, "ratio")
        m["solver.posdim_share"] = (
            sum(r.positive_dimensional for r in reports) / units, "ratio")
        m["dynamics.integrate_arc.calls"] = (arcs, "count")
        m["dynamics.integrate_arc.self_share"] = (
            share(self_s.get("dynamics.integrate_arc", 0.0)), "s/s")
        m["dynamics.field_evals"] = (self.field_evals, "count")
        m["dynamics.field_evals_per_arc"] = (self.field_evals / arcs if arcs else 0.0, "count")
        m["dynamics.arc_boundary_ratio"] = (self.arcs_to_boundary / arcs if arcs else 0.0,
                                            "ratio")
        m["dynamics.displacement.calls"] = (displacements, "count")
        m["dynamics.displacement.defined_ratio"] = (
            self.displacement_defined / displacements if displacements else 0.0, "ratio")
        m["dynamics.oracle.total_s"] = (total_s.get("dynamics.oracle", 0.0), "s")
        m["dynamics.return_map.calls"] = (calls.get("dynamics.return_map", 0), "count")
        m["dynamics.return_map.failed"] = (raised.get("dynamics.return_map", 0), "count")
        m["dynamics.verify.total_s"] = (total_s.get("dynamics.verify", 0.0), "s")
        m["dynamics.verify.calls"] = (calls.get("dynamics.verify", 0), "count")
        m["specfile.load_spec.total_s"] = (total_s.get("specfile.load_spec", 0.0), "s")
        m["cli.report_to_json.total_s"] = (total_s.get("cli.report_to_json", 0.0), "s")
        m["workload.three_zone_share"] = (
            sum(r.main_topology() == "three_zone" for r in reports) / units, "ratio")
        m["workload.oracle_share"] = (
            len({s[UNIT] for s in self.spans if s[NAME] == "dynamics.oracle"}) / units, "ratio")
        return m


def _bits(poly) -> int:
    """Largest numerator or denominator bit length among the coefficients."""
    return max(max(abs(c.numerator).bit_length(), c.denominator.bit_length())
               for c in poly.coeffs if c)

