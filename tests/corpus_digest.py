"""One-command answer identity check over the benchmark corpora.

Run from the repository root:

    python3 tests/corpus_digest.py [--root CHECKOUT] [--census]

It prints ten SHA-256 digests:

* ``solve``: ``cli.report_to_json`` plus every candidate's exact ordinates,
  over the first 600 ``bulk`` units, the 120 ``bigcoef`` units and the first
  300 ``annulus`` units, each at its default seed; a unit that raises
  contributes its exception instead;
* ``fixtures``: the stdout and exit code of
  ``pwham solve FIXTURE --grid 128 --json`` on every fixture;
* ``oracle``: the shooting oracle's fixed ordinates,
  ``FlowMachine(ps).oracle(oracle_window(rep), 64)``, listed per boundary,
  with ``rep = solve(ps, verify=False)``, over the first 60 ``bulk`` and the
  first 60 ``annulus`` units at their default seeds: the shooting side on
  systems that are not fixtures;
* ``returns``: the ``repr`` of ``FlowMachine(ps, cfg).displacement(b, y, d)``
  at 41 evenly spaced ordinates y across ``oracle_window(rep)``, on every
  boundary b in both crossing directions d, under the default budget and
  under ``IntegratorConfig(max_time=60)``, over the fixtures, the first 100
  ``bulk`` and the first 100 ``annulus`` units: every return map, defined
  or not, float for float (43 132 maps, 1 796 of them defined);
* ``arcs``: the status, the edge and, for a landing, the end point of every
  ``dynamics.integrate_arc`` call while ``workloads.run_unit`` runs one
  ``cli_oracle`` pass, the first 300 ``annulus`` units and the first 300
  ``bulk`` units at their default seeds: every arc the solver, the
  verifier, the annulus scan and the oracle run, whatever the walk makes
  of it;
* ``mixed``: ``cli.report_to_json`` plus every candidate's exact ordinates
  of ``solve(ps, verify=False)`` over 40 three-zone systems at each of the
  seeds 7 and 11, with boundaries -1 and 1 and each zone's family drawn
  uniformly from the four (offsets 1, 0 and -1 from left to right): the
  general elimination that no benchmark workload takes, with resultants of
  two nonlinear equations;
* ``mirrored``: the same as ``mixed`` on the mirror image of each of those
  systems (``systems.mirror``): a candidate that the algebra finds on a
  system but not on its mirror changes this line;
* ``mixed_returns``: the ``repr`` of ``FlowMachine(ps, cfg).displacement(b, y, d)``
  on the same 80 three-zone systems at 21 evenly spaced ordinates y from
  -5 to 5, on both boundaries b in both crossing directions d, under the
  default budget and under ``IntegratorConfig(max_time=60)``: arcs through
  nonlinear middle and right zones, which no other corpus has;
* ``mixed_arcs``: the status, the edge and, for a landing, the end point of
  every ``dynamics.integrate_arc`` call while the ``mixed_returns`` maps
  run, as ``arcs`` logs them: a changed arc there that no map shows;
* ``portraits``: the CSV that ``pwham portrait FIXTURE --samples 7``
  writes, and its exit code, on every fixture: the one caller that sets a
  window (``IntegratorConfig.window``).

The inputs come from ``bench/workloads``, so they are the benchmark's own
(``build_units``) or drawn by its generators (``mixed``).  ``--root``
imports pwham and the workloads from another checkout (say, a copy of the
parent commit), so that two commits compare by two runs of this one
script: a change that keeps every answer prints the same ten lines.

``--census`` prints one more line per arc corpus (``cli_oracle``,
``annulus`` and ``bulk`` of ``arcs``, and ``mixed_returns`` for
``mixed_arcs``): how many arcs end on a landing, on the escape proof in y
(an ``ArcPlan.escaped`` call that returned True), on a linear zone's
decision (its ``left-window``), as another ``left-window`` (a window, a
step that overflows or collapses), at an equilibrium, on the time limit
or on the step limit, and the sum of their accepted DOP853 steps; one
more per arc corpus with the ``ArcPlan.escaped`` calls (the escape tries)
and how many of them held, which moves when the reach rows or the try
schedule change; and one line per solve corpus of
``arcs`` on the annulus scan: the ``solver.annulus_check`` calls (one per
solve, with no boundary when no topology is positive-dimensional), the
``displacement`` calls made inside them and the closed magnitudes they
found; one line per solve corpus, and one for ``mixed`` with its mirrors,
with the topologies that the crossing charts refuted, per tag, the systems
whose every topology they refuted, and the candidates without the gate
(each refuted topology's route run again with none) and with it; and one
line per solve corpus with the polynomial splits that
``solve`` makes over it (the calls of ``algebra._primitive``, which splits
every new polynomial into its content and primitive part), in total and
per unit, a count that repeats exactly and falls when the set-up builds
fewer polynomials; and one line per solve corpus with the hits and misses
of each module-level ``lru_cache`` of the package over it, so that a cache
that stops paying shows.  Without it nothing is wrapped but
``integrate_arc``, for the two arc digests.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import io
import json
import os
import random
import sys
from dataclasses import replace

CORPORA = (("bulk", 600), ("bigcoef", 120), ("annulus", 300))
ORACLE_CORPORA = (("bulk", 60), ("annulus", 60))
ORACLE_SCAN_GRID = 64
RETURN_CORPORA = (("bulk", 100), ("annulus", 100))
RETURN_ORDINATES = 41
ARC_CORPORA = (("cli_oracle", None), ("annulus", 300), ("bulk", 300))
MIXED_SEEDS = (7, 11)
MIXED_COUNT = 40
# a zone of each family: the center of a two-zone configuration, or a saddle
MIXED_FAMILIES = ("double_center+saddle", "global_center+saddle", "cubic_center+saddle", None)
MIXED_RETURN_ORDINATES = [-5 + 10 * i / 20 for i in range(21)]
TAGS = ("two_zone", "two_zone@0", "two_zone@1", "three_zone")


def rand_mixed(rng, rand_config, rand_saddle, piecewise_system):
    """Three zones split by x = -1 and x = 1, each zone's family drawn
    uniformly from ``MIXED_FAMILIES`` by the given generators, at offsets
    1, 0 and -1 from left to right: the general elimination, with
    resultants of two nonlinear equations."""
    zones = []
    for offset in (1, 0, -1):
        config = rng.choice(MIXED_FAMILIES)
        zones.append(rand_saddle(rng) if config is None else
                     replace(rand_config(rng, config).zones[0].payload, offset=offset))
    return piecewise_system(zones, [-1, 1])


def _mixed_systems(workloads, piecewise_system):
    """(label, system) of the ``mixed`` corpus, in order."""
    for seed in MIXED_SEEDS:
        rng = random.Random(seed)
        for i in range(MIXED_COUNT):
            ps = rand_mixed(rng, workloads.rand_config, workloads.rand_saddle, piecewise_system)
            yield f"mixed-{seed}-{i}", ps


def _cli_digest(cli, workloads, command, *options):
    """SHA-256 of the stdout and exit code of ``pwham COMMAND FIXTURE
    OPTIONS...`` on every fixture."""
    h = hashlib.sha256()
    for path in workloads.fixture_paths():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main([command, path, *options])
        h.update(f"{os.path.basename(path)} {code}\n{out.getvalue()}".encode())
    return h.hexdigest()


def _return_maps(dynamics, ps, ys):
    """The ``repr`` of every displacement at the ordinates ys, per budget
    (the default, then ``max_time=60``), boundary and crossing direction."""
    return [[repr(machine.displacement(b, y, d)) for y in ys]
            for machine in (dynamics.FlowMachine(ps),
                            dynamics.FlowMachine(ps, dynamics.IntegratorConfig(max_time=60)))
            for b in range(len(ps.boundaries)) for d in (1, -1)]


@contextlib.contextmanager
def _arc_log(dynamics, h):
    """Hash into h the status, the edge and, for a landing, the end point
    of every ``dynamics.integrate_arc`` call made while the block runs."""
    arc = dynamics.integrate_arc

    def logged(*args, **kwargs):
        traj = arc(*args, **kwargs)
        landed = traj.status == "reached-boundary"
        h.update(f"{traj.status} {traj.edge} {traj.end if landed else ''}\n".encode())
        return traj

    dynamics.integrate_arc = logged
    try:
        yield
    finally:
        dynamics.integrate_arc = arc


ARC_ENDS = {"reached-boundary": "landing", "hit-equilibrium": "equilibrium",
            "reached-time-limit": "time", "step-limit": "steps"}


@contextlib.contextmanager
def _census(dynamics, solver, tally):
    """Count into the Counter ``tally`` how every ``dynamics.integrate_arc``
    call made while the block runs ends, and sum its accepted steps: a
    ``left-window`` arc is a y proof when an ``ArcPlan.escaped`` call of
    the arc returned True, else a linear decision in a ``linear`` zone, else
    another ``left-window``.  Count too every ``solver.annulus_check``
    call, the displacements it asks of its machine and the magnitudes
    (boundary, |y|) at which one of them closes."""
    arc, escaped, scan = dynamics.integrate_arc, dynamics.ArcPlan.escaped, solver.annulus_check
    proofs = []

    def proving(self, y, h):
        proven = escaped(self, y, h)
        tally["y tries"] += 1
        if proven:
            proofs.append(y)
            tally["y held"] += 1
        return proven

    def counted(zone, *args, **kwargs):
        proofs.clear()
        traj = arc(zone, *args, **kwargs)
        if traj.status != "left-window":
            end = ARC_ENDS[traj.status]
        elif proofs:
            end = "y proof"
        else:
            kind = (zone.zone if isinstance(zone, dynamics.ArcPlan) else zone).kind
            end = "linear decision" if kind == "linear" else "other left-window"
        tally[end] += 1
        tally["accepted steps"] += traj.steps
        return traj

    def scanned(machine, boundaries):
        closed = set()

        def displacement(b, y, direction):
            d = type(machine).displacement(machine, b, y, direction)
            tally["displacements"] += 1
            if d is not None and abs(d) < dynamics.CLOSURE_TOL:
                closed.add((b, abs(y)))
            return d

        machine.displacement = displacement
        try:
            return scan(machine, boundaries)
        finally:
            del machine.displacement
            tally["annulus_check calls"] += 1
            tally["closed magnitudes"] += len(closed)

    dynamics.integrate_arc, dynamics.ArcPlan.escaped = counted, proving
    solver.annulus_check = scanned
    try:
        yield
    finally:
        dynamics.integrate_arc, dynamics.ArcPlan.escaped = arc, escaped
        solver.annulus_check = scan


@contextlib.contextmanager
def _splits(algebra, tally, name):
    """Count into ``tally[name]`` the calls of ``algebra._primitive``, the
    content/primitive split of every polynomial that ``algebra`` builds,
    made while the block runs."""
    primitive = algebra._primitive

    def counted(*args):
        tally[name] += 1
        return primitive(*args)

    algebra._primitive = counted
    try:
        yield
    finally:
        algebra._primitive = primitive


def _refuted(solver, matcher, ps, rep, tally):
    """Count into the Counter ``tally`` each topology of ``rep`` that the
    crossing charts refuted, by tag, a system whose every topology they
    refuted, and the candidates with the gate and without it: the count
    without it adds the tuples that each refuted topology's route
    (``solver._core``, called with no gate) finds."""
    refuted = rep.refuted()
    tally.update(list(refuted))
    tally["dead systems"] += len(refuted) == len(rep.diagnostics["topologies"])
    tally["gated"] += len(rep.candidates)
    tally["ungated"] += len(rep.candidates) + sum(
        len(solver._core(ms).tuples) for tag, _, ms in matcher.matching_systems_for(ps)
        if tag in refuted)


def _module_caches(*modules):
    """(module.name, function) of every ``lru_cache`` that the modules
    define at module level."""
    return [(f"{m.__name__.rsplit('.', 1)[-1]}.{n}", f) for m in modules
            for n, f in vars(m).items()
            if hasattr(f, "cache_info") and getattr(f, "__module__", None) == m.__name__]


@contextlib.contextmanager
def _cache_use(caches, tally):
    """Add into the Counter ``tally`` the hits and misses of each of
    ``caches`` made while the block runs."""
    before = [f.cache_info() for _, f in caches]
    try:
        yield
    finally:
        for (name, f), old in zip(caches, before):
            new = f.cache_info()
            tally[name, "hits"] += new.hits - old.hits
            tally[name, "misses"] += new.misses - old.misses


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    help="checkout whose src/ and bench/ are imported")
    ap.add_argument("--census", action="store_true",
                    help="also count how the arcs of each arc corpus end")
    args = ap.parse_args(argv)
    root = os.path.abspath(args.root)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "bench")]
    from pwham import algebra, cli, dynamics, matcher, reach, solver, specfile, systems
    from pwham.systems import mirror, piecewise_system
    import workloads

    splits = collections.Counter()
    caches = _module_caches(algebra, systems, matcher, reach, dynamics, solver)
    uses = {name: collections.Counter() for name, _ in CORPORA}
    refutes = {name: collections.Counter() for name, _ in (*CORPORA, ("mixed", None))}
    h = hashlib.sha256()
    for name, count in CORPORA:
        for _, label, ps in workloads.build_units(name, workloads.DEFAULT_SEEDS[name], count):
            try:
                with (_splits(algebra, splits, name) if args.census
                      else contextlib.nullcontext()), _cache_use(caches, uses[name]):
                    rep = solver.solve(ps, verify=True, cfg=workloads.BULK_CFG)
            except Exception as e:  # the failure is part of the answer
                entry = {"label": label, "raised": f"{type(e).__name__}: {e}"}
            else:
                entry = {"label": label, "report": cli.report_to_json(ps, rep),
                         "exact": [[[b, str(v)] for b, v in c.ordinates]
                                   for c in rep.candidates]}
                if args.census:
                    _refuted(solver, matcher, ps, rep, refutes[name])
            h.update(json.dumps(entry, sort_keys=True).encode() + b"\n")
    print(f"solve {h.hexdigest()}")

    grid = str(workloads.ORACLE_GRID)
    print(f"fixtures {_cli_digest(cli, workloads, 'solve', '--grid', grid, '--json')}")

    h = hashlib.sha256()
    for name, count in ORACLE_CORPORA:
        for _, label, ps in workloads.build_units(name, workloads.DEFAULT_SEEDS[name], count):
            try:
                window = dynamics.oracle_window(solver.solve(ps, verify=False))
                found = dynamics.FlowMachine(ps).oracle(window, ORACLE_SCAN_GRID)
                entry = {"label": label,
                         "oracle": [found[b] for b in range(len(ps.boundaries))]}
            except Exception as e:  # the failure is part of the answer
                entry = {"label": label, "raised": f"{type(e).__name__}: {e}"}
            h.update(json.dumps(entry, sort_keys=True).encode() + b"\n")
    print(f"oracle {h.hexdigest()}")

    h = hashlib.sha256()
    systems = [(os.path.basename(path), specfile.load_spec(path).to_system())
               for path in workloads.fixture_paths()]
    for name, count in RETURN_CORPORA:
        systems += [(label, ps) for _, label, ps in
                    workloads.build_units(name, workloads.DEFAULT_SEEDS[name], count)]
    for label, ps in systems:
        try:
            lo, hi = dynamics.oracle_window(solver.solve(ps, verify=False))
            ys = [lo + (hi - lo) * i / (RETURN_ORDINATES - 1) for i in range(RETURN_ORDINATES)]
            entry = {"label": label, "returns": _return_maps(dynamics, ps, ys)}
        except Exception as e:  # the failure is part of the answer
            entry = {"label": label, "raised": f"{type(e).__name__}: {e}"}
        h.update(json.dumps(entry, sort_keys=True).encode() + b"\n")
    print(f"returns {h.hexdigest()}")

    tallies = {name: collections.Counter() for name, _ in ARC_CORPORA}
    tallies["mixed_returns"] = collections.Counter()

    def census(name):
        return (_census(dynamics, solver, tallies[name]) if args.census
                else contextlib.nullcontext())

    h = hashlib.sha256()
    with _arc_log(dynamics, h):
        for name, count in ARC_CORPORA:
            count = count or len(workloads.fixture_paths())
            with census(name):
                for unit in workloads.build_units(name, workloads.DEFAULT_SEEDS[name], count):
                    h.update(f"{unit[1]}\n".encode())
                    try:
                        workloads.run_unit(unit)
                    except Exception as e:  # the failure is part of the answer
                        h.update(f"raised {type(e).__name__}: {e}\n".encode())
    print(f"arcs {h.hexdigest()}")

    mixed = list(_mixed_systems(workloads, piecewise_system))
    for line, view in (("mixed", lambda ps: ps), ("mirrored", mirror)):
        h = hashlib.sha256()
        for label, ps in mixed:
            ps = view(ps)
            try:
                rep = solver.solve(ps, verify=False)
            except Exception as e:  # the failure is part of the answer
                entry = {"label": label, "raised": f"{type(e).__name__}: {e}"}
            else:
                entry = {"label": label, "report": cli.report_to_json(ps, rep),
                         "exact": [[[b, str(v)] for b, v in c.ordinates]
                                   for c in rep.candidates]}
                if args.census:
                    _refuted(solver, matcher, ps, rep, refutes["mixed"])
            h.update(json.dumps(entry, sort_keys=True).encode() + b"\n")
        print(f"{line} {h.hexdigest()}")

    h, arcs = hashlib.sha256(), hashlib.sha256()
    with _arc_log(dynamics, arcs), census("mixed_returns"):
        for label, ps in mixed:
            arcs.update(f"{label}\n".encode())
            try:
                entry = {"label": label,
                         "returns": _return_maps(dynamics, ps, MIXED_RETURN_ORDINATES)}
            except Exception as e:  # the failure is part of the answer
                entry = {"label": label, "raised": f"{type(e).__name__}: {e}"}
            h.update(json.dumps(entry, sort_keys=True).encode() + b"\n")
    print(f"mixed_returns {h.hexdigest()}")
    print(f"mixed_arcs {arcs.hexdigest()}")
    print(f"portraits {_cli_digest(cli, workloads, 'portrait', '--samples', '7')}")
    if args.census:
        ends = ("landing", "y proof", "linear decision", "other left-window",
                "equilibrium", "time", "steps")
        for name, tally in tallies.items():
            counts = ", ".join(f"{end} {tally[end]}" for end in ends)
            print(f"census {name}: {counts}; accepted steps {tally['accepted steps']}")
            print(f"escape {name}: y tries {tally['y tries']}, held {tally['y held']}")
        for name, _ in ARC_CORPORA:
            counts = ", ".join(f"{key} {tallies[name][key]}" for key in
                               ("annulus_check calls", "displacements", "closed magnitudes"))
            print(f"scan {name}: {counts}")
        for name, count in CORPORA:
            print(f"splits {name}: {splits[name]} in {count} units, "
                  f"{splits[name] / count:.1f} per unit")
        for name, tally in refutes.items():
            print(f"refuted {name}: " + ", ".join(f"{tag} {tally[tag]}" for tag in TAGS)
                  + f"; {tally['dead systems']} systems with every topology refuted; "
                  f"candidates {tally['ungated']} -> {tally['gated']}")
        for name, _ in CORPORA:
            print(f"caches {name}: " + "; ".join(
                f"{cache} hits {uses[name][cache, 'hits']}, misses {uses[name][cache, 'misses']}"
                for cache, _ in caches))
    return 0


if __name__ == "__main__":
    sys.exit(main())
