"""Command-line front end: analyze | solve | sweep | portrait.

Exit codes: 0 success (with or without cycles), 2 parse error, 3 system
outside the supported configurations, 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from fractions import Fraction

from . import dynamics, solver
from .algebra import isolate_real_roots
from .matcher import MatchError
from .solver import InvariantViolation, NotCoveredError, SolveReport
from .specfile import (ZONE_KEYS, ParseError, SystemSpecFile, load_spec, parse_grid,
                       parse_window)
from .systems import LinearSaddle, PiecewiseSystem, equilibria, is_continuous, separatrix_lines


def _fmt12(v) -> str:
    return f"{float(v):.12f}"


def _bound_text(b: solver.BoundInfo) -> str:
    if b.kind == "at_most":
        return f"bound <={b.count} ({b.case})"
    if b.kind == "annulus":
        return f"period annulus ({b.case})"
    if b.kind == "no_limit_cycle":
        return f"no limit cycle (annulus) ({b.case})"
    if b.kind == "no_periodic_solution":
        return f"no periodic solution ({b.case})"
    return f"not covered ({b.case})"


def _arg_type(parse):
    """An argparse ``type=`` from a spec-file value parser, so that a bad
    value is a usage error (exit 2)."""
    def typed(text: str):
        try:
            return parse(text)
        except ValueError as e:
            raise argparse.ArgumentTypeError(str(e)) from None
    return typed


def report_to_json(ps: PiecewiseSystem, rep: SolveReport, oracle=None) -> dict:
    def frac(v):
        return str(v)

    cands = []
    for c in rep.candidates:
        cands.append({
            "topology": c.topology,
            "status": c.status,
            "reason": c.reason,
            "multiplicity": c.multiplicity,
            "ordinates": [
                {"boundary": b, "x": frac(ps.boundaries[b]), "y": round(float(v), 12)}
                for b, v in c.ordinates
            ],
        })
    out = {
        "version": 1,
        "classification": "continuous" if rep.continuous else "discontinuous",
        "bound": {"kind": rep.bound.kind, "count": rep.bound.count,
                  "case": rep.bound.case, "note": rep.bound.note},
        "positive_dimensional": rep.positive_dimensional,
        "annulus": rep.annulus,
        "eliminant": {"var": rep.eliminant_var,
                      "coefficients": [frac(c) for c in rep.eliminant.coeffs]},
        "candidates": cands,
        "verified_count": len(rep.verified()),
    }
    if oracle is not None:
        out["oracle"] = oracle
    return out


def render_report(ps: PiecewiseSystem, rep: SolveReport, oracle=None) -> str:
    lines = []
    lines.append("classification: " + ("continuous" if rep.continuous else "discontinuous"))
    lines.append(_bound_text(rep.bound) + (f" [{rep.bound.note}]" if rep.bound.note else ""))
    if rep.positive_dimensional:
        lines.append("matching system is positive-dimensional"
                     + ("; annulus confirmed numerically" if rep.annulus else ""))
    lines.append(f"eliminant ({rep.eliminant_var}): {rep.eliminant}")
    if rep.candidates:
        lines.append("candidates:")
        for c in rep.candidates:
            per_b = {}
            for b, v in c.ordinates:
                per_b.setdefault(b, []).append(_fmt12(v))
            loc = "; ".join(
                f"y(x={ps.boundaries[b]}): " + ", ".join(vs) for b, vs in sorted(per_b.items()))
            status = c.status + (f" ({c.reason})" if c.reason else "")
            mult = f" multiplicity={c.multiplicity}" if c.multiplicity > 1 else ""
            lines.append(f"  {c.topology:<12} {status:<12} {loc}{mult}")
    else:
        lines.append("candidates: none")
    lines.append(f"verified cycles: {len(rep.verified())}")
    if oracle is not None:
        for b, data in sorted(oracle.items()):
            lines.append(f"oracle fixed points at boundary {b}: "
                         + (", ".join(_fmt12(v) for v in data) if data else "none"))
    return "\n".join(lines) + "\n"


def run_oracle(ps: PiecewiseSystem, rep: SolveReport, grid: int,
               window: tuple[float, float] | None, cfg=None) -> dict:
    machine = dynamics.FlowMachine(ps, cfg or dynamics.IntegratorConfig())
    win = window or dynamics.oracle_window(rep)
    return {b: machine.oracle(b, win, grid)[0] for b in range(len(ps.boundaries))}


def _write_out(text: str, path: str | None):
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_analyze(args) -> int:
    spec = load_spec(args.file)
    ps = spec.to_system()
    cont, mism = is_continuous(ps)
    bound = solver.theorem_bound(ps, cont)
    lines = []
    lines.append(("continuous" if cont else "discontinuous") + "; " + _bound_text(bound))
    if bound.note:
        lines.append(f"note: {bound.note}")
    for c, w, gap in mism:
        lines.append(f"field mismatch at x={c}: witness y={w}, gap=({gap[0]}, {gap[1]})")
    for i, z in enumerate(ps.zones):
        eqs = equilibria(z)
        desc = f"zone {i} ({z.kind}" + (", reversed" if z.reverse else "") + ")"
        if eqs:
            desc += ": equilibria " + ", ".join(f"({float(x):.6g}, {float(y):.6g})" for x, y in eqs)
        if isinstance(z.payload, LinearSaddle) and z.payload.is_saddle:
            seps = separatrix_lines(z.payload)
            desc += "; separatrix directions " + ", ".join(
                f"({dx:.6g}, {dy:.6g})" for _, (dx, dy) in seps)
        lines.append(desc)
    text = "\n".join(lines) + "\n"
    if args.json:
        data = {"classification": "continuous" if cont else "discontinuous",
                "bound": {"kind": bound.kind, "count": bound.count,
                          "case": bound.case, "note": bound.note},
                "mismatches": [{"x": str(c), "witness_y": str(w),
                                "gap": [str(gap[0]), str(gap[1])]} for c, w, gap in mism]}
        text = json.dumps(data, indent=2) + "\n"
    _write_out(text, args.out)
    return 0


def cmd_solve(args) -> int:
    spec = load_spec(args.file)
    ps = spec.to_system()
    rep = solver.solve(ps, verify=args.verify)
    oracle = None
    grid = args.grid or parse_grid(spec.options.get("grid", "0"))
    if grid:
        window = args.window or (
            parse_window(spec.options["window"]) if "window" in spec.options else None)
        oracle = run_oracle(ps, rep, grid, window)
    if args.json:
        text = json.dumps(report_to_json(ps, rep, oracle), indent=2) + "\n"
    else:
        text = render_report(ps, rep, oracle)
    _write_out(text, args.out)
    return 0


def _resolve_param(spec: SystemSpecFile, path: str):
    try:
        zone_s, name = path.split(".", 1)
        zi = int(zone_s)
        payload = spec.payloads[zi]
    except (ValueError, IndexError):
        raise NotCoveredError(f"unknown parameter path {path!r}") from None
    if name not in ZONE_KEYS[payload.kind]:
        raise NotCoveredError(f"zone {zi} has no parameter {name!r}")
    return zi, name


def cmd_sweep(args) -> int:
    spec = load_spec(args.file)
    zi, name = _resolve_param(spec, args.param)
    lo_s, hi_s = args.range.split(":")
    lo, hi = Fraction(lo_s), Fraction(hi_s)
    if not lo < hi:
        raise NotCoveredError("sweep range must satisfy lo < hi")
    if args.samples < 2:
        raise NotCoveredError("sweep needs at least 2 samples")
    from .systems import piecewise_system

    rows = []
    for k in range(args.samples):
        val = lo + (hi - lo) * k / (args.samples - 1)
        payloads = list(spec.payloads)
        payloads[zi] = replace(payloads[zi], **{name: val})
        ps = piecewise_system(payloads, spec.boundaries, spec.reverse)
        try:
            rep = solver.solve(ps, verify=args.verify)
            elim_roots = (len(isolate_real_roots(rep.eliminant)[1])
                          if rep.eliminant.degree >= 1 else 0)
            rows.append((str(val), elim_roots, len(rep.candidates),
                         len(rep.verified()), rep.bound.kind,
                         rep.bound.count if rep.bound.count is not None else ""))
        except solver.PositiveDimensionalError:
            rows.append((str(val), "", "", "", "positive_dimensional", ""))
    buf = []
    buf.append("param_value,eliminant_real_roots,candidates,verified_cycles,bound_kind,bound_count")
    for r in rows:
        buf.append(",".join(str(x) for x in r))
    _write_out("\n".join(buf) + "\n", args.out)
    return 0


def _polyline_svg(polylines, window, width=640, height=640):
    (xlo, xhi), (ylo, yhi) = window
    def tx(x):
        return (x - xlo) / (xhi - xlo) * width
    def ty(y):
        return height - (y - ylo) / (yhi - ylo) * height
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
             f'viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>']
    colors = {"level": "#9ecae1", "separatrix": "#de2d26", "boundary": "#636363",
              "cycle": "#31a354"}
    for cid, kind, pts in polylines:
        if len(pts) < 2:
            continue
        attr = colors.get(kind, "#000000")
        width_attr = 2.2 if kind == "cycle" else 1.0
        coords = " ".join(f"{tx(x):.2f},{ty(y):.2f}" for x, y in pts)
        parts.append(f'<polyline fill="none" stroke="{attr}" '
                     f'stroke-width="{width_attr}" points="{coords}"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_portrait(args) -> int:
    spec = load_spec(args.file)
    ps = spec.to_system()
    win = args.window or (-4.0, 4.0)
    window = (win, win)
    cfg = dynamics.IntegratorConfig(max_time=60.0, window=10 * max(abs(win[0]), abs(win[1])))
    rep = solver.solve(ps, verify=args.verify)
    polylines = []

    n = args.samples
    for zi, zone in enumerate(ps.zones):
        xlo = float(zone.x_lo) if zone.x_lo is not None else win[0]
        xhi = float(zone.x_hi) if zone.x_hi is not None else win[1]
        xlo, xhi = max(xlo, win[0]), min(xhi, win[1])
        if xlo >= xhi:
            continue
        k = 0
        for i in range(n):
            for j in range(n):
                x0 = xlo + (xhi - xlo) * (i + 0.5) / n
                y0 = win[0] + (win[1] - win[0]) * (j + 0.5) / n
                pts: list = []
                for fwd in (False, True):
                    try:
                        traj = dynamics.integrate_arc(zone, (x0, y0), cfg,
                                                      record=True, forward=fwd)
                    except dynamics.DynamicsError:
                        continue
                    seg = [(x, y) for _, x, y in traj.samples]
                    if not fwd:
                        seg.reverse()
                        pts = seg + pts[1:] if pts else seg
                    else:
                        pts = pts + seg[1:] if pts else seg
                if len(pts) >= 2:
                    polylines.append((f"level_z{zi}_{k}", "level", _clip(pts, window)))
                    k += 1
        if isinstance(zone.payload, LinearSaddle) and zone.payload.is_saddle:
            for si, (pt, (dx, dy)) in enumerate(separatrix_lines(zone.payload)):
                span = (win[1] - win[0]) * 2
                seg = [(pt[0] - dx * span, pt[1] - dy * span),
                       (pt[0] + dx * span, pt[1] + dy * span)]
                polylines.append((f"separatrix_z{zi}_{si}", "separatrix",
                                  _clip_segment_to_strip(seg, xlo, xhi, window)))
    for bi, b in enumerate(ps.boundaries):
        polylines.append((f"boundary_{bi}", "boundary",
                          [(float(b), win[0]), (float(b), win[1])]))
    machine = dynamics.FlowMachine(ps, dynamics.IntegratorConfig())
    for ci, c in enumerate(rep.verified()):
        b0, y0 = min(c.ordinates, key=lambda bv: bv[1])
        try:
            d0 = machine.crossing_direction(b0, float(y0))
            _, log = machine.return_map(b0, float(y0), d0, record=True)
            pts = []
            for _, _, _, traj in log:
                pts.extend((x, y) for _, x, y in traj.samples)
            polylines.append((f"cycle_{ci}", "cycle", pts))
        except dynamics.DynamicsError:  # pragma: no cover
            continue

    rows = ["curve_id,kind,s,x,y"]
    for cid, kind, pts in polylines:
        for s, (x, y) in enumerate(pts):
            rows.append(f"{cid},{kind},{s},{x!r},{y!r}")
    _write_out("\n".join(rows) + "\n", args.out)
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(_polyline_svg(polylines, window))
    return 0


def _clip(pts, window):
    (xlo, xhi), (ylo, yhi) = window
    return [(x, y) for x, y in pts if xlo - 1e-9 <= x <= xhi + 1e-9 and ylo - 1e-9 <= y <= yhi + 1e-9]


def _clip_segment_to_strip(seg, xlo, xhi, window):
    (ax, ay), (bx, by) = seg
    pts = []
    steps = 200
    for i in range(steps + 1):
        t = i / steps
        x, y = ax + (bx - ax) * t, ay + (by - ay) * t
        if xlo - 1e-9 <= x <= xhi + 1e-9:
            pts.append((x, y))
    return _clip(pts, window)


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="pwham",
                                 description="crossing limit cycles of piecewise "
                                             "Hamiltonian systems")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", help="system description file")
        p.add_argument("--out", default=None, help="write output to a file")

    p = sub.add_parser("analyze", help="continuity, equilibria, theorem bound")
    common(p)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("solve", help="find, screen and verify crossing cycles")
    common(p)
    p.add_argument("--json", action="store_true")
    p.add_argument("--verify", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--grid", type=_arg_type(parse_grid), default=0,
                   help="run the shooting oracle with this grid size (at least 16)")
    p.add_argument("--window", type=_arg_type(parse_window), default=None,
                   help="oracle scan window LO:HI")

    p = sub.add_parser("sweep", help="scan one parameter, CSV per sample")
    common(p)
    p.add_argument("--param", required=True, help="ZONE_INDEX.NAME, e.g. 0.b")
    p.add_argument("--range", required=True, help="LO:HI (exact rationals)")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--verify", action=argparse.BooleanOptionalAction, default=True)

    p = sub.add_parser("portrait", help="sample level curves, separatrices, cycles")
    common(p)
    p.add_argument("--samples", type=int, default=7, help="seed grid per zone axis")
    p.add_argument("--window", type=_arg_type(parse_window), default=None,
                   help="plot window LO:HI")
    p.add_argument("--svg", default=None, help="also write an SVG rendering")
    p.add_argument("--verify", action=argparse.BooleanOptionalAction, default=True)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "analyze":
            return cmd_analyze(args)
        if args.command == "solve":
            return cmd_solve(args)
        if args.command == "sweep":
            return cmd_sweep(args)
        if args.command == "portrait":
            return cmd_portrait(args)
        raise AssertionError("unreachable")
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except FileNotFoundError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except (NotCoveredError, MatchError) as e:
        print(f"not covered: {e}", file=sys.stderr)
        return 3
    except InvariantViolation as e:
        print(f"internal invariant violation: {e}", file=sys.stderr)
        return 4
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
