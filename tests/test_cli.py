"""File format and command-line behavior: round trips, exit codes, CSV/SVG
output, JSON schema stability."""

import csv
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction as F

import pytest

from pwham.cli import main
from pwham.specfile import ParseError, SystemSpecFile, load_spec, parse_spec
from pwham.systems import GlobalCenter, LinearSaddle

from conftest import fixture_path

DATA = os.path.join(os.path.dirname(__file__), "data")
GOLDEN = os.path.join(DATA, "global_center_saddle.json")


def run_cli(*argv) -> tuple[int, str]:
    import contextlib

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


# -- parsing -----------------------------------------------------------------------


def test_parse_round_trip_exact():
    spec = load_spec(fixture_path("global_center_saddle.pwham"))
    text = spec.serialize()
    again = parse_spec(text)
    assert again.to_system() == spec.to_system()
    assert again.serialize() == text


def test_parse_exact_rationals_and_decimals():
    spec = parse_spec(
        "version 1\nboundaries 0\n"
        "zone global_center xi=0.8\n"
        "zone linear alpha=0 beta=-1 delta=-1 mu=-1 gamma=0\n")
    assert spec.payloads[0].xi == F(4, 5)
    spec2 = parse_spec(spec.serialize().replace("4/5", "8e-1"))
    assert spec2.payloads[0].xi == F(4, 5)


def test_parse_rejects_unknown_key_with_position():
    bad = ("version 1\nboundaries 0\n"
           "zone global_center xi=1 wobble=3\n"
           "zone linear alpha=0 beta=1 delta=1 mu=0 gamma=0\n")
    with pytest.raises(ParseError) as ei:
        parse_spec(bad)
    assert "line 3" in str(ei.value) and "wobble" in str(ei.value)


_PAIR = ("version 1\nboundaries 0\n"
         "zone global_center xi=1/2\n"
         "zone linear alpha=0 beta=-1 delta=-1 mu=-1 gamma=0\n")


@pytest.mark.parametrize("line, col", [
    ("option tol 1e-9", 8),      # removed: it only dropped spreads in (1e-12, 2e-12]
    ("option verify false", 8),  # removed: nothing read it
    ("option grid abc", 13),
    ("option grid 4", 13),
    ("option window 3:1", 15),
    ("option window abc", 15),
    ("option window 1/0:2", 15),
])
def test_parse_rejects_bad_options_with_position(tmp_path, line, col):
    with pytest.raises(ParseError) as ei:
        parse_spec(_PAIR + line + "\n")
    assert (ei.value.line, ei.value.col) == (5, col)
    p = tmp_path / "bad.pwham"
    p.write_text(_PAIR + "option grid 32\n" + line + "\n")
    code, _ = run_cli("solve", str(p))
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["--tol", "1e-9"], ["--grid", "4"], ["--grid", "abc"],
    ["--window", "abc"], ["--window", "3:1"],
])
def test_cli_rejects_bad_solve_arguments(argv, capsys):
    with pytest.raises(SystemExit) as ei:
        main(["solve", fixture_path("global_center_saddle.pwham")] + argv)
    assert ei.value.code == 2
    assert "Traceback" not in capsys.readouterr().err


def test_parse_rejects_bad_rational():
    bad = ("version 1\nboundaries zero\n"
           "zone linear alpha=0 beta=1 delta=1 mu=0 gamma=0\n"
           "zone linear alpha=0 beta=1 delta=1 mu=0 gamma=0\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_spec(bad)


def test_parse_rejects_zone_boundary_mismatch():
    bad = ("version 1\nboundaries 0 1\n"
           "zone linear alpha=0 beta=1 delta=1 mu=0 gamma=0\n"
           "zone linear alpha=0 beta=1 delta=1 mu=0 gamma=0\n")
    with pytest.raises(ParseError, match="zones"):
        parse_spec(bad)


def test_all_shipped_fixtures_parse():
    import glob

    files = glob.glob(fixture_path("*.pwham"))
    assert len(files) >= 8
    for f in files:
        load_spec(f).to_system()


# -- commands ----------------------------------------------------------------------


def test_cli_analyze_fixture():
    code, out = run_cli("analyze", fixture_path("cubic_center_saddle.pwham"))
    assert code == 0
    assert "discontinuous; bound <=2 (general-center/saddle, discontinuous)" in out


def test_cli_analyze_continuous_annulus():
    code, out = run_cli("analyze", fixture_path("continuous_double_center.pwham"))
    assert code == 0
    assert out.startswith("continuous; no limit cycle (annulus)")


def test_cli_solve_global_fixture_verified_digits():
    code, out = run_cli("solve", fixture_path("global_center_saddle.pwham"))
    assert code == 0
    assert "0.552786404500" in out and "1.447213595500" in out
    assert "verified cycles: 1" in out


def test_cli_solve_pwl_fixture_digits():
    code, out = run_cli("solve", fixture_path("linear_center_saddle_center.pwham"))
    assert code == 0
    s = math.sqrt(4873) / (36 * math.sqrt(2))
    for v in (16 / 65 + s, 16 / 65 - s, 97 * math.sqrt(4873) / (2340 * math.sqrt(2))):
        assert f"{v:.9f}"[:10] in out
    assert "verified cycles: 1" in out


def _oracle_agreement(name: str, tol: float):
    """The grid-128 oracle and the verified cycles agree to tol, both ways,
    on every boundary."""
    code, out = run_cli("solve", fixture_path(name), "--grid", "128", "--json")
    assert code == 0
    rep = json.loads(out)
    verified: dict[str, list[float]] = {}
    for cand in rep["candidates"]:
        if cand["status"] == "verified":
            for o in cand["ordinates"]:
                verified.setdefault(str(o["boundary"]), []).append(o["y"])
    assert verified
    for b, points in rep["oracle"].items():
        ordinates = verified.get(b, [])
        for v in points:
            assert min(abs(v - w) for w in ordinates) < tol, (b, v, ordinates)
        for w in ordinates:
            assert min(abs(v - w) for v in points) < tol, (b, w, points)


LINEAR_FIXTURES = [
    "linear_center_center_saddle.pwham",
    "linear_center_saddle_center.pwham",
    "linear_saddle_center_saddle.pwham",
    "linear_saddle_saddle_center.pwham",
]


@pytest.mark.parametrize("name", [
    "double_center_saddle.pwham",
    "global_center_saddle.pwham",
] + LINEAR_FIXTURES)
def test_cli_oracle_points_match_verified_ordinates(name):
    _oracle_agreement(name, 1e-9)


@pytest.mark.parametrize("name", LINEAR_FIXTURES)
def test_cli_oracle_points_match_verified_ordinates_exact_flow(name):
    """On the fully linear fixtures every arc is the exact flow, so the
    oracle agrees with the verified ordinates to 1e-11."""
    _oracle_agreement(name, 1e-11)


def test_cli_oracle_finds_no_fixed_point_on_a_period_annulus():
    """Every grid displacement of the continuous double center is below
    1e-12, with signs set by integration noise; the oracle reports none of
    them as a fixed point."""
    code, out = run_cli("solve", fixture_path("continuous_double_center.pwham"),
                        "--grid", "128", "--json")
    assert code == 0
    assert json.loads(out)["oracle"] == {"0": []}


def test_cli_solve_json_golden():
    code, out = run_cli("solve", fixture_path("global_center_saddle.pwham"),
                        "--json")
    assert code == 0
    got = json.loads(out)
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        want = json.load(fh)
    assert got == want


@pytest.mark.parametrize("name", sorted(
    n[:-len(".json")] for n in os.listdir(os.path.join(DATA, "solve_no_verify"))))
def test_cli_solve_no_verify_golden(name):
    """The exact part of every fixture's report: eliminant, 12-digit
    ordinates and bound.  After a deliberate change, regenerate with
    ``pwham solve fixtures/NAME.pwham --no-verify --json
    > tests/data/solve_no_verify/NAME.json``."""
    code, out = run_cli("solve", fixture_path(name + ".pwham"), "--no-verify", "--json")
    assert code == 0
    with open(os.path.join(DATA, "solve_no_verify", name + ".json"), encoding="utf-8") as fh:
        assert out == fh.read()


def test_cli_solve_rational_middle_zone(tmp_path):
    """A global center between two linear zones: the transport equations
    come from its rational integral like any other."""
    p = tmp_path / "lgl.pwham"
    p.write_text("version 1\nboundaries -1 1\n"
                 "zone linear alpha=1 delta=-1/2 mu=-3/2 gamma=2\n"
                 "zone global_center xi=1/2\n"
                 "zone linear alpha=3 beta=1/2 delta=-1/2 mu=2\n")
    code, out = run_cli("solve", str(p), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["bound"]["kind"] == "not_covered"
    assert data["eliminant"]["var"] == "y1" and len(data["eliminant"]["coefficients"]) > 1
    assert any(c["topology"] == "three_zone" for c in data["candidates"])


def test_cli_parse_error_exit_code(tmp_path):
    p = tmp_path / "bad.pwham"
    p.write_text("version 1\nboundaries 0\nzone bogus a=1\nzone linear\n")
    code, _ = run_cli("solve", str(p))
    assert code == 2


def test_cli_not_covered_exit_code(tmp_path):
    p = tmp_path / "four.pwham"
    zone = "zone linear alpha=1 beta=1 delta=-1 mu=0 gamma=0\n"
    p.write_text("version 1\nboundaries -1 0 1\n" + zone * 4)
    code, _ = run_cli("solve", str(p))
    assert code == 3


def test_cli_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    code, _ = run_cli("sweep", fixture_path("double_center_saddle.pwham"),
                      "--param", "1.mu", "--range", "1/10:3/2",
                      "--samples", "8", "--no-verify", "--out", str(out))
    assert code == 0
    text = out.read_text()
    assert "\r" not in text  # LF only
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == 8
    assert rows[0]["param_value"] == "1/10"
    # the corrected discriminant changes sign at mu = delta/n = 1: the
    # eliminant real-root count drops from 2 to 0 across that threshold
    counts = [int(r["eliminant_real_roots"]) for r in rows]
    vals = [F(r["param_value"]) for r in rows]
    for v, c in zip(vals, counts):
        assert (c == 2) == (v < 1), (v, c)


def test_cli_sweep_cubic_family_thresholds(tmp_path):
    """Sweeping the cubic three-zone family's quadratic coefficient: the
    eliminant real-root count is piecewise constant and every transition
    bracket contains a sign change (or degeneration) of the eliminant's
    discriminant -- the derived threshold criterion."""
    from pwham.matcher import build_three_zone
    from pwham.solver import _three_zone_core
    from reference_algebra import discriminant

    out = tmp_path / "sweep.csv"
    code, _ = run_cli("sweep", fixture_path("cubic_center_saddle_saddle.pwham"),
                      "--param", "0.b", "--range=-2:2",
                      "--samples", "41", "--no-verify", "--out", str(out))
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    assert len(rows) == 41

    import conftest

    def u_disc(bval):
        ps = conftest.cubic_three_zone(b=bval)
        core = _three_zone_core(build_three_zone(*ps.zones, -1, 1))
        e = core.eliminant
        return None if e.degree < 2 else (discriminant(e), e.degree)

    transitions = 0
    for r1, r2 in zip(rows, rows[1:]):
        c1, c2 = int(r1["eliminant_real_roots"]), int(r2["eliminant_real_roots"])
        if c1 == c2:
            continue
        transitions += 1
        d1, d2 = u_disc(F(r1["param_value"])), u_disc(F(r2["param_value"]))
        if d1 is None or d2 is None or d1[1] != d2[1]:
            continue  # degree drop inside the bracket
        assert d1[0] * d2[0] <= 0, (r1["param_value"], r2["param_value"])
    assert transitions >= 1


def test_cli_sweep_rejects_bad_param():
    # class attributes and methods of a payload are not parameters
    for param in ("1.zzz", "1.offset", "0.kind", "1.is_saddle"):
        code, _ = run_cli("sweep", fixture_path("double_center_saddle.pwham"),
                          "--param", param, "--range", "0:1", "--samples", "2")
        assert code == 3, param


@pytest.mark.parametrize("rng", ["abc", "1:x", "1", "0:1:2", "1/0:2"])
def test_cli_sweep_rejects_malformed_range(rng, capsys):
    with pytest.raises(SystemExit) as ei:
        main(["sweep", fixture_path("double_center_saddle.pwham"),
              "--param", "1.mu", "--range", rng, "--samples", "2"])
    assert ei.value.code == 2
    assert "Traceback" not in capsys.readouterr().err


def test_cli_sweep_rejects_sample_outside_family(capsys):
    # the sample xi = 0 is no global center
    code, _ = run_cli("sweep", fixture_path("global_center_saddle.pwham"),
                      "--param", "0.xi", "--range", "0:1", "--samples", "2")
    assert code == 3
    assert "0.xi=0" in capsys.readouterr().err


def test_cli_sweep_rejects_empty_range():
    code, _ = run_cli("sweep", fixture_path("double_center_saddle.pwham"),
                      "--param", "1.mu", "--range", "1:1", "--samples", "2")
    assert code == 3


def test_cli_portrait_csv_and_svg(tmp_path):
    out = tmp_path / "portrait.csv"
    svg = tmp_path / "portrait.svg"
    code, _ = run_cli("portrait", fixture_path("global_center_saddle.pwham"),
                      "--samples", "4", "--out", str(out), "--svg", str(svg))
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    kinds = {r["kind"] for r in rows}
    assert {"level", "boundary", "separatrix", "cycle"} <= kinds
    # the verified cycle polyline closes within 1e-6
    cyc = [(float(r["x"]), float(r["y"])) for r in rows if r["kind"] == "cycle"]
    assert cyc
    gap = math.hypot(cyc[0][0] - cyc[-1][0], cyc[0][1] - cyc[-1][1])
    assert gap < 1e-6
    assert svg.read_text().startswith("<svg")
    assert "polyline" in svg.read_text()


def test_cli_portrait_saddle_separatrices(tmp_path):
    out = tmp_path / "p.csv"
    code, _ = run_cli("portrait", fixture_path("cubic_center_saddle.pwham"),
                      "--samples", "3", "--no-verify", "--out", str(out))
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    seps = {r["curve_id"] for r in rows if r["kind"] == "separatrix"}
    assert len(seps) == 2


def test_cli_solve_oracle_record():
    code, out = run_cli("solve", fixture_path("double_center_saddle.pwham"),
                        "--grid", "48")
    assert code == 0
    assert "oracle fixed points at boundary 0" in out
