"""One-command answer identity check over the benchmark corpora.

Run from the repository root:

    python3 tests/corpus_digest.py [--root CHECKOUT]

It prints two SHA-256 digests:

* ``solve``: ``cli.report_to_json`` plus every candidate's exact ordinates,
  over the first 600 ``bulk`` units, the 120 ``bigcoef`` units and the first
  300 ``annulus`` units, each at its default seed; a unit that raises
  contributes its exception instead;
* ``fixtures``: the stdout and exit code of
  ``pwham solve FIXTURE --grid 128 --json`` on every fixture.

The inputs come from ``bench/workloads.build_units``, so they are the
benchmark's own.  ``--root`` imports pwham and the workloads from another
checkout (say, a copy of the parent commit), so that two commits compare by
two runs of this one script: a change that keeps every answer prints the
same two lines.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys

CORPORA = (("bulk", 600), ("bigcoef", 120), ("annulus", 300))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    help="checkout whose src/ and bench/ are imported")
    args = ap.parse_args(argv)
    root = os.path.abspath(args.root)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "bench")]
    from pwham import cli, solver
    import workloads

    h = hashlib.sha256()
    for name, count in CORPORA:
        for _, label, ps in workloads.build_units(name, workloads.DEFAULT_SEEDS[name], count):
            try:
                rep = solver.solve(ps, verify=True, cfg=workloads.BULK_CFG)
            except Exception as e:  # the failure is part of the answer
                entry = {"label": label, "raised": f"{type(e).__name__}: {e}"}
            else:
                entry = {"label": label, "report": cli.report_to_json(ps, rep),
                         "exact": [[[b, str(v)] for b, v in c.ordinates]
                                   for c in rep.candidates]}
            h.update(json.dumps(entry, sort_keys=True).encode() + b"\n")
    print(f"solve {h.hexdigest()}")

    h = hashlib.sha256()
    for path in workloads.fixture_paths():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["solve", path, "--grid", str(workloads.ORACLE_GRID), "--json"])
        h.update(f"{os.path.basename(path)} {code}\n{out.getvalue()}".encode())
    print(f"fixtures {h.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
