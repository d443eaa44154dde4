#!/usr/bin/env python3
"""Run every decomposition-identity, PDE-residual, and foliation check and
write the JSON reports.

Usage:
    python scripts/run_verification_suite.py [--reports-dir reports]

Each row (tag, check, args, kwargs) of CHECKS writes <tag>.json from
check(*args, **kwargs); a keyword holds any tolerance not the check's default.
Prints one table row per check; exits nonzero if anything fails.
"""

import argparse
import math
import os
import random
import sys

from zmcsurf import catalog, foliation, reps, zmc
from zmcsurf.catalog import identity_terms
from zmcsurf.meshio import GridSpec

PI = math.pi
SCHERK_WINDOW = GridSpec(-1, 1, -1, 1, 41, 41)
HELICOID_WINDOW = GridSpec(0.1, 2.9, -2, 2, 41, 41)
KAMIEN_BETAS = (PI / 6, PI / 3)
PARAMETRIC_WINDOW = GridSpec(-0.8, 0.8, -0.8, 0.8, 21, 21)
QUARTER_WINDOW = GridSpec(0.0, 0.8, 0.0, 0.8, 21, 21)
FOLIATION_WINDOW = GridSpec(-3 * PI, 3 * PI, -3, 3, 41, 41)
FOLIATION_SHIFTS = [-1.0, 0.0, 2.5]
# 50 complex probes (x, y): real parts in [-1, 1], imaginary parts in [-0.45, 0.45].
PROBES = [(complex(r.uniform(-1, 1), r.uniform(-0.45, 0.45)),
           complex(r.uniform(-1, 1), r.uniform(-0.45, 0.45)))
          for r in [random.Random(20240815)] for _ in range(50)]


def kamien_window(beta):
    """The window of kamien-decomp at beta: y in [0.2, pi - 0.2] / sin(beta)."""
    sb = math.sin(beta)
    return GridSpec(-2, 2, 0.2 / sb, (PI - 0.2) / sb, 31, 31)


CHECKS = [
    *[(f"{ident}-n{n}", catalog.verify_identity, (identity_terms(ident, n), window), {})
      for ident, window, ns in (("scherk2-decomp", SCHERK_WINDOW, (2, 3, 4, 5)),
                                ("helicoid-decomp", HELICOID_WINDOW, (2, 3))) for n in ns],
    *[(f"kamien-decomp-n{n}-beta{beta:.3f}", catalog.verify_identity,
       (identity_terms("kamien-decomp", n, {"beta": beta}), kamien_window(beta)), {})
      for n in (2, 3) for beta in KAMIEN_BETAS],
    *[(f"{ident}-n{n}", catalog.verify_identity_at, (identity_terms(ident, n), PROBES), {})
      for ident in ("scherk2max-decomp", "scherkBI-decomp") for n in (2, 3)],
    ("general-scaled-scherk2", catalog.verify_identity,
     (identity_terms("general-scaled", 2, {"surface": "scherk2", "a": [1.3, 0.8], "b": [0.1, -0.2],
                                           "d": [0.05, 0.3], "c": [2.0, -0.5]}), SCHERK_WINDOW),
     {"tolerance": 1e-12}),
    *[(f"residual-{sid}", zmc.residual_sweep,
       (surf, catalog.kind_equation(surf.kind), surf.default_grid), {})
      for sid in ("scherk2", "scherk1", "helicoid", "scherk2max", "scherkBI")
      for surf in [catalog.builtin_surface(sid)]],
    ("parametric-minimal", zmc.parametric_sweep,
     (reps.WESampler(reps.WEData.from_text("1", "w")), zmc.EUCLID3, PARAMETRIC_WINDOW),
     {"subject": "parametric-zmc:we:minimal"}),
    ("parametric-maximal", zmc.parametric_sweep,
     (reps.WESampler(reps.WEData.from_text("1", "w", mode="maximal")), zmc.LORENTZ3,
      PARAMETRIC_WINDOW), {"subject": "parametric-zmc:we:maximal"}),
    ("parametric-tlms", zmc.parametric_sweep,
     (reps.TLMSSampler(reps.TLMSData.from_text("1", "1", "u", "v")), zmc.LORENTZ3,
      QUARTER_WINDOW), {"subject": "parametric-zmc:tlms"}),
    ("parametric-bc", zmc.parametric_sweep,
     (reps.BCSampler(reps.BCData.from_text("r", "s")), zmc.LORENTZ3_PRIME, QUARTER_WINDOW),
     {"subject": "parametric-zmc:bc"}),
    *[(f"split-{tag}", reps.verify_split, (reps.WEData.reduced("1"), weights), {})
      for weights, tag in (((0.5, 0.5), "half"), ((2.0, -1.0), "signed"),
                           ((1 / 3, 1 / 3, 1 / 3), "thirds"))],
    ("foliation", foliation.foliation_check, (FOLIATION_WINDOW, FOLIATION_SHIFTS), {}),
]


def run(reports_dir: str) -> int:
    os.makedirs(reports_dir, exist_ok=True)
    width = max(len(tag) for tag, *_ in CHECKS)
    print(f"{'check'.ljust(width)}  {'max_abs_err':>12}  {'tol':>8}  result")
    passed = 0
    for tag, check, args, kwargs in CHECKS:
        report = check(*args, **kwargs)
        report.write(os.path.join(reports_dir, f"{tag}.json"))
        print(f"{tag.ljust(width)}  {report.max_abs_err:12.3e}  {report.tolerance:8.1e}  "
              f"{'PASS' if report.passed else 'FAIL'}")
        passed += report.passed
    print(f"\n{passed}/{len(CHECKS)} checks passed; reports in {reports_dir}/")
    return 0 if passed == len(CHECKS) else 1


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--reports-dir", default="reports")
    sys.exit(run(ap.parse_args().reports_dir))
