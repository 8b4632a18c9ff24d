#!/usr/bin/env python3
"""Swapping the analytic proxy for a table of externally computed samples:
exact at the sample sites, interpolating between them, and telling how far
a query lies from the nearest sample, where the interpolant is least sure."""

import numpy as np

from hpmropt import DesignEvaluator, SampleTable, load_scenario, proxy_eval
from hpmropt.anchors import ANCHOR_RECORDS
from hpmropt.design_space import from_unit_cube

designs = [rec.design for rec in ANCHOR_RECORDS]
qois = np.array([[rec.lifetime, rec.sdm, rec.f_dh, rec.q_max]
                 for rec in ANCHOR_RECORDS])
table = SampleTable(designs, qois)

print("at a sample site the table reproduces its record exactly:")
rec = ANCHOR_RECORDS[1]
values = table(rec.design)
print(f"  {rec.name}: table={np.round(values, 4)}")
print(f"  recorded:      {(rec.lifetime, rec.sdm, rec.f_dh, rec.q_max)}")

print("\nthe proxy and the table disagree between sites (different models):")
probe = from_unit_cube(np.full(7, 0.55))
print(f"  table: {np.round(table(probe), 4)}")
print(f"  proxy: {np.round(proxy_eval(probe), 4)}")

print("\nthe unit-cube distance to the nearest sample site grows away from the data:")
evaluator = DesignEvaluator(load_scenario("scenario-1"), model=table)
corner = from_unit_cube(np.zeros(7))
print(f"  corner query: lifetime={evaluator.qoi(corner).lifetime:.4g}, "
      f"distance={table.nearest_site_distance(corner):.4f}")
print(f"  sample-site query: lifetime={evaluator.qoi(rec.design).lifetime:.4g}, "
      f"distance={table.nearest_site_distance(rec.design):.4f}")
