"""Set-up cost as a user pays it: ``import hpmropt``, ``load_scenario`` and
``DesignEvaluator(...)`` in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py <src dir>
Prints one JSON line: {"import_s": ..., "evaluator_s": ...}.
"""

import json
import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import hpmropt  # noqa: E402

imported = time.perf_counter()
hpmropt.DesignEvaluator(hpmropt.load_scenario("scenario-3"))
done = time.perf_counter()
print(json.dumps({"import_s": imported - start, "evaluator_s": done - imported}))
