"""Time one set-up in a fresh process: import zmcsurf and build every input.

Usage: python3 perfbench/setup_probe.py <workload> <seed>

Prints {"setup_s": seconds, "ref_s": seconds, "ref_nominal_s": seconds}.  The
spec is drawn before the clock starts, so only the program's import and input
construction are timed.  Then the reference kernel runs (``reference.py``), so
that the caller can rescale the set-up to the kernel's nominal speed.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

import inputs
import reference

REF_UNITS = 10

spec = inputs.make_spec(sys.argv[1], int(sys.argv[2]))
start = perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import zmcsurf  # noqa: E402,F401

inputs.build(sys.argv[1], spec)
setup_s = perf_counter() - start
reference.run()  # first call pays for numpy's lazy set-up
print(json.dumps({"setup_s": setup_s, "ref_s": reference.seconds(REF_UNITS),
                  "ref_nominal_s": reference.NOMINAL_S * REF_UNITS}))
