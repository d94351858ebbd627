"""Run one benchmark task in this (fresh) process.

usage: python task.py TIMING_FILE TRACE COMMAND...

COMMAND is either arguments for the psituples command line
(`search ...`, `table ...`), run through psituples.cli.main exactly as
`python -m psituples.cli` would, or `scan L`, which calls
verify_theorem1(L) and prints its result as JSON.  TIMING_FILE receives
the monotonic times at which the work started and ended and, when TRACE is
1, the per-layer sums of the tracer in layers.py.
"""

import json
import sys
import time

timing_file, traced, *command = sys.argv[1:]
tracer = None
if traced == "1":
    from layers import Tracer

    tracer = Tracer()
    tracer.install()

import psituples.cli  # noqa: E402  (import cost belongs to set-up)

t_work = time.monotonic()
if command[0] == "scan":
    result = sys.modules["psituples.theorems"].verify_theorem1(int(command[1]))
    print(json.dumps({"checked": result.checked, "failures": list(result.failures)}))
    rc = 0
else:
    rc = psituples.cli.main(command)
sys.stdout.flush()
t_done = time.monotonic()
record = {"t_work": t_work, "t_done": t_done, "rc": rc}
if tracer is not None:
    record.update(tracer.report())
with open(timing_file, "w") as fh:
    json.dump(record, fh)
sys.exit(rc)
