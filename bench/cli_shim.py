"""`urm` for traced cli-mix calls: times the import, traces `main`.

Usage: python3 cli_shim.py OUT.json ARGS...  Behaves as `urm ARGS...` (same
stdout, stderr and exit code) and writes the import time, the layer summary,
the spans and the `_closure` cache counts to OUT.json.
"""

import json
import sys
import time

t0 = time.perf_counter()
import urm.cli  # noqa: E402

import_s = time.perf_counter() - t0

import tracer  # noqa: E402
from urm import constraints  # noqa: E402

closure = getattr(constraints, "_closure", None)
tr = tracer.Tracer()
tr.install()
try:
    code = urm.cli.main(sys.argv[2:])
finally:
    tr.uninstall()
    info = closure.cache_info() if hasattr(closure, "cache_info") else None
    with open(sys.argv[1], "w", encoding="utf-8") as handle:
        json.dump({
            "import_s": import_s,
            "summary": tracer.summarise(tr.spans, tr.stats),
            "spans": tr.spans,
            "closure": None if info is None else [info.hits, info.misses],
        }, handle)
sys.exit(code)
