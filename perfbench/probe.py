"""Set-up probe: a fresh process that imports ``repro`` and builds the
translators a workload needs, then prints one JSON line and exits.

The parent times it from launch to that line (``setup_s``).  Arguments
are extension sets with the thread count the workload's jobs use, as
``matrix,transform@4``."""

import json
import sys
import time

t0 = time.perf_counter()

import repro.api  # noqa: E402
from repro.service import shared_cache  # noqa: E402

t1 = time.perf_counter()
for spec in sys.argv[1:]:
    exts, nthreads = spec.split("@")
    repro.api.make_translator(exts.split(","), nthreads=int(nthreads))
t2 = time.perf_counter()
st = shared_cache().stats()
print(json.dumps({"import_ms": 1e3 * (t1 - t0), "translator_ms": 1e3 * (t2 - t1),
                  "translator_hits": st.translator_hits,
                  "translator_misses": st.translator_misses,
                  "artifact_hits": st.artifact_hits,
                  "artifact_misses": st.artifact_misses}), flush=True)
