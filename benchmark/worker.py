"""One benchmark worker: a fresh interpreter that runs CLI jobs in a closed loop.

    python3 benchmark/worker.py ROOT MODE JOBS_JSON [SPANS_PATH]

ROOT is the checkout whose ``src/`` holds the qheis package.  MODE is
``setup`` (import and build the parser, then exit), ``plain`` or ``trace``.
JOBS_JSON is a JSON list of argv lists.  The worker writes one JSON object
per line to stdout: a ready line once ``qheis.cli`` is imported and
``build_parser()`` has run, one line per job with its exit code, wall time
and captured stdout, and a final line with ``ru_maxrss`` (and, when traced,
the per-layer metrics).  Traced spans go to SPANS_PATH when it is given.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import os
import resource
import sys
from time import perf_counter


def _emit(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main(argv):
    root, mode = argv[0], argv[1]
    src = os.path.join(root, "src")
    if not os.path.isdir(os.path.join(src, "qheis")):
        print(f"worker: no qheis package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    from qheis import cli

    cli.build_parser()
    _emit({"ready": True})
    if mode == "setup":
        return 0

    jobs = json.loads(argv[2])
    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install({name: mod for name, mod in sys.modules.items()
                        if name == "qheis" or name.startswith("qheis.")})

    stdout_bytes = 0
    round_start = perf_counter()
    for index, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = index
        out, err = io.StringIO(), io.StringIO()
        error = None
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.run(job)
        except Exception as exc:  # a traceback is a failed job, not a dead worker
            rc, error = None, repr(exc)
        elapsed = perf_counter() - t0
        text = out.getvalue()
        stdout_bytes += len(text.encode())
        _emit({"job": index, "rc": rc, "t": elapsed, "out": text,
               "err": err.getvalue(), "error": error})
    round_s = perf_counter() - round_start

    final = {"round_s": round_s,
             "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        tracer.uninstall()
        from qheis.heisenberg import structure_constant
        from qheis.qscalar import qint
        from tracer import layer_metrics

        qi, sc = qint.cache_info(), structure_constant.cache_info()
        final["layers"] = layer_metrics(tracer.spans, stdout_bytes, (qi.hits, qi.misses),
                                        (sc.hits, sc.misses), tracer.max_terms,
                                        tracer.max_span)
        if len(argv) > 3:
            with gzip.open(argv[3], "wt") as fh:
                json.dump([s.to_json() for s in tracer.spans], fh)
    _emit(final)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
