"""Traced stand-in for `python -m braidrep.cli ARGS...`.

Imports braidrep.cli (timed as cli.import_s), installs the tracer, runs
main(ARGS) with its standard output captured, and prints one JSON line: the
exit code, the captured output and the exported trace.
"""

import contextlib
import io
import json
import sys
import time

from tracer import Tracer


def main(argv):
    t0 = time.perf_counter()
    import braidrep.cli
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    tracer.counts["import_s"] = import_s
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = braidrep.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    payload = tracer.export()
    payload.update({"exit": code, "stdout": out.getvalue()})
    print(json.dumps(payload))


if __name__ == "__main__":
    main(sys.argv[1:])
