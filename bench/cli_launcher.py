"""Run `mhstools.cli.main` with the benchmark's spans installed.

Usage: python cli_launcher.py TRACE_OUT.json CLI_ARGS...

Writes the import time of mhstools, the per-layer aggregates and the time
covered by top-level library spans to TRACE_OUT.json, then exits with the
CLI's own exit code.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import mhstools.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    try:
        code = mhstools.cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
    layers, root_s = tracer.take()
    with open(out_path, "w") as fh:
        json.dump({"import_s": import_s, "layers": layers, "library_s": root_s}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
