"""``python -m markovsharp.cli`` with every public function traced.

Usage: python3 perfbench/cli_traced.py SPANS_FILE CLI_ARGS...

Runs the command line exactly as the module entry point does and, on exit,
writes ``{"import_s": ..., "spans": [...]}`` to SPANS_FILE, where
``import_s`` is the time taken by ``import markovsharp.cli``.
"""

import json
import sys
import time

from spans import Tracer
from worker import import_program


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    cli = import_program("markovsharp.cli")
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        with open(out_path, "w") as fh:
            json.dump({"import_s": import_s, "spans": tracer.drain()}, fh)


if __name__ == "__main__":
    sys.exit(main())
