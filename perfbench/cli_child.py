"""One traced ``reward-transfer`` process.

Usage: ``python cli_child.py SPANS_JSON ARGS...`` runs
``reward_transfer.cli.main(ARGS)`` in this fresh process with the
tracer installed, so import time and first-call costs show as they do
for a user.  After main returns, SPANS_JSON receives the spans and the
first and last clock readings of this process, from which the parent
times interpreter start-up and exit.  The exit code is main's.  The
package must be importable (PYTHONPATH).
"""

import time

_FIRST = time.perf_counter()   # perf_counter is the system-wide monotonic
                               # clock, so the parent can place this

import json  # noqa: E402
import sys  # noqa: E402

from spans import Tracer  # noqa: E402


def main(argv) -> int:
    spans_path, args = argv[0], argv[1:]
    tracer = Tracer()
    with tracer.span("cli.import"):
        import reward_transfer.cli as cli
    tracer.install()
    try:
        code = cli.main(args)
    finally:
        tracer.uninstall()
    recorded = {"first": _FIRST, "last": time.perf_counter(), "spans": tracer.take()}
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump(recorded, handle)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
