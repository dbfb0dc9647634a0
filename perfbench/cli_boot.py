"""Traced stand-in for ``python -m horders.cli``.

Usage: ``python cli_boot.py TRACE_FILE ARGV...``.  Installs the tracing
wrappers, runs ``horders.cli.main(ARGV)`` and appends one JSON line with
the call statistics, spans and cache counts of this process to
TRACE_FILE.  Standard output and the exit code are those of the CLI.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402


def main() -> int:
    trace_file, argv = sys.argv[1], sys.argv[2:]
    import horders.cli

    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    code = 1
    try:
        code = horders.cli.main(argv)
    finally:
        restore()
        record = {
            "stats": tracer.stats,
            "max_bits": tracer.max_bits,
            "cache": tracing.gauge_cache_info(),
            "spans": tracer.spans,
        }
        with open(trace_file, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
