"""Run ``groupcodes.cli.main`` with tracing installed, as one CLI process.

Usage: python3 bench/launcher.py SUMMARY.json ARG...

ARG... are the ``groupcodes`` arguments.  The trace summary, the raw spans
and the seconds spent inside ``cli.main`` go to SUMMARY.json; the exit
code is main's.  ``src`` must be on PYTHONPATH.
"""

import json
import sys

import tracer
from groupcodes import cli


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    t = tracer.Tracer()
    uninstall = tracer.install(t)
    t.begin_op()
    try:
        code = cli.main(argv)
    finally:
        uninstall()
        sys.stdout.flush()
    summary = t.summary()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"summary": summary, "main_s": summary["stats"]["cli.main"][2], "spans": t.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
