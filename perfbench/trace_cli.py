"""A traced `ncds spaces` request: installs the outside-in tracer in this
process, then runs the CLI entry point exactly as `python -m ncds.cli` would.

    python perfbench/trace_cli.py STATS_FILE spaces --set S --weight W

The tracer's raw totals are written to STATS_FILE as JSON; the exit code is
the CLI's.
"""

import json
import sys

from tracer import Tracer  # the script's directory is on sys.path

import ncds.cli


def main():
    stats_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    code = ncds.cli.main(argv)
    with open(stats_file, "w") as fh:
        json.dump(tracer.stats(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
