"""Traced CLI entry: ``python cli_boot.py <dump.json> <quantromon cli args...>``.

Installs the layer wrappers, runs ``quantromon.cli.run`` on the arguments,
writes the spans to ``<dump.json>`` when the command ends and exits with the
command's exit code.
"""

import sys

import quantromon.cli

from tracer import Tracer


def main() -> int:
    dump_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return quantromon.cli.run(argv)
    finally:
        tracer.dump(dump_path)


if __name__ == "__main__":
    sys.exit(main())
