"""Run one teamtrace CLI command with layer tracing installed.

Usage: python3 traced_cli.py SPANS_JSON RUN_ID -- CLI_ARGS...

Installs the tracer's wrappers, calls ``teamtrace.cli.main(CLI_ARGS)``,
writes the spans kept in memory to SPANS_JSON when the command ends and
exits with the command's exit code.
"""
import sys

from tracer import Tracer


def main() -> int:
    spans_path, run_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        print("usage: traced_cli.py SPANS_JSON RUN_ID -- CLI_ARGS...", file=sys.stderr)
        return 1
    tracer = Tracer(run_id)
    tracer.install()
    from teamtrace import cli

    try:
        with tracer.span("cli.main"):
            code = cli.main(argv)
    finally:
        tracer.write(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
