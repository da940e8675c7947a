"""Run one geosplit CLI command with the layers traced.

    python3 perfbench/traced_cli.py SPANS_JSON COMMAND_ID CLI_ARGS...

Times the import of geosplit.cli as the span `cli.import`, runs the command
as the span `cli.<COMMAND_ID>` and writes every span to SPANS_JSON.  The
exit code and stdout are the CLI's own.
"""

import sys

import tracing


def main():
    span_file, command_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = tracing.Tracer(prefix=f"{command_id}:")
    start = tracing.clock()
    from geosplit import cli

    tracer.record("cli.import", start, tracing.clock())
    tracing.install(tracer)
    try:
        code = tracer.wrap(f"cli.{command_id}", cli.main)(argv)
    finally:
        tracer.dump(span_file)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
