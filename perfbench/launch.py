"""Run one triality CLI command with spans installed.

    python3 perfbench/launch.py <trace-prefix> <triality CLI arguments...>

Installs the tracer, calls ``triality.cli.main(argv)``, writes the trace to
``<trace-prefix>.json`` and ``<trace-prefix>.spans`` and exits with the
command's exit code.  The CLI's stdout is left untouched.
"""

import sys

import tracing


def main(argv):
    prefix, cli_args = argv[0], argv[1:]
    import triality.cli

    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = triality.cli.main(cli_args)
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    tracer.write(prefix)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
