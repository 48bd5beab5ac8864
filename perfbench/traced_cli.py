"""Run one physeg CLI command with span recording, in its own process.

Usage: python traced_cli.py SPANS_OUT physeg-arguments...

Times the fresh-process ``import physeg.cli`` as the ``cli.startup`` span,
installs the span wrappers before calling ``physeg.cli.main`` and writes the
spans to SPANS_OUT (``.npz``) when the command returns.  Exits with the
command's exit code.
"""

import sys
import time


def main():
    out, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import physeg.cli

    t1 = time.perf_counter()
    import spans

    tracer = spans.Tracer()
    tracer.record("cli.startup", t0, t1)
    tracer.install()
    try:
        code = physeg.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
