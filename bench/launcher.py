"""Run the weighsim CLI with the span tracer installed.

Usage: python launcher.py SPANS_OUT [weighsim arguments...]

Takes the same arguments as `python -m weighsim.cli`, wraps the traced
functions, calls `weighsim.cli.main`, and at exit restores every wrapped
attribute and writes the recorded spans to SPANS_OUT. weighsim must be
importable (PYTHONPATH).
"""

import sys

from tracer import Tracer


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    import weighsim.cli

    spans = Tracer()
    spans.install()
    try:
        return weighsim.cli.main(argv)
    finally:
        spans.uninstall()
        spans.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main())
