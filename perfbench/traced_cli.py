"""Run one pidtucker CLI command in-process with its layer boundaries traced.

    python3 perfbench/traced_cli.py SPANS_JSON <pidtucker CLI arguments>

Wraps the bindings listed in tracing.BINDINGS, calls pidtucker.cli.main with
the remaining arguments, writes the spans to SPANS_JSON and exits with the
CLI's exit code.  Needs pidtucker importable (PYTHONPATH=src).
"""

import json
import sys

import pidtucker.cli

from tracing import Tracer, install


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    wrapped = install(tracer)
    code = pidtucker.cli.main(argv)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"wrapped": wrapped, **tracer.to_dict()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
