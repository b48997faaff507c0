"""``python -m hlcbs.cli`` with the tracer installed.

Runs one command-line request exactly as the CLI would, then writes the
trace snapshot as the last line of standard error.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import tracer  # noqa: E402

import hlcbs.cli  # noqa: E402

if __name__ == "__main__":
    trace = tracer.Tracer()
    trace.install()
    code = hlcbs.cli.main(sys.argv[1:])
    sys.stdout.flush()
    print(json.dumps(trace.snapshot()), file=sys.stderr)
    sys.exit(code)
