#!/usr/bin/env python3
"""Run one bsclab CLI command with the layer spans of tracer.py recorded.

    PERFBENCH_SPANS=spans.json PERFBENCH_OP=0 python3 perfbench/tracecli.py oracle --p 0.1 ...

Arguments are those of `bsclab`.  The command's output and exit code are
unchanged; its spans are written to $PERFBENCH_SPANS when it ends, stamped
with the operation id $PERFBENCH_OP.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from tracer import Tracer, span_records  # noqa: E402

import bsclab.cli  # noqa: E402


def main() -> int:
    tracer = Tracer()
    tracer.op = int(os.environ.get("PERFBENCH_OP", "0"))
    tracer.install()
    try:
        return bsclab.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        with open(os.environ["PERFBENCH_SPANS"], "w", encoding="utf-8") as fh:
            json.dump(span_records(tracer.take()), fh)


if __name__ == "__main__":
    sys.exit(main())
