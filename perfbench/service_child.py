"""``python -m repro.service`` with the layer tracer installed.

Usage (the traced ``service-open`` run launches this in place of the
plain module)::

    python perfbench/service_child.py --summary out.json --spans out.jsonl \\
        -- --port 0 --cache-dir DIR

Arguments after ``--`` go to the service unchanged.  On SIGINT the
service shuts down as usual; the tracer's per-layer summary and spans
are then written to the given files.
"""

import argparse
import json
import sys

import layers
from tracer import Tracer


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--summary", required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("service_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    service_args = [a for a in args.service_args if a != "--"]

    from repro.service import __main__ as service_main

    tracer = Tracer()
    layers.install(tracer, service=True)
    try:
        code = service_main.main(service_args)
    finally:
        with open(args.summary, "w") as handle:
            json.dump(tracer.summary(), handle)
        tracer.dump(args.spans)
    return code


if __name__ == "__main__":
    sys.exit(main())
