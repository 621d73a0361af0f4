"""Run one swarmnav CLI command in this process with the span tracer
installed, then write the spans.

    python perfbench/traced_cli.py SPANS.npz -- <swarmnav cli arguments>

`src` must be on PYTHONPATH. Next to SPANS.npz it writes SPANS.npz.json
with the rebound bindings and any binding problem; forked montecarlo
workers write their own SPANS.npz.w<pid>-<n>.npz files.
"""

import json
import sys

import swarmnav.cli as cli
from tracer import Tracer


def main():
    spans_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        sys.exit("usage: traced_cli.py SPANS.npz -- <swarmnav cli arguments>")
    tracer = Tracer(spans_path)
    bindings = tracer.install()
    problems = tracer.check_bindings()
    code = cli.main(argv)
    tracer.dump()
    with open(spans_path + ".json", "w") as fh:
        json.dump({"bindings": bindings, "problems": problems, "exit": code}, fh, indent=1)
    return code


if __name__ == "__main__":
    sys.exit(main())
