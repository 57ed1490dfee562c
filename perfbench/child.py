"""Run one ``ocrs`` CLI command in this fresh interpreter and time its phases.

Usage: ``python3 perfbench/child.py --src SRC --sidecar OUT.json --trace 0|1
[--run-id N] [--spans SPANS.npz] -- <ocrs cli arguments>``

The sidecar records the command start, the first trial draw (the first block
yielded by ``ocrs.core.uniform_blocks``) and the command end, all on this
process's ``perf_counter`` clock.  With ``--trace 1`` it also holds the
per-layer values of :class:`spans.Tracer`, and the spans go to ``--spans``.
The process exits with the command's exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import spans


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--sidecar", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--run-id", type=int, default=0)
    parser.add_argument("--spans", default=None)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    import ocrs.cli

    if not os.path.abspath(ocrs.__file__).startswith(src + os.sep):
        print(f"ocrs imported from {ocrs.__file__}, not from {src}",
              file=sys.stderr)
        return 3

    probe = spans.DrawProbe()
    tracer = None
    command = ocrs.cli.main
    if args.trace:
        tracer = spans.Tracer(args.run_id, probe)
        tracer.install()
        command = tracer.timed("cli.main", command)
    else:
        probe.install()

    start = time.perf_counter()
    code = command(cli_args)
    end = time.perf_counter()

    sidecar = {"start": start, "first_draw": probe.first_draw, "end": end,
               "exit": code}
    if tracer is not None:
        sidecar["layers"] = tracer.layer_metrics()
        if args.spans:
            tracer.write_spans(args.spans)
    with open(args.sidecar, "w") as fh:
        json.dump(sidecar, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
