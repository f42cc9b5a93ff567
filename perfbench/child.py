"""One benchmark repetition in a fresh interpreter.

    python child.py TIMINGS MODE [CLI ARGS...]

MODE is `setup` (import the CLI, build its parser, stop), `plain` (then run
`cli.main(CLI ARGS)`) or `trace` (install the layer wrappers first).  The
child writes its monotonic clock reading at the end of set-up, the seconds
spent inside `cli.main` and, when traced, the per-layer stats to TIMINGS as
JSON, and exits with the CLI's exit code.  The runner reads the launch and
exit times and the peak resident set from outside.
"""

import json
import sys
import time

from critent import cli

cli.build_parser()
SETUP_DONE = time.monotonic()


def main() -> int:
    timings_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    record = {"setup_done": SETUP_DONE}
    code = 0
    if mode != "setup":
        if mode == "trace":
            import layers

            tracer = layers.Tracer()
            layers.install(tracer)
        start = time.perf_counter()
        code = cli.main(argv)
        record["main_s"] = time.perf_counter() - start
        if mode == "trace":
            record["layers"] = layers.layer_stats(tracer)
    record["exit"] = code
    with open(timings_path, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
