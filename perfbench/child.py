"""One sampled `verify` process.

    python3 child.py TIMINGS [--trace] -- VERIFY-ARGS...

Times the import of `crext.cli`, then runs `crext.cli.main` on VERIFY-ARGS,
exactly as the `verify` command does, and exits with its status.  The time
from the loaded config to the rendered JSON report (`run_suites` plus
`render_json`) is taken at the two bindings `main` calls.  With `--trace`,
per-layer spans are installed before `main` runs.  Timings go to the JSON
file TIMINGS; a process that raises writes none.
"""

import sys
from time import perf_counter


def main(argv) -> int:
    start = perf_counter()
    import crext.cli as cli

    import_s = perf_counter() - start

    import json

    timings_path, *rest = argv
    traced = rest[0] == "--trace"
    verify_args = rest[rest.index("--") + 1 :]

    marks = {}
    run_suites, render_json = cli.run_suites, cli.render_json

    def timed_run_suites(cfg, names):
        marks["start"] = perf_counter()
        return run_suites(cfg, names)

    def timed_render_json(report):
        begin = perf_counter()
        text = render_json(report)
        marks["end"] = perf_counter()
        marks["render_s"] = marks["end"] - begin
        return text

    cli.run_suites, cli.render_json = timed_run_suites, timed_render_json
    tracer = None
    if traced:
        from spans import Tracer

        tracer = Tracer()
        tracer.install(cli)

    status = cli.main(verify_args)
    timings = {
        "import_s": import_s,
        "verify_s": marks["end"] - marks["start"],
        "render_s": marks["render_s"],
        "layers": tracer.metrics(list(cli.SUITES)) if tracer else None,
    }
    with open(timings_path, "w") as fh:
        json.dump(timings, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
