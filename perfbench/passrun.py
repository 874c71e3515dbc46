"""One pass of a markovflight CLI command in a fresh interpreter.

    python3 perfbench/passrun.py RESULT_JSON STDOUT_FILE TRACE [CLI ARG ...]

Times set-up first: importing ``markovflight.cli`` and building its parser
(through ``main(["--help"])``), which is what every invocation pays.  With
CLI arguments it then times one ``cli.main(args)`` call, with the command's
standard output going to STDOUT_FILE, and reads the process's peak resident
memory.  TRACE=1 runs the command under the layer tracer.  The figures go to
RESULT_JSON; the caller judges the output.
"""
import io
import sys
import time


def _setup():
    start = time.perf_counter()
    import markovflight.cli as cli

    shown = sys.stdout
    sys.stdout = io.StringIO()
    try:
        cli.main(["--help"])
    except SystemExit:
        pass
    finally:
        sys.stdout = shown
    return cli, time.perf_counter() - start


def main(result_path: str, stdout_path: str, trace: bool, argv: list) -> None:
    cli, setup_s = _setup()

    import json
    import resource
    import traceback

    record = {"setup_s": setup_s, "module_file": cli.__file__}
    if argv:
        tracer = None
        if trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
        error = None
        shown = sys.stdout
        try:
            with open(stdout_path, "w") as out:
                sys.stdout = out
                start = time.perf_counter()
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
                except Exception:
                    code, error = None, traceback.format_exc()
                wall_s = time.perf_counter() - start
        finally:
            sys.stdout = shown
            if tracer is not None:
                tracer.uninstall()
        record.update(
            wall_s=wall_s,
            exit_code=code,
            error=error,
            rss_peak_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        if tracer is not None:
            record["layers"] = {
                name: vars(stats) for name, stats in tracer.stats.items()
            }
            record["terms_per_call"] = {
                parent: tracer.terms_per_call(parent, "specfun.bessel_j")
                for parent in ("charfun.h2_series", "charfun.h3_series")
            }
    with open(result_path, "w") as f:
        json.dump(record, f)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], sys.argv[3] == "1", sys.argv[4:])
