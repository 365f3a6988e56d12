"""One pass over a workload, in a fresh interpreter so lru caches start cold.

Run by ``run.py``; prints one JSON object on stdout.  The pass imports qr2m
from the checkout's ``src``, writes a config file per verify point, then
calls ``qr2m.cli.main`` on each point in the seed's order, one after the
other.  Outputs are checked only after the last point has returned.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK_DIR = HERE / "_work"


def _import_cli():
    sys.path.insert(0, str(SRC))
    import qr2m.cli

    if not Path(qr2m.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"qr2m was imported from {qr2m.cli.__file__}, not from {SRC}")
    return qr2m.cli


def _run_point(cli, args: list[str]) -> tuple[float, object, str, str]:
    out, err = io.StringIO(), io.StringIO()
    t = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(args)
    except SystemExit as exc:  # argparse rejects its input this way
        rc = exc.code
    except Exception as exc:
        rc = f"raised {exc!r}"
    return time.perf_counter() - t, rc, out.getvalue(), err.getvalue()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace-spans", help="trace the pass and write its spans here")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--unfrozen", action="store_true",
                    help="skip the frozen-digest check (used to freeze digests)")
    opts = ap.parse_args()

    import workloads

    cli = _import_cli()
    keys = workloads.ordered_points(opts.workload, opts.seed)
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        commands = []
        for key in keys:
            config = None
            if opts.workload != "weight":
                config = str(Path(tmp) / f"{key.replace(',', '_')}.toml")
                Path(config).write_text(workloads.config_text(key), encoding="utf-8")
            commands.append((key, workloads.argv(opts.workload, key, config)))
        setup_s = time.perf_counter() - T0
        if opts.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return

        tracer = None
        if opts.trace_spans:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        results = []
        start = time.perf_counter()
        for key, args in commands:
            if tracer is not None:
                tracer.point = key
            results.append((key, *_run_point(cli, args)))
        wall_s = time.perf_counter() - start

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    frozen = {} if opts.unfrozen else workloads.load_expected()["digests"][opts.workload]
    desk_errata = workloads.load_desk_errata()
    points = []
    checks = 0
    for key, seconds, rc, out, err in results:
        error = workloads.check_output(
            opts.workload, key, rc, out, None if opts.unfrozen else frozen.get(key, ""),
            desk_errata)
        if error is None and opts.workload != "weight":
            checks += json.loads(out)["summary"]["checks"]
        points.append({"key": key, "seconds": seconds, "digest": workloads.digest(out),
                       "error": error, "stderr": err[-500:]})
    result = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
              "points": points}
    if tracer is not None:
        layers = tracer.summary()
        layers["verify.checks"] = checks
        result["layers"] = layers
        tracer.write_spans(opts.trace_spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
