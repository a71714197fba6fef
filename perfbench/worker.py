"""One benchmark process: a fresh interpreter that sets up and runs one unit
of work, then reports what it measured as one JSON line on stdout (or, for
`cli`, leaves stdout to the program and writes its trace to a file).

    python3 perfbench/worker.py setup SPEC
    python3 perfbench/worker.py suite SPEC
    python3 perfbench/worker.py cli SPEC -- <poissonsym arguments>

SPEC is a JSON object.  `t_spawn_ns` is CLOCK_MONOTONIC read by the parent
just before it started this process, so set-up time includes interpreter
start-up; the `*_ns` times reported back are on the same clock, so the
parent can match them with its speed meter (perfbench/meter.py).  The
parent puts the repository's `src` directory on PYTHONPATH.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def _now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _tracer(spec):
    if not spec.get("trace"):
        return None
    from tracer import Tracer   # perfbench/ is sys.path[0] for this script
    tracer = Tracer()
    tracer.install()
    return tracer


def _finish_trace(tracer, spec, out):
    if tracer is None:
        return
    out["trace"] = tracer.summary()
    tracer.write_spans(spec["spans_path"], spec["request"])


def setup_only(spec):
    """Interpreter start to fixtures loaded, through the workload's entry
    module."""
    if spec["entry"] == "cli":
        import poissonsym.cli  # noqa: F401  (the CLI's full import chain)
    from poissonsym import catalog
    for name in spec["geometries"]:
        catalog.load(name)
    t_ready = _now_ns()
    return {"setup_s": (t_ready - spec["t_spawn_ns"]) / 1e9,
            "t_ready_ns": t_ready}


def _suite_summary(report):
    return {
        "geometry": report.geometry,
        "checks": [[c.name, c.passed, c.severity] for c in report.checks],
        "class_dimensions": report.class_dimensions,
        "noether_kinds": report.noether_kinds,
        "currents_verified": report.currents_verified,
        "flagged_tables": report.flagged_tables,
    }


def suite(spec):
    """Load the fixtures, then run `run_fixture_suite` once per entry of
    spec["runs"] ([geometry, [class, ...]]), back to back."""
    from poissonsym import catalog
    tracer = _tracer(spec)
    fixtures = {name: catalog.load(name) for name, _ in spec["runs"]}
    t_ready = _now_ns()
    cpu0 = time.process_time()
    windows, reports = [], []
    for name, classes in spec["runs"]:
        t0 = _now_ns()
        report = catalog.run_fixture_suite(fixtures[name],
                                           classes=tuple(classes))
        windows.append([t0, _now_ns()])
        reports.append(_suite_summary(report))
    cpu_s = time.process_time() - cpu0
    t_end = _now_ns()
    out = {
        "setup_s": (t_ready - spec["t_spawn_ns"]) / 1e9,
        "wall_s": (t_end - t_ready) / 1e9,
        "cpu_s": cpu_s,
        "peak_rss_mb": _peak_rss_mb(),
        "requests": [(t1 - t0) / 1e9 for t0, t1 in windows],
        "t_ready_ns": t_ready,
        "t_end_ns": t_end,
        "request_windows_ns": windows,
        "reports": reports,
    }
    _finish_trace(tracer, spec, out)
    return out


def cli(spec, argv):
    """Run one poissonsym command in-process with tracing on; exit with its
    exit code, as `python3 -m poissonsym.cli` would."""
    t0 = time.perf_counter()
    from poissonsym import cli as cli_module
    import_s = time.perf_counter() - t0
    tracer = _tracer(spec)
    code = None
    try:
        code = cli_module.main(argv)
    finally:
        out = {"import_s": import_s, "exit": code}
        _finish_trace(tracer, spec, out)
        with open(spec["result_path"], "w") as fh:
            json.dump(out, fh)
    return code


def main(argv):
    mode, spec = argv[1], json.loads(argv[2])
    if mode == "cli":
        return cli(spec, argv[4:])
    out = setup_only(spec) if mode == "setup" else suite(spec)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
