"""Cold-start benchmark for poissonsym.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
`src/`; nothing needs installing).  Every unit of work starts in a fresh
interpreter, because sympy's cache, the MetricSpace cached properties and
module globals all warm up inside one process and a CLI user pays the cold
cost on every command.  Load is closed loop: one client, one request at a
time.

Workloads (see BENCHMARK.json for why each exists; suite-flat is not
declared there, to keep a check of the benchmark within its time budget):

    suite-flat              run_fixture_suite on euclidean, then sol, all
                            default classes; the seed shuffles class order
    suite-sphere3-critical  run_fixture_suite on sphere3, class critical
    cli-cold                27 short poissonsym commands, each its own
                            process; the seed sets their order and the
                            --seed each command gets

With --trace 0 the run repeats whole passes of the workload while they fit
in --seconds (at least one) and reports the end-to-end metrics.  With
--trace 1 it runs one traced pass (perfbench/tracer.py) and reports the
per-layer metrics, including the tracing overhead against the median of the
untraced runs of the same sources already recorded in perfbench/results/
(or against an untraced pass run just before, if there are none).  Either
way every verdict and exit code is checked against perfbench/reference.json;
an unexpected mismatch makes the run exit 1.  The last stdout line is the
JSON result; the full record, with the environment, is written to
perfbench/results/.

The run and every process it starts are pinned to one core, where a speed
meter (perfbench/meter.py) samples how fast the core is.  The end-to-end
times are reported at the meter's reference speed, each scaled by the
slowdown the meter saw over the window it was measured in; the measured
times are kept in the record (`raw_metrics`) and on a report line.
"""

from __future__ import annotations

import argparse
import functools
import gzip
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
RESULTS = HERE / "results"

sys.path.insert(0, str(HERE))
from meter import REFERENCE_LOOP_S, SpeedMeter  # noqa: E402
from tracer import LAYERS, SPAN_NAMES  # noqa: E402

#: catalog.DEFAULT_CLASSES when the benchmark was defined, fixed here so
#: the workload does not move with the program
SUITE_CLASSES = ("arbitrary", "zero", "linear", "exponential", "power3",
                 "critical")
SUITE_RUNS = {
    "suite-flat": (("euclidean", SUITE_CLASSES), ("sol", SUITE_CLASSES)),
    "suite-sphere3-critical": (("sphere3", ("critical",)),),
}
ALL_GEOMETRIES = ("euclidean", "hyperbolic3", "sphere3", "sol", "s2xr",
                  "h2xr", "sl2tilde", "heisenberg")
WORKLOADS = tuple(SUITE_RUNS) + ("cli-cold",)

#: set-up samples per run (interpreter start to fixtures loaded)
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170
#: BLAS pools are pinned to one thread: the solver's matrices are small and
#: a spinning second thread only competes with the client on a 2-core host
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


@functools.cache
def reference() -> dict:
    """Hand-written expected verdicts (perfbench/reference.json)."""
    return json.loads((HERE / "reference.json").read_text())


class BenchError(Exception):
    """The benchmark cannot run here (missing source, worker crash)."""


# ---------------------------------------------------------------------------
# processes

def _mono_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def child_env(seed: int) -> dict:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    return env


def spawn(args, env, stdout_path, stderr_path) -> dict:
    """Run one child to completion; returns its exit code, wall time and
    resource usage (read with wait4, so nothing else reaps it)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0_ns = _mono_ns()
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out,
                                stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:          # interrupted: leave no child behind
            proc.kill()
            os.waitpid(proc.pid, 0)
            raise
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - t0
        t1_ns = _mono_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"exit": proc.returncode, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "t0_ns": t0_ns, "t1_ns": t1_ns}


def run_worker(mode, spec, env, work: Path) -> dict:
    spec = dict(spec, t_spawn_ns=_mono_ns())
    out, err = work / f"{mode}.out", work / f"{mode}.err"
    res = spawn([str(WORKER), mode, json.dumps(spec)], env, out, err)
    if res["exit"] != 0:
        raise BenchError(f"{mode} worker exited {res['exit']}:\n"
                         + err.read_text()[-2000:])
    return dict(json.loads(out.read_text().splitlines()[-1]),
                t_spawn_ns=spec["t_spawn_ns"])


def setup_samples(workload, env, work, count) -> list:
    if workload == "cli-cold":
        spec = {"entry": "cli", "geometries": ALL_GEOMETRIES}
    else:
        spec = {"entry": "catalog",
                "geometries": [g for g, _ in SUITE_RUNS[workload]]}
    samples = []
    for _ in range(count):
        out = run_worker("setup", spec, env, work)
        samples.append({"raw": {"setup_s": out["setup_s"]},
                        "windows": {"setup_s": [out["t_spawn_ns"],
                                                out["t_ready_ns"]]}})
    return samples


def scale(meter, item: dict) -> dict:
    """Adds to `item` each time in item["raw"] that has a window (or, for
    "requests", a list of windows) in item["windows"], at the reference speed
    of perfbench/meter.py, and the slowdown over the whole of its first
    window; values without a window are copied."""
    item.update(item["raw"])
    for key, window in item["windows"].items():
        if key == "requests":
            item[key] = [v / meter.slowdown(*w)
                         for v, w in zip(item["raw"][key], window)]
        else:
            item[key] = item["raw"][key] / meter.slowdown(*window)
    item["slowdown"] = meter.slowdown(*next(iter(item["windows"].values())))
    return item


# ---------------------------------------------------------------------------
# suite workloads

def suite_runs(workload, seed):
    rng = random.Random(seed)
    runs = []
    for geometry, classes in SUITE_RUNS[workload]:
        order = list(classes)
        rng.shuffle(order)
        runs.append([geometry, order])
    return runs


def suite_pass(workload, seed, env, work, trace) -> dict:
    spec = {"runs": suite_runs(workload, seed), "trace": trace,
            "spans_path": str(work / "spans-0.tsv.gz"), "request": "0"}
    res = run_worker("suite", spec, env, work)
    pass_window = [res["t_ready_ns"], res["t_end_ns"]]
    out = {"raw": {k: res[k] for k in ("setup_s", "wall_s", "cpu_s",
                                       "peak_rss_mb", "requests")},
           "windows": {"wall_s": pass_window, "cpu_s": pass_window,
                       "setup_s": [res["t_spawn_ns"], res["t_ready_ns"]],
                       "requests": res["request_windows_ns"]},
           "trace": res.get("trace")}
    out["ops"] = [op for rep in res["reports"]
                  for op in check_suite(rep, dict(spec["runs"])[rep["geometry"]])]
    if trace:
        out["trace"]["import_s"] = 0.0
        out["spans"] = [spec["spans_path"]]
    return out


def check_suite(rep, classes) -> list:
    """(operation, ok, detail) for every suite verdict against the
    reference."""
    geo = reference()["geometries"][rep["geometry"]]
    rules = reference()["suite_rules"]
    g = rep["geometry"]
    checks = {name: (passed, sev) for name, passed, sev in rep["checks"]}
    ops = [(f"{g}:{name}", passed, "check failed")
           for name, (passed, sev) in checks.items() if sev == "error"]
    required = ["curvature", "bracket_closure", "basis_independent"]
    required += [f"killing:{k}" for k in geo["killing"]]
    required += [f"reconcile:{t}:{sym}" for t, (sym, _) in geo["tables"].items()]
    for c in classes:
        required += [f"classify:{c}:clean", f"classify:{c}:side_conditions"]
        if c in rules["current_classes"]:
            required.append(f"currents:{c}")
    ops += [(f"{g}:{name}:present", name in checks, "check missing")
            for name in required]
    for c in classes:
        if c in geo["class_dimensions"]:
            want, got = geo["class_dimensions"][c], rep["class_dimensions"].get(c)
            ops.append((f"{g}:dimension:{c}", got == want,
                        f"found {got}, reference {want}"))
    documented = sorted(t for t, (_, m) in geo["tables"].items() if not all(m))
    ops.append((f"{g}:flagged_tables", sorted(rep["flagged_tables"]) == documented,
                f"flagged {sorted(rep['flagged_tables'])}, documented {documented}"))
    if "arbitrary" in classes:
        kinds = rep["noether_kinds"].get("arbitrary", {})
        want = rules["arbitrary_noether_kind"]
        ops.append((f"{g}:noether:arbitrary",
                    bool(kinds) and all(k == want for k in kinds.values()),
                    f"kinds {kinds}"))
    return ops


# ---------------------------------------------------------------------------
# cli-cold workload

_IDENTITY = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
MANIFESTS = {
    "bad.json": "{not json",
    "singular.json": json.dumps({"manifold": {"coords": ["x", "y"]},
                                 "metric": {"g": [["1", "0"], ["0", "0"]]}}),
    "box-scalar.json": json.dumps({"manifold": {"coords": ["x", "y", "z"],
                                                "box": {"z": 5}},
                                   "metric": {"g": _IDENTITY}}),
    "box-strings.json": json.dumps({"manifold": {"coords": ["x", "y", "z"],
                                                 "box": {"z": ["a", "b"]}},
                                    "metric": {"g": _IDENTITY}}),
}


def cli_units(work: Path) -> list:
    """Units of requests; a unit's requests run in order (export feeds the
    next command), units are shuffled by the seed."""
    geo = lambda name: ["--geometry", name]  # noqa: E731
    units = [[(f"curvature-{g}", ["curvature", *geo(g), "--json"])]
             for g in ALL_GEOMETRIES]
    units += [[(rid, argv)] for rid, argv in (
        ("killing-sol-So1", ["killing", *geo("sol"), "So1", "--json"]),
        ("killing-euclidean-solve",
         ["killing", *geo("euclidean"), "--solve", "--json"]),
        ("classify-euclidean-critical",
         ["classify", *geo("euclidean"), "--class", "critical", "--json"]),
        ("classify-sol-arbitrary",
         ["classify", *geo("sol"), "--class", "arbitrary", "--json"]),
        ("noether-euclidean-exponential-R13",
         ["noether", *geo("euclidean"), "--class", "exponential", "R13",
          "--json"]),
        ("noether-euclidean-critical-R8",
         ["noether", *geo("euclidean"), "--class", "critical", "R8",
          "--json"]),
        ("current-euclidean-critical-R8",
         ["current", *geo("euclidean"), "--class", "critical", "R8",
          "--verify", "100", "--json"]),
        ("current-sol-arbitrary-So1",
         ["current", *geo("sol"), "--class", "arbitrary", "So1",
          "--verify", "100", "--json"]),
        ("error-unknown-geometry", ["curvature", *geo("nosuch")]),
        ("error-p2n6-dimension",
         ["classify", *geo("euclidean"), "--class", "p2n6"]),
        ("error-power-without-p",
         ["noether", *geo("euclidean"), "--class", "power", "R1"]),
        ("error-bad-json", ["curvature", str(work / "bad.json")]),
        ("error-singular-metric", ["curvature", str(work / "singular.json")]),
        ("error-current-not-noether",
         ["current", *geo("euclidean"), "--class", "exponential", "R13"]),
        ("error-not-a-symmetry",
         ["noether", *geo("euclidean"), "--class", "critical", "x,0,0"]),
        ("probe-box-scalar", ["curvature", str(work / "box-scalar.json")]),
        ("probe-box-strings", ["curvature", str(work / "box-strings.json")]),
    )]
    units.append([("export-sol", ["export", "sol"]),
                  ("curvature-exported-sol",
                   ["curvature", str(work / "export-sol.out"), "--json"])])
    return units


def cli_pass(seed, env, work, trace) -> dict:
    for name, text in MANIFESTS.items():
        (work / name).write_text(text)
    rng = random.Random(seed)
    units = cli_units(work)
    rng.shuffle(units)
    requests, windows, ids, ops, spans, traces = [], [], [], [], [], []
    cpu = peak = 0.0
    t0_ns = _mono_ns()
    t0 = time.perf_counter()
    for unit in units:
        for rid, argv in unit:
            argv = argv + ["--seed", str(rng.randrange(1, 2**31))]
            if trace:
                spec = {"trace": True, "request": rid,
                        "spans_path": str(work / f"spans-{rid}.tsv.gz"),
                        "result_path": str(work / f"trace-{rid}.json")}
                args = [str(WORKER), "cli", json.dumps(spec), "--", *argv]
            else:
                args = ["-m", "poissonsym.cli", *argv]
            out, err = work / f"{rid}.out", work / f"{rid}.err"
            res = spawn(args, env, out, err)
            requests.append(res["wall_s"])
            windows.append([res["t0_ns"], res["t1_ns"]])
            ids.append(rid)
            cpu += res["cpu_s"]
            peak = max(peak, res["peak_rss_mb"])
            ops.append((rid,) + check_cli(rid, res["exit"], out, err))
            if trace:
                traces.append(json.loads(Path(spec["result_path"]).read_text()))
                spans.append(spec["spans_path"])
    pass_window = [t0_ns, _mono_ns()]
    out = {"raw": {"wall_s": time.perf_counter() - t0, "cpu_s": cpu,
                   "peak_rss_mb": peak, "requests": requests},
           "windows": {"wall_s": pass_window, "cpu_s": pass_window,
                       "requests": windows},
           "request_ids": ids, "ops": ops}
    if trace:
        out["trace"] = merge_traces(traces)
        out["spans"] = spans
    return out


def _curvature(out: Path):
    return Fraction(json.loads(out.read_text())["scalar_curvature"])


def check_cli(rid, code, out: Path, err: Path):
    """(ok, detail) or ("known", detail) for one command."""
    ref = reference()["cli"][rid]
    want = reference()["exit_codes"][ref["exit"]]
    if code != want:
        known = ref.get("known_defect")
        if known and code == known["exit"]:
            return "known", f"exit {code}, contract {want}: {known['source']}"
        tail = err.read_text().strip().splitlines()[-1:] or [""]
        return False, f"exit {code}, reference {want}: {tail[0]}"
    if want != 0:
        return True, ""
    try:
        if "scalar_curvature" in ref:
            got = _curvature(out)
            return got == Fraction(ref["scalar_curvature"]), f"R = {got}"
        doc = json.loads(out.read_text())
        if rid == "export-sol":
            ok = (doc["manifold"]["coords"] == ref["coords"]
                  and ref["vectorfield"] in doc["vectorfields"])
            return ok, "exported manifest"
        keys = [k for k in ("verdict", "mu", "dimension", "counts") if k in ref]
        ok = all(doc.get(k) == ref[k] for k in keys)
        if "potential_x" in ref:
            ok = ok and doc["potential"][0] == ref["potential_x"]
        if ref.get("verified"):
            ok = ok and doc["symbolic_verified"] and doc["numeric_passed"]
        if rid.startswith("classify"):
            ok = ok and all(c["passed"] for row in doc["generators"]
                            for c in row["checks"])
        return ok, json.dumps({k: doc.get(k) for k in keys})
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        return False, f"unreadable output: {exc!r}"


def merge_traces(traces) -> dict:
    total = {"calls": {}, "self_s": {}, "counts": {}, "missed": {},
             "unrebound": [], "spans": 0, "import_s": 0.0}
    for tr in traces:
        total["import_s"] += tr["import_s"]
        t = tr.get("trace")
        if t is None:
            continue
        for key in ("calls", "self_s", "counts", "missed"):
            for name, v in t[key].items():
                total[key][name] = total[key].get(name, 0) + v
        total["unrebound"] += [u for u in t["unrebound"]
                               if u not in total["unrebound"]]
        total["spans"] += t["spans"]
    return total


# ---------------------------------------------------------------------------
# metrics

def tail(values):
    """Highest percentile with at least ten samples beyond it (the maximum
    when there are fewer than eleven samples)."""
    xs = sorted(values)
    k = len(xs) - 11 if len(xs) >= 11 else len(xs) - 1
    return xs[k], round(100.0 * (k + 1) / len(xs)), len(xs) - 1 - k


def end_to_end(setups, passes) -> tuple[dict, list]:
    requests = [r for p in passes for r in p["requests"]]
    wall = statistics.median(p["wall_s"] for p in passes)
    value, pct, beyond = tail(requests)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall, "s"),
        "cpu_s": (statistics.median(p["cpu_s"] for p in passes), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes),
                        "MB"),
        "request_p50_s": (statistics.median(requests), "s"),
        "request_tail_s": (value, "s"),
        "requests_per_s": (len(requests) / sum(p["wall_s"] for p in passes),
                           "1/s"),
    }
    notes = [f"setup_s: median of {len(setups)} set-ups",
             f"wall_s, cpu_s, peak_rss_mb: median of {len(passes)} pass(es)",
             f"request_tail_s: p{pct} with {beyond} sample(s) beyond it, "
             f"n={len(requests)}"]
    return metrics, notes


def earlier_untraced_wall(workload):
    """Median wall_s of the untraced runs of this workload and source already
    in results/ (None if there are none), so a traced run need not repeat
    an untraced pass to report its overhead."""
    digest = source_digest()
    walls = []
    for path in RESULTS.glob(f"{workload}-seed*-trace0.json"):
        rec = json.loads(path.read_text())
        if rec["environment"]["source_sha256_16"] == digest:
            walls.append(rec["metrics"]["wall_s"]["value"])
    if not walls:
        return None, None
    return (statistics.median(walls),
            f"median of {len(walls)} earlier untraced run(s) of this source")


def per_layer(untraced_wall, traced) -> dict:
    t = traced["trace"]
    wall = traced["raw"]["wall_s"]      # self times are measured, not scaled
    m = {}
    for name in SPAN_NAMES:
        m[f"{name}.calls"] = (t["calls"].get(name, 0), "count")
        m[f"{name}.self_s"] = (t["self_s"].get(name, 0.0), "s")
    counts = t["counts"]
    for name in COUNT_NAMES:
        m[name] = (counts.get(name, 0), "count")
    null = counts.get("detsys.solve.nullspace_dim", 0)
    m["detsys.solve.generators_per_nullspace_dim"] = (
        counts.get("detsys.solve.generators", 0) / null if null else 0.0,
        "ratio")
    m["cli.import_s"] = (t["import_s"], "s")
    attributed = 0.0
    for layer in LAYERS:
        self_s = sum(v for k, v in t["self_s"].items()
                     if k.startswith(layer + "."))
        if layer == "cli":
            self_s += t["import_s"]
        attributed += self_s
        m[f"share.{layer}"] = (self_s / wall, "ratio")
    m["share.unattributed"] = (max(0.0, wall - attributed) / wall, "ratio")
    # at the reference speed, like the untraced wall_s it is compared with
    m["trace.wall_s"] = (traced["wall_s"], "s")
    m["trace.untraced_wall_s"] = (untraced_wall, "s")
    m["trace.overhead_s"] = (traced["wall_s"] - untraced_wall, "s")
    return m


COUNT_NAMES = (
    "exprcore.is_zero.zero", "exprcore.is_zero.nonzero",
    "exprcore.is_zero.inconclusive",
    "detsys.solve.nullspace_dim", "detsys.solve.generators",
    "detsys.solve.inconclusive",
    "noether.kind.Variational", "noether.kind.Divergence",
    "noether.kind.ScaledNonNoether", "noether.kind.NotNoether",
    "noether.verify_current_symbolic.passed",
    "noether.verify_current_numeric.passed",
    "catalog.checks.attempted", "catalog.checks.failed",
)

#: wrapped functions a workload does not reach; every other one must record
#: at least one call in a traced pass
NOT_EXERCISED = {
    "suite-flat": ("cli.export_fixture", "cli.load_manifest", "cli.main"),
    "suite-sphere3-critical": ("cli.export_fixture", "cli.load_manifest",
                               "cli.main"),
    "cli-cold": ("geom.lie_bracket", "catalog.reconcile_reference_tables",
                 "catalog.run_fixture_suite"),
}


def trace_self_check(workload, trace) -> list:
    problems = [f"call missed by the tracer: {k} ({v} calls)"
                for k, v in sorted(trace["missed"].items())]
    problems += [f"binding not rebound: {u}" for u in trace["unrebound"]]
    problems += [f"no calls recorded for {name}" for name in SPAN_NAMES
                 if name not in NOT_EXERCISED[workload]
                 and not trace["calls"].get(name)]
    return problems


def determinism_check(workload, seed, trace) -> tuple[str, list]:
    """Compare call and verdict counts with an earlier traced run of the
    same workload, seed and source; record them for the next one."""
    state = {"source": source_digest(),
             "calls": trace["calls"], "counts": trace["counts"]}
    path = RESULTS / f"counts-{workload}-seed{seed}.json"
    before = json.loads(path.read_text()) if path.exists() else None
    path.write_text(json.dumps(state, indent=1, sort_keys=True))
    if before is None or before["source"] != state["source"]:
        return "counts recorded (first traced run of this seed and source)", []
    problems = [f"{key} {name}: {before[key].get(name, 0)} before, "
                f"{state[key].get(name, 0)} now"
                for key in ("calls", "counts")
                for name in sorted(set(before[key]) | set(state[key]))
                if before[key].get(name, 0) != state[key].get(name, 0)]
    status = ("counts differ from" if problems else "counts repeat") + \
        " the earlier traced run of this seed and source"
    return status, problems


# ---------------------------------------------------------------------------
# environment

def source_digest() -> str:
    h = hashlib.sha256()
    for base in (SRC, HERE):
        for p in sorted(base.rglob("*.py")) + sorted(base.rglob("*.json")):
            if RESULTS in p.parents or ".work" in p.parts:
                continue
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    """HEAD read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _version(dist: str):
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def environment(seed, env, cpu) -> dict:
    return {
        "commit": git_commit(), "source_sha256_16": source_digest(),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "sympy": _version("sympy"), "numpy": _version("numpy"),
        "blas_threads": BLAS_ENV, "workload_seed": seed,
        "pythonhashseed": env["PYTHONHASHSEED"],
        "machine": platform.machine(), "pinned_cpu": cpu,
        "meter_reference_loop_s": REFERENCE_LOOP_S,
    }


# ---------------------------------------------------------------------------
# main

def run(args, work: Path, cpu: int) -> tuple[dict, bool]:
    env = child_env(args.seed)
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace,
              "environment": environment(args.seed, env, cpu)}
    untraced, source = (earlier_untraced_wall(args.workload) if args.trace
                        else (None, None))
    # times are scaled once the meter has stopped, so that a window too
    # short for the meter's minimum can widen into the samples after it
    with SpeedMeter() as meter:
        passes, setups = measure(args, env, work, untraced)
    for item in passes + setups:
        scale(meter, item)
    if args.trace and untraced is None:
        untraced, source = passes[0]["wall_s"], "an untraced pass just before"
    ops = [op for p in passes for op in p["ops"]]
    failed = [op for op in ops if op[1] is False]
    known = sorted({(op[0], op[2]) for op in ops if op[1] == "known"})
    lines = []
    if args.trace:
        traced = passes[-1]
        status, problems = determinism_check(args.workload, args.seed,
                                             traced["trace"])
        problems += trace_self_check(args.workload, traced["trace"])
        metrics = per_layer(untraced, traced)
        lines.append(f"untraced wall_s: {source}")
        lines.append(f"determinism: {status}")
        failed += [("trace-self-check", False, p) for p in problems]
        record["spans"] = write_spans(args, traced["spans"])
        lines.append(f"spans: {traced['trace']['spans']} in {record['spans']}")
    else:
        metrics, lines = end_to_end([s["setup_s"] for s in setups], passes)
        raw, _ = end_to_end([s["raw"]["setup_s"] for s in setups],
                            [p["raw"] for p in passes])
        record["raw_metrics"] = {k: {"value": v, "unit": u}
                                 for k, (v, u) in raw.items()}
        lines.append(
            "times are at the reference speed of perfbench/meter.py; pass "
            "slowdown " + ", ".join(f"{p['slowdown']:.3f}" for p in passes)
            + "; measured: " + ", ".join(
                f"{k} {v:.4g}" for k, (v, u) in raw.items() if u == "s"))
    attempted = len(ops)
    n_bad = len(failed) + sum(1 for op in ops if op[1] == "known")
    lines.append(f"ops_failed_ratio: {n_bad / attempted:.4f} ({n_bad} of "
                 f"{attempted} operations attempted: {len(failed)} unexpected"
                 f", {n_bad - len(failed)} known defects)")
    lines += [f"known defect: {rid}: {detail}" for rid, detail in known]
    lines += [f"FAILED: {op[0]}: {op[2]}" for op in failed]
    record.update(metrics={k: {"value": v, "unit": u}
                           for k, (v, u) in metrics.items()},
                  attempted=attempted, failed=len(failed),
                  known_defects=[list(k) for k in known],
                  failures=[list(op) for op in failed],
                  passes=[{k: v for k, v in p.items()
                           if k in ("setup_s", "wall_s", "cpu_s",
                                    "peak_rss_mb", "requests",
                                    "request_ids", "slowdown", "raw")}
                          for p in passes],
                  notes=lines)
    return record, not failed


def measure(args, env, work, untraced):
    """The passes of one run, with their times as measured, and, untraced,
    its set-up samples.  A traced run makes an untraced pass first when
    `untraced` (an earlier untraced wall_s) is None."""
    def one_pass(trace):
        if args.workload == "cli-cold":
            return cli_pass(args.seed, env, work, trace)
        return suite_pass(args.workload, args.seed, env, work, trace)

    passes = []
    started = time.perf_counter()
    if args.trace:
        if untraced is None:
            passes.append(one_pass(False))
        passes.append(one_pass(True))
        return passes, []
    while True:
        passes.append(one_pass(False))
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(passes) > args.seconds:
            break
    setups = [{"raw": {"setup_s": p["raw"]["setup_s"]},
               "windows": {"setup_s": p["windows"]["setup_s"]}}
              for p in passes if "setup_s" in p["raw"]]
    setups += setup_samples(args.workload, env, work,
                            max(0, SETUP_SAMPLES - len(setups)))
    return passes, setups


def write_spans(args, paths) -> str:
    out = RESULTS / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
    with gzip.open(out, "wt") as sink:
        for i, path in enumerate(paths):
            with gzip.open(path, "rt") as src:
                header = src.readline()
                if i == 0:
                    sink.write(header)
                shutil.copyfileobj(src, sink)
    return str(out.relative_to(ROOT))


def declared_metrics(trace: int) -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a SIGTERM unwinds like an exception, so the child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "poissonsym" / "cli.py").is_file():
        print(f"error: no poissonsym sources under {SRC}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    work = HERE / ".work" / str(os.getpid())
    work.mkdir(parents=True)
    # the children and the speed meter share one core, so the meter sees
    # the speed the workload gets (threads and children inherit this)
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    try:
        record, ok = run(args, work, cpu)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    declared = declared_metrics(args.trace)
    if set(declared) != set(record["metrics"]):
        print("error: metrics differ from BENCHMARK.json: "
              f"{sorted(set(declared) ^ set(record['metrics']))}",
              file=sys.stderr)
        return 2
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=1))
    print(f"poissonsym benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace}")
    print("environment: " + json.dumps(record["environment"]))
    for key in declared:
        m = record["metrics"][key]
        print(f"  {key:44s} {m['value']:>14.6g} {m['unit']}")
    for line in record["notes"]:
        print(line)
    print(json.dumps({"correct": ok, "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": {k: record["metrics"][k] for k in declared}}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
