#!/usr/bin/env python3
"""perfbench -- the end-to-end and per-layer benchmark of this repository.

Run from the root of a checkout:

    python3 perfbench/run.py --workload translate --seed 1 --seconds 10 --trace 0

``--trace 0`` times jobs with nothing added and prints the end-to-end
metrics; ``--trace 1`` spends half the time untraced and half traced,
prints the per-layer metrics and writes a Chrome trace with a self-time
table under ``.perfbench/``.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``perfbench/NOTES.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

WORKLOADS = ("translate", "run_small", "run_large", "serve_mix")
#: Per-workload tail-latency limit for ``ok_rps_max`` on the closed
#: loops (about four times the tail measured on 2 vCPUs).
LATENCY_LIMIT_MS = {"translate": 500.0, "run_small": 750.0,
                    "run_large": 1000.0}
#: Fresh processes timed per run for ``setup_s`` (median reported).
SETUP_PROBES = 7
SERVE_SETUPS = 5


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def specs_for(workload: str) -> list[str]:
    """Translators a workload's jobs use, as probe arguments: extension
    set and thread count (the translator cache keys on both)."""
    n = {"translate": 4, "run_small": 1, "run_large": nproc(), "serve_mix": 1}[workload]
    return [f"matrix@{n}", f"matrix,transform@{n}"]


def probe(root: Path, env: dict, specs: list[str]) -> dict:
    """Launch one set-up probe; returns its report plus ``setup_s``."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "probe.py"), *specs],
                            cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - t0
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or not line:
        raise RuntimeError("set-up probe failed")
    return {**json.loads(line), "setup_s": setup}


def measure_setup(root: Path, env: dict, workload: str) -> dict:
    """Warm the private artifact store once (untimed), then time
    ``SETUP_PROBES`` fresh processes."""
    specs = specs_for(workload)
    probe(root, env, specs)
    runs = [probe(root, env, specs) for _ in range(SETUP_PROBES)]
    return {"setup_s": [r["setup_s"] for r in runs],
            "translator_ms": [r["translator_ms"] for r in runs],
            "import_ms": [r["import_ms"] for r in runs],
            "artifact_hits": [r["artifact_hits"] for r in runs]}


# -- closed-loop workloads ----------------------------------------------------

def closed_metrics(w: str, res: dict, setup: dict) -> dict:
    from jobs import tail

    times_ms = [1e3 * t for t in res["times"]]
    p, tail_ms = tail(times_ms)
    rate = len(times_ms) / sum(res["times"])
    return {
        "setup_s": (statistics.median(setup["setup_s"]), "s"),
        "job_ms.p50": (statistics.median(times_ms), "ms"),
        "job_ms.tail": (tail_ms, "ms"),
        "jobs_per_s": (rate, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "c_bytes": (res["c_bytes"], "B"),
        "ok_rps_max": (rate if tail_ms <= LATENCY_LIMIT_MS[w] else 0.0, "1/s"),
    }, {"samples": len(times_ms), "tail_percentile": p}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_closed(w: str, seed: int, seconds: float, tmp: Path, tr=None) -> dict:
    import jobs

    if w == "translate":
        return jobs.run_translate(seed, seconds, tr)
    size, n = ("small", 1) if w == "run_small" else ("large", nproc())
    return jobs.run_loop(seed, seconds, size, n, tmp, tr)


def correctness(w: str, res: dict) -> tuple[bool, list[str]]:
    """All jobs judged correct, plus the translate-only checks."""
    notes = list(res["outcome"].reasons)
    ok = res["outcome"].failed == 0
    if w == "translate":
        if res["determinism_mismatches"]:
            print(f"perfbench: DETERMINISM FAILURE: {len(res['determinism_mismatches'])} "
                  "of the replayed translate jobs gave different C or verdicts",
                  file=sys.stderr)
            notes.append("determinism replay differs")
            ok = False
        if res["gcc"]["failed"]:
            notes.append(f"gcc rejected {res['gcc']['failed']} emitted C files")
            ok = False
    return ok, notes


# -- per-layer metrics ---------------------------------------------------------

LAYER_MS = ("parse", "decorate", "lower", "emit", "bytecode", "superinstr",
            "parsafety", "race", "engine_init", "exec", "engine_close")
COUNTERS = ("bytecode.static_instrs", "vm.guards_elided", "ir_opt.rewrites",
            "superinstr.fused", "race.certs", "vm.tasks_pooled", "vm.quickened",
            "vm.deopts", "vm.ic_misses", "fastloop.bails", "shard.regions",
            "shard.bails", "rmat.mb")
SERVE_COUNTERS = {"serve.coalesced": "serve_coalesced",
                  "serve.rejections": "serve_rejections",
                  "serve.worker_restarts": "serve_worker_restarts",
                  "serve.timeouts": "serve_timeouts"}


def layer_metrics(tr, res: dict, setup: dict, untraced_rate: float,
                  traced_rate: float, cache_stats: dict, tmp: Path,
                  serve: dict | None = None) -> dict:
    """Every per-layer metric, zero where a layer does no work here."""
    import numpy as np
    from serveload import leaked_tmpdirs

    n = max(1, len(tr.jobs))
    L = tr.layer_ms(derived=False)
    D = tr.layer_ms(derived=True)
    m: dict[str, tuple[float, str]] = {f"{k}.ms": (L.get(k, 0.0) / n, "ms")
                                       for k in LAYER_MS}
    parse_s = L.get("parse", 0.0) / 1e3
    m["parse.kchars_per_s"] = (res.get("source_chars", 0.0) * n / 1e3 / parse_s
                               if parse_s else 0.0, "kchar/s")
    m["emit.c_bytes"] = (res["c_bytes"], "B")
    m["guard_elide.ms"] = (D.get("guard_elide", 0.0) / n, "ms")
    m["ir_opt.ms"] = (D.get("ir_opt", 0.0) / n, "ms")
    m["rmat.write_ms"] = (L.get("rmat.write", 0.0) / n, "ms")
    m["rmat.read_ms"] = (L.get("rmat.read", 0.0) / n, "ms")
    m["translator.ms"] = (statistics.median(setup["translator_ms"]), "ms")
    for k in ("translator_hits", "translator_misses", "artifact_hits",
              "artifact_misses"):
        m[k.replace("_", ".", 1)] = (cache_stats.get(k, 0), "count")
    counters = res.get("counters") or []
    for k in COUNTERS:
        m[k] = (float(np.mean([c[k] for c in counters])) if counters else 0.0,
                "MB" if k == "rmat.mb" else "count")
    serve = serve or {}
    m["serve.server_ms"] = (L.get("serve.server", 0.0) / n if serve else 0.0, "ms")
    m["serve.transport_ms"] = (L.get("serve.transport", 0.0) / n if serve else 0.0, "ms")
    m["serve.gen_lag_ms"] = (L.get("serve.gen_lag", 0.0) / n if serve else 0.0, "ms")
    for name, key in SERVE_COUNTERS.items():
        m[name] = (serve.get("stats_delta", {}).get(key, 0), "count")
    m["serve.known_defect_traps"] = (serve.get("known_defect", 0), "count")
    m["serve.tmpdirs_leaked"] = (leaked_tmpdirs(tmp), "count")
    m["trace.unaccounted_ratio"] = (tr.unaccounted_ratio(), "ratio")
    m["trace.overhead_ratio"] = (untraced_rate / traced_rate if traced_rate else 0.0,
                                 "ratio")
    return m


def design_check(w: str, m: dict) -> dict:
    """Does the trace confirm why the workload was chosen?"""
    ms = {k: v for k, (v, _u) in m.items()}
    compile_path = sum(ms[k] for k in ("bytecode.ms", "superinstr.ms",
                                       "parsafety.ms", "race.ms"))
    job = sum(ms[f"{k}.ms"] for k in LAYER_MS) + ms["rmat.write_ms"] + ms["rmat.read_ms"]
    if w == "translate":
        run_layers = compile_path + ms["engine_init.ms"] + ms["exec.ms"] + \
            ms["engine_close.ms"] + ms["rmat.write_ms"] + ms["rmat.read_ms"]
        return {"claim": "every repro.cexec and repro.analysis span is zero",
                "holds": run_layers == 0.0}
    if w == "run_small":
        return {"claim": "compile-path layers take more of the job than exec.ms",
                "holds": compile_path > ms["exec.ms"],
                "compile_path_ms": compile_path, "exec_ms": ms["exec.ms"]}
    if w == "run_large":
        return {"claim": "exec.ms takes most of the job",
                "holds": ms["exec.ms"] > 0.5 * job,
                "exec_share": ms["exec.ms"] / job if job else 0.0}
    return {"claim": "serve layers cover the request round trip",
            "holds": ms["trace.unaccounted_ratio"] < 0.01}


# -- serve_mix ------------------------------------------------------------------

def serve_setup(root: Path, env: dict, seed: int):
    """``SERVE_SETUPS`` daemon starts, each timed from launch until /stats
    answers and every worker served a warm-up request.  The last daemon
    stays up for the load and is returned."""
    import serveload

    warm = serveload.Mix(root, seed, 0).take(20)
    warm = [r for r in warm if r["type"] == "run" and r["label"] != "fig4"][:4] + \
        [next(r for r in warm if r["type"] == "check" and "golden" in r)]
    times, daemon = [], None
    for k in range(SERVE_SETUPS):
        t0 = time.perf_counter()
        daemon = serveload.Daemon(root, env)
        try:
            daemon.ready(warm)
        except BaseException:
            daemon.stop()
            raise
        times.append(time.perf_counter() - t0)
        if k < SERVE_SETUPS - 1:
            daemon.stop()
    return times, daemon


def serve_metrics(res: dict, setup_s: list[float], daemon) -> tuple[dict, dict]:
    import serveload
    from jobs import tail

    results = res["results"]
    lat = [1e3 * (r["done"] - r["due"]) for r in results]
    p, tail_ms = tail(lat)
    span = max(r["done"] for r in results) - min(r["due"] for r in results)
    ok = sum(1 for r in results if not r["failed"] and not r["defect"])
    phases = serveload.phase_report(res)
    passing = [ph["rate"] for ph in phases if ph["ok"]]
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "job_ms.p50": (statistics.median(lat), "ms"),
        "job_ms.tail": (tail_ms, "ms"),
        "jobs_per_s": (ok / span, "1/s"),
        "peak_rss_mb": (peak_rss_mb() + daemon.peak_rss_mb(), "MB"),
        "c_bytes": (res["c_bytes"], "B"),
        "ok_rps_max": (max(passing) if passing else 0.0, "1/s"),
    }, {"samples": len(lat), "tail_percentile": p, "phases": phases}


def run_serve_workload(root: Path, env: dict, args, tmp: Path) -> dict:
    import serveload
    from spans import Tracer

    setup_s, daemon = serve_setup(root, env, args.seed)
    conns = nproc()
    try:
        if not args.trace:
            res = serveload.run_serve(root, args.seed, args.seconds, daemon, conns)
            metrics, info = serve_metrics(res, setup_s, daemon)
            runs = [res]
        else:
            half = args.seconds / 2
            plain = serveload.run_serve(root, args.seed, half, daemon, conns)
            tr = Tracer()
            res = serveload.run_serve(root, args.seed, half, daemon, conns, tr)
            runs = [plain, res]
            delta = res["stats_delta"]
            probes = measure_setup(root, env, "serve_mix")
            metrics = layer_metrics(tr, {"c_bytes": res["c_bytes"]}, probes,
                                    _ok_rate(plain), _ok_rate(res), delta, tmp,
                                    serve=res)
            # Stage times of the daemon's own compiles, per compile.
            compiles = max(1, delta.get("requests", 0))
            for stage in ("parse", "decorate", "lower", "emit"):
                metrics[f"{stage}.ms"] = (1e3 * delta.get(f"{stage}_s", 0.0) / compiles, "ms")
            info = {"samples": len(res["results"]),
                    "design": design_check("serve_mix", metrics)}
            tr.write(trace_path(root, args), {"workload": args.workload, "seed": args.seed})
        info["known_defect_traps"] = sum(r["known_defect"] for r in runs)
        info["failure_reasons"] = [w for r in runs for w in r["reasons"]]
        info["tmpdirs_leaked"] = serveload.leaked_tmpdirs(tmp)
        info["setup_s"] = setup_s
    finally:
        daemon.stop()
    failed = sum(r["failures"] for r in runs)
    return {"metrics": metrics, "info": info,
            "attempted": sum(len(r["results"]) for r in runs),
            "failed": failed, "correct": failed == 0}


def _ok_rate(res: dict) -> float:
    results = res["results"]
    span = max(r["done"] for r in results) - min(r["due"] for r in results)
    return sum(1 for r in results if not r["failed"] and not r["defect"]) / span


def trace_path(root: Path, args) -> Path:
    return root / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.json"


# -- entry point ------------------------------------------------------------------

def run_workload(root: Path, env: dict, args, tmp: Path) -> dict:
    if args.workload == "serve_mix":
        return run_serve_workload(root, env, args, tmp)
    from spans import Tracer

    setup = measure_setup(root, env, args.workload)
    if not args.trace:
        res = run_closed(args.workload, args.seed, args.seconds, tmp)
        metrics, info = closed_metrics(args.workload, res, setup)
        attempted = res["outcome"].attempted
    else:
        from repro.service import shared_cache

        half = args.seconds / 2
        plain = run_closed(args.workload, args.seed, half, tmp)
        tr = Tracer()
        res = run_closed(args.workload, args.seed, half, tmp, tr)
        rate = lambda r: len(r["times"]) / sum(r["times"])  # noqa: E731
        stats = shared_cache().stats()
        metrics = layer_metrics(tr, res, setup, rate(plain), rate(res),
                                {k: getattr(stats, k) for k in (
                                    "translator_hits", "translator_misses",
                                    "artifact_hits", "artifact_misses")}, tmp)
        info = {"samples": len(res["times"]), "self_time": tr.table(),
                "design": design_check(args.workload, metrics),
                "fastloop_bails": _merge(res, "_fastloop_bails"),
                "shard_bails": _merge(res, "_shard_bails")}
        tr.write(trace_path(root, args), {"workload": args.workload, "seed": args.seed})
        attempted = res["outcome"].attempted + plain["outcome"].attempted
        res["outcome"].failed += plain["outcome"].failed
        res["outcome"].reasons += plain["outcome"].reasons
        if args.workload == "translate":
            res["determinism_mismatches"] += plain["determinism_mismatches"]
            res["gcc"]["failed"] += plain["gcc"]["failed"]
    ok, notes = correctness(args.workload, res)
    info["setup_probes"] = setup
    info["failure_reasons"] = notes
    for k in ("per_family_p50_ms", "gcc", "determinism_mismatches"):
        if k in res:
            info[k] = res[k]
    return {"metrics": metrics, "info": info, "attempted": attempted,
            "failed": res["outcome"].failed, "correct": ok}


def _merge(res: dict, key: str) -> dict:
    out: dict[str, int] = {}
    for c in res.get("counters") or []:
        for reason, k in c[key].items():
            out[reason] = out.get(reason, 0) + k
    return out


def environment() -> dict:
    import numpy

    return {"nproc": nproc(), "cpu_count": os.cpu_count(),
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "gcc": shutil.which("gcc") is not None}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: src/repro not found; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    switches = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if switches:
        print(f"perfbench: refusing to run with {switches} set: the "
              "benchmark measures the defaults", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # String hashing orders the translator's dicts and sets, and with
        # it how much work a compile does: random hash seeds move
        # translate time by about 5% per process.  Fix it for this
        # process and every process it starts.
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()),
                                   *(sys.argv[1:] if argv is None else argv)],
                  {**os.environ, "PYTHONHASHSEED": "0"})

    state = root / ".perfbench"
    tmp = state / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    src = str(root / "src")
    env = dict(os.environ, REPRO_CACHE_DIR=str(state / "cache"), TMPDIR=str(tmp),
               PYTHONPATH=os.pathsep.join(
                   [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    os.environ.update(REPRO_CACHE_DIR=env["REPRO_CACHE_DIR"], TMPDIR=str(tmp))
    tempfile.tempdir = None
    sys.path.insert(0, src)
    shm_before = set(glob.glob("/dev/shm/reproshard_*"))
    try:
        out = run_workload(root, env, args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        for leftover in set(glob.glob("/dev/shm/reproshard_*")) - shm_before:
            try:
                os.unlink(leftover)
            except OSError:
                pass

    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "environment": environment(), **out["info"]}
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for name, (value, unit) in out["metrics"].items():
        print(f"  {name:26s} {value:14.4f} {unit}")
    print(json.dumps(info, default=str))
    print(json.dumps({
        "correct": bool(out["correct"]),
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": {k: {"value": float(v), "unit": u}
                    for k, (v, u) in out["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
