"""The ``serve_mix`` workload: an open loop against a ``reproc serve``
daemon running as its own process with default settings.

Requests are sent on a fixed schedule (evenly spaced at each of a few
offered rates) from this one process over at most ``nproc``
connections, whatever the daemon's progress; a request's latency runs
from the moment it was due, so a stall also charges the requests queued
behind it.  How late the sender ran is reported as ``serve.gen_lag_ms``.

The mix, in a fixed order of types (``CYCLE``):

* two thirds ``run`` -- the corpus families in turn at ``corpus_cases``
  sizes, fresh seeded inputs each time; one run in eight is a twin of
  the request before it, sent at the same moment, so coalescing hits;
* one sixth ``compile`` -- generated variants; one in five is known-bad,
  one in five repeats a recent source;
* one sixth ``check`` -- three in five on the shipped examples and corpus
  programs, compared with the goldens under ``examples/analysis/golden``
  (they repeat, so the analysis LRU hits), two in five on generated
  analysis negatives.
"""

from __future__ import annotations

import re
import select
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import gen
from jobs import judge_compile, run_programs, tail

#: Request types of one cycle, in order: two in three are runs.
CYCLE = ("run", "run", "compile", "run", "run", "check")
#: Offered rates (requests/s), one phase each, lowest first.  All sit
#: well below the knee (about 45 req/s on 2 vCPUs) so that queueing does
#: not amplify host noise; at 15 s per run each of the two default
#: workers serves about 45 runs, fewer than the 64 after which it is
#: recycled, so no run straddles a recycle (which would make the tail
#: bimodal), while the 18 fig8 runs keep the tail inside one family.
RATES = (6.0, 9.0, 12.0)
#: Every 12th request (always a run slot) is a twin: an exact copy of the
#: request before it, due at the same moment, as a client that submits
#: twice would send it.  The daemon should coalesce the pair.
TWIN_EVERY = 12
#: A phase meets the limit when its tail latency is at most this.
LATENCY_LIMIT_MS = 1000.0
#: Growing backlog: the sender's lag over a phase's last quarter exceeds
#: its first quarter's by more than this.
BACKLOG_MS = 250.0
#: The known defect: serve coerces every input to float32, so fig4's
#: ``Matrix int <1> dates`` traps.
KNOWN_DEFECT = "declared 1/i"


class Daemon:
    """One ``python -m repro.cli serve --port 0`` process."""

    def __init__(self, root: Path, env: dict):
        self.client = None
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
            cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True)
        ready, _, _ = select.select([self.proc.stdout], [], [], 30.0)
        line = self.proc.stdout.readline() if ready else ""
        m = re.search(r"listening on ([\d.]+):(\d+)", line)
        if m is None:
            self.stop()
            raise RuntimeError(f"daemon did not start: {line!r}")
        from repro.serve.client import ServeClient

        self.client = ServeClient(m.group(1), int(m.group(2)), timeout_s=60.0)

    def ready(self, warm: list[dict]) -> None:
        """Block until ``/stats`` answers and every worker served one
        warm-up run (sent concurrently, one per worker); the daemon's
        own compile path is warmed by the non-run requests of ``warm``."""
        if not self.client.wait_ready(timeout_s=30.0):
            raise RuntimeError("daemon never answered /stats")
        workers = self.client.stats()["workers_alive"]
        bodies: list[dict] = []

        def send(req):
            bodies.append(self.client.request(req["type"], **req["fields"]))

        runs = [r for r in warm if r["type"] == "run"][:workers]
        threads = [threading.Thread(target=send, args=(r,)) for r in runs]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        for r in warm:
            if r["type"] != "run":
                send(r)
        bad = [b for b in bodies if b.get("kind") != "ok"]
        if bad or len(bodies) < len(runs):
            raise RuntimeError(f"warm-up failed: {bad[:1]}")

    def peak_rss_mb(self) -> float:
        """Peak RSS (VmHWM) of the daemon and its live worker processes."""
        pids = [self.proc.pid]
        for task in Path(f"/proc/{self.proc.pid}/task").glob("*"):
            try:
                pids += [int(p) for p in (task / "children").read_text().split()]
            except OSError:
                pass
        total = 0.0
        for pid in pids:
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            m = re.search(r"VmHWM:\s+(\d+) kB", status)
            total += int(m.group(1)) / 1024 if m else 0.0
        return total

    def stop(self) -> None:
        """Graceful shutdown request, then wait; kill as a last resort."""
        try:
            if self.client is not None:
                self.client.shutdown()
            self.proc.wait(timeout=30)
        except Exception:
            self.proc.kill()
            self.proc.wait(timeout=30)
        finally:
            if self.proc.stdout is not None:
                self.proc.stdout.close()


# -- the request mix ----------------------------------------------------------------

def _goldens(root: Path) -> list[dict]:
    """``check --explain-parallel`` requests whose answer is a committed
    golden file, named as the goldens name them."""
    out = []
    for src in sorted((root / "examples/analysis").glob("*.xc")):
        out.append((src, ["matrix"]))
    for src in sorted((root / "src/repro/programs").glob("*.xc")):
        out.append((src, ["matrix", "transform"]))
    reqs = []
    for src, exts in out:
        golden = root / "examples/analysis/golden" / (src.stem + ".txt")
        if golden.exists():
            rel = str(src.relative_to(root))
            reqs.append({"type": "check", "fields": {
                "source": src.read_text(), "extensions": exts,
                "filename": rel, "explain_parallel": True},
                "golden": golden.read_text().rstrip("\n"), "label": src.stem})
    return reqs


class Mix:
    """Seeded requests in cycles of ``CYCLE``, each with its answer.  The
    order of types and the families are fixed so that every cycle asks
    the same amount of work; the seed picks names, constants and data."""

    def __init__(self, root: Path, seed: int, part: int):
        self.rng = np.random.default_rng([seed, 4, part])
        self.progs = run_programs(seed, "small")
        self.goldens = _goldens(root)
        self.recent: list[dict] = []
        self.counts = {"run": 0, "compile": 0, "check": 0}
        self.good = 0  # good compiles so far: picks family and kernels

    def _run(self, k: int) -> dict:
        prog = self.progs[k % len(self.progs)]
        inputs = gen.inputs_for(prog, self.rng, "small")
        fields = {"source": prog.source, "extensions": prog.extensions,
                  "inputs": {k: v.tolist() for k, v in inputs.items()},
                  "output_names": prog.outputs[:1]}
        return {"type": "run", "fields": fields, "prog": prog,
                "want": gen.reference(prog, inputs), "label": prog.family}

    def _compile(self, k: int) -> dict:
        slot = k % 5
        if slot == 4:  # a repeat: coalesces when its twin is still in flight
            return dict(self.recent[-2])
        if slot == 3:
            prog = gen.bad_compile_variant(self.rng)
        else:
            n = len(gen.FAMILIES)
            prog = gen.variant(gen.FAMILIES[self.good % n], self.rng,
                               kernels=1 + (self.good // n) % 3)
            self.good += 1
        req = {"type": "compile", "prog": prog, "label": prog.family,
               "fields": {"source": prog.source, "extensions": prog.extensions}}
        self.recent = (self.recent + [req])[-4:]
        return req

    def _check(self, k: int) -> dict:
        if k % 5 < 3:
            return self.goldens[(3 * (k // 5) + k % 5) % len(self.goldens)]
        prog = gen.bad_analysis_variant(self.rng)
        return {"type": "check", "prog": prog, "label": prog.family,
                "fields": {"source": prog.source, "extensions": prog.extensions}}

    def take(self, n: int) -> list[dict]:
        make = {"run": self._run, "compile": self._compile, "check": self._check}
        out = []
        for i in range(n):
            if i % TWIN_EVERY == TWIN_EVERY - 2:
                out.append(dict(out[-1], twin=True))
                continue
            kind = CYCLE[i % len(CYCLE)]
            out.append(make[kind](self.counts[kind]))
            self.counts[kind] += 1
        return out


def judge(req: dict, body: dict) -> tuple[str | None, bool]:
    """``(failure reason or None, known_defect)`` for one response."""
    kind = body.get("kind")
    if req["type"] == "run":
        prog = req["prog"]
        if kind == "trap" and prog.family == "fig4" and \
                KNOWN_DEFECT in body.get("error", ""):
            return None, True
        if kind != "ok":
            return f"run {prog.family}: {kind}: {body.get('error', '')[:120]}", False
        got = {k: np.asarray(v) for k, v in body.get("outputs", {}).items()}
        got["stdout"] = body.get("stdout", [])
        return gen.outputs_match(prog, got, req["want"]), False
    if req["type"] == "compile":
        if kind not in ("ok", "compile_error"):
            return f"compile: {kind}: {body.get('error', '')[:120]}", False
        return judge_compile(req["prog"], body.get("ok", False),
                             body.get("errors", []), body.get("c_source"),
                             filename="<request>"), False
    if kind != "ok":
        return f"check {req['label']}: {kind}: {body.get('error', '')[:120]}", False
    if "golden" in req:
        if body.get("report") != req["golden"]:
            return f"check {req['label']}: report differs from golden", False
        return None, False
    prog = req["prog"]
    lines = [ln for ln in body.get("report", "").splitlines()
             if ln.startswith(f"<request>:{prog.expect_line}:")
             and prog.expect_error in ln]
    if body.get("error_count") != 1 or not lines:
        return f"check {prog.family}: expected {prog.expect_error!r}", False
    return None, False


# -- the open loop -------------------------------------------------------------------

def open_loop(client, reqs: list[dict], offsets: list[float],
              conns: int) -> list[dict]:
    """Send ``reqs[i]`` at ``start + offsets[i]`` over ``conns``
    connections; returns one record per request."""
    from repro.serve.client import ServeUnavailable

    results: list[dict | None] = [None] * len(reqs)
    lock = threading.Lock()
    nxt = [0]
    start = time.perf_counter() + 0.05

    def sender():
        while True:
            with lock:
                i = nxt[0]
                nxt[0] += 1
            if i >= len(reqs):
                return
            due = start + offsets[i]
            now = time.perf_counter()
            if now < due:
                time.sleep(due - now)
            sent = time.perf_counter()
            try:
                body = client.request(reqs[i]["type"], **reqs[i]["fields"])
            except ServeUnavailable as e:
                body = {"ok": False, "kind": "unavailable", "error": str(e)}
            done = time.perf_counter()
            results[i] = {"due": due, "sent": sent, "done": done, "body": body}

    threads = [threading.Thread(target=sender) for _ in range(conns)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results


def schedule(seconds: float) -> tuple[list[float], list[int]]:
    """Due offsets for all phases and each request's phase index.  Each
    rate gets an equal share of ``seconds``; arrivals are evenly spaced."""
    offsets, phase = [], []
    t0 = 0.0
    per = seconds / len(RATES)
    for k, rate in enumerate(RATES):
        n = int(round(rate * per))
        offsets += [t0 + i / rate for i in range(n)]
        phase += [k] * n
        t0 += per
    return offsets, phase


def run_serve(root: Path, seed: int, seconds: float, daemon: Daemon,
              conns: int, tr=None) -> dict:
    """One open-loop pass over the rate ladder against ``daemon``."""
    offsets, phase = schedule(seconds)
    reqs = Mix(root, seed, 1 if tr is None else 2).take(len(offsets))
    for i, req in enumerate(reqs):
        if req.get("twin"):
            offsets[i] = offsets[i - 1]
    before = daemon.client.stats()["stats"]
    results = open_loop(daemon.client, reqs, offsets, conns)
    after = daemon.client.stats()["stats"]
    failures, known = [], 0
    for req, res in zip(reqs, results):
        why, defect = judge(req, res["body"])
        known += defect
        res["failed"] = why is not None
        res["defect"] = defect
        if why is not None:
            failures.append(why)
    if tr is not None:
        for req, res in zip(reqs, results):
            b = res["body"]
            j = tr.add_job(req["type"], int(res["due"] * 1e9), int(res["done"] * 1e9))
            tr.add("serve.gen_lag", int(res["due"] * 1e9), int(res["sent"] * 1e9), job=j)
            # A coalesced follower's whole wait is queueing, not service.
            server = 0.0 if b.get("coalesced") else float(b.get("elapsed_s", 0.0))
            mid = max(res["sent"], res["done"] - server)
            tr.add("serve.transport", int(res["sent"] * 1e9), int(mid * 1e9), job=j)
            tr.add("serve.server", int(mid * 1e9), int(res["done"] * 1e9), job=j)
    return {"results": results, "phase": phase,
            "failures": len(failures), "reasons": failures[:10],
            "known_defect": known,
            "stats_delta": {k: after[k] - before[k] for k in after},
            "c_bytes": _c_bytes(results)}


def _c_bytes(results: list[dict]) -> float:
    sizes = [len(r["body"]["c_source"].encode()) for r in results
             if r["body"].get("c_source")]
    return float(np.mean(sizes)) if sizes else 0.0


def phase_report(run: dict) -> list[dict]:
    """Per offered rate: latency, lag and whether the limit was met."""
    out = []
    for k, rate in enumerate(RATES):
        rs = [r for r, p in zip(run["results"], run["phase"]) if p == k]
        lat = [1e3 * (r["done"] - r["due"]) for r in rs]
        lag = [1e3 * (r["sent"] - r["due"]) for r in rs]
        q = max(1, len(rs) // 4)
        backlog = float(np.mean(lag[-q:]) - np.mean(lag[:q]))
        p, tail_ms = tail(lat)
        refused = sum(r["failed"] for r in rs)
        out.append({"rate": rate, "requests": len(rs), "p50_ms": float(np.median(lat)),
                    "tail_pct": p, "tail_ms": tail_ms, "backlog_growth_ms": backlog,
                    "failed": refused,
                    "ok": tail_ms <= LATENCY_LIMIT_MS and backlog <= BACKLOG_MS
                    and refused == 0})
    return out


def leaked_tmpdirs(tmp: Path) -> int:
    """Temp dirs the system left behind in the private TMPDIR: serve's
    ``/run`` and ``run_source`` without a workdir each leak one."""
    return sum(1 for p in tmp.iterdir()
               if p.is_dir() and p.name.startswith(("repro-serve-", "repro-interp-")))
