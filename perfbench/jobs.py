"""The closed-loop workloads: ``translate``, ``run_small`` and ``run_large``.

One client sends its next job only after the previous one completed.
The timed job calls the system's public entry points exactly as a user
would (``repro.api.compile_source``; ``repro.api.run_source`` with a
benchmark-owned ``workdir`` and output read-back).  The traced job makes
the same job from the public functions of each layer in turn, with a
span around each call (see ``spans.py``).

Checking a result against its reference happens after the job's clock
stopped, so it never counts towards job time.
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import gen

#: One job in eight in the translate stream is a known-bad variant.
BAD_EVERY = 8


class Outcome:
    """Attempted and failed jobs, with the first few failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(reason)


def tail(values_ms: list[float]) -> tuple[float, float]:
    """``(percentile, value)`` of the highest percentile with at least ten
    samples beyond it: the 11th-largest sample, at percentile
    ``100 * (n - 10) / n`` (the maximum when there are fewer than 11)."""
    xs = sorted(values_ms)
    n = len(xs)
    if n <= 10:
        return 100.0, xs[-1]
    return 100.0 * (n - 10) / n, xs[-11]


def closed_loop(job, cycle: int, seconds: float, wall_cap_s: float,
                after_cycle=None) -> list[float]:
    """Run ``job(i)`` (returns its seconds) in whole cycles until the
    summed job time reaches ``seconds``.  Whole cycles keep the mix of
    programs identical from run to run.  ``after_cycle(lo, hi)`` runs
    untimed work after each cycle; ``wall_cap_s`` bounds the loop if that
    or the checking is unexpectedly slow."""
    times: list[float] = []
    busy = 0.0
    deadline = time.monotonic() + wall_cap_s
    i = 0
    while (busy < seconds or i % cycle) and time.monotonic() < deadline:
        dt = job(i)
        times.append(dt)
        busy += dt
        i += 1
        if after_cycle is not None and i % cycle == 0:
            after_cycle(i - cycle, i)
    return times


# -- translate -------------------------------------------------------------------

class TranslateStream:
    """Distinct generated programs: families in turn, 1-4 kernels (each
    family meets each kernel count equally often per cycle), every
    ``BAD_EVERY``-th one a known-bad variant.  Deterministic in ``seed``."""

    cycle = 40  # lcm(5 families, BAD_EVERY)

    def __init__(self, seed: int, part: int):
        self.rng = np.random.default_rng([seed, 1, part])
        self.programs: list[gen.Program] = []

    def __getitem__(self, i: int) -> gen.Program:
        while len(self.programs) <= i:
            j = len(self.programs)
            if j % BAD_EVERY == BAD_EVERY - 1:
                p = gen.bad_compile_variant(self.rng)
            else:
                nf = len(gen.FAMILIES)
                p = gen.variant(gen.FAMILIES[j % nf], self.rng,
                                kernels=1 + (j // nf) % 4)
            self.programs.append(p)
        return self.programs[i]


def judge_compile(prog: gen.Program, ok: bool, errors: list[str],
                  c_source: str | None, filename: str = "<input>") -> str | None:
    """None when the translator's verdict is the expected one."""
    if prog.expect_error is None:
        if not ok:
            return f"{prog.family}: unexpected compile error: {errors[:1]}"
        if not c_source or "int main" not in c_source:
            return f"{prog.family}: no C program emitted"
        return None
    if ok:
        return f"{prog.params['bad']}: missed expected diagnostic"
    hits = [e for e in errors if prog.expect_error in e]
    if not hits:
        return (f"{prog.params['bad']}: expected {prog.expect_error!r}, "
                f"got {errors[:1]}")
    if prog.expect_line is not None and not any(
            e.startswith(f"{filename}:{prog.expect_line}:") for e in hits):
        return f"{prog.params['bad']}: diagnostic not at line {prog.expect_line}"
    return None


def verdict_of(ok: bool, errors: list[str], c_source: str | None) -> tuple:
    digest = hashlib.sha256((c_source or "").encode()).hexdigest()
    return (ok, tuple(errors), len((c_source or "").encode()), digest)


def traced_compile(tr, prog: gen.Program):
    """``Translator.compile`` made from its public stage calls."""
    from repro.api import make_translator

    with tr.span("translator"):
        t = make_translator(prog.extensions)
    with tr.span("parse"):
        root = t.parse(prog.source)
    with tr.span("decorate"):
        dn, ctx = t.decorate(root)
        errors = list(dn.att("errors"))
    if errors:
        return False, errors, None
    with tr.span("lower"):
        lowered = dn.att("lowered")
    with tr.span("emit"):
        c_source = t.emit_c(lowered, ctx)
    return True, errors, c_source


def run_translate(seed: int, seconds: float, tr=None) -> dict:
    """Timed (``tr is None``) or traced translate loop, then the
    determinism replay and a gcc syntax check of a sample."""
    from repro.api import compile_source

    warm = TranslateStream(seed, 0)
    stream = TranslateStream(seed, 1)
    outcome = Outcome()
    verdicts: list[tuple] = []
    chars: list[int] = []

    def job(i: int) -> float:
        prog = stream[i]
        t0 = time.perf_counter()
        try:
            if tr is None:
                cr = compile_source(prog.source, prog.extensions)
                ok, errors, c = cr.ok, list(cr.errors), cr.c_source
            else:
                with tr.job(prog.family):
                    ok, errors, c = traced_compile(tr, prog)
        except Exception as e:  # a translator crash is a failed job
            ok, errors, c = False, [f"{type(e).__name__}: {e}"], None
        dt = time.perf_counter() - t0
        outcome.record(judge_compile(prog, ok, errors, c))
        verdicts.append(verdict_of(ok, errors, c))
        chars.append(len(prog.source))
        return dt

    mismatches: list[int] = []

    def replay(lo: int, hi: int) -> None:
        """Determinism: each cycle of the stream, compiled again, must
        give identical verdicts and byte-identical C.  Replaying cycle by
        cycle also spreads the timed jobs over twice the wall time, which
        averages out more of the host's slow and fast spells."""
        for i in range(lo, hi):
            cr = compile_source(stream[i].source, stream[i].extensions)
            if verdict_of(cr.ok, list(cr.errors), cr.c_source) != verdicts[i]:
                mismatches.append(i)

    for p in (warm[i] for i in range(TranslateStream.cycle)):  # untimed warm-up
        cr = compile_source(p.source, p.extensions)
        outcome.record(judge_compile(p, cr.ok, list(cr.errors), cr.c_source))
    times = closed_loop(job, TranslateStream.cycle, seconds, 6 * seconds + 30,
                        after_cycle=replay)
    c_sizes = [v[2] for v in verdicts if v[0]]
    return {
        "times": times,
        "outcome": outcome,
        "determinism_mismatches": mismatches,
        "c_bytes": float(np.mean(c_sizes)) if c_sizes else 0.0,
        "source_chars": float(np.mean(chars)),
        "gcc": gcc_check([stream[i] for i in range(len(verdicts))]),
    }


def gcc_check(programs: list[gen.Program], per_family: int = 2) -> dict:
    """Independent check of the translator's output: the C emitted for a
    sample of good programs (first ``per_family`` of each family) must
    pass ``gcc -fsyntax-only``.  Skipped when gcc is absent."""
    import subprocess

    from repro.api import compile_source

    gcc = shutil.which("gcc")
    if gcc is None:
        return {"checked": 0, "failed": 0, "skipped": "gcc not found"}
    taken: dict[str, int] = defaultdict(int)
    files = []
    d = Path(tempfile.mkdtemp(prefix="perfbench-gcc-"))
    try:
        for p in programs:
            if p.expect_error is None and taken[p.family] < per_family:
                taken[p.family] += 1
                path = d / f"{p.family}_{taken[p.family]}.c"
                path.write_text(compile_source(p.source, p.extensions).c_source)
                files.append(path)
        failed = 0
        for path in files:
            r = subprocess.run([gcc, "-fsyntax-only", "-fopenmp", str(path)],
                               capture_output=True, timeout=60)
            failed += r.returncode != 0
        return {"checked": len(files), "failed": failed}
    finally:
        shutil.rmtree(d, ignore_errors=True)


# -- run_small / run_large ---------------------------------------------------------

def traced_run(tr, prog: gen.Program, inputs: dict, wd: Path, nthreads: int):
    """``run_source`` made from the public calls of each layer.  Returns
    ``(rc, outputs, stdout, stats, program, race_analysis)``."""
    from repro.analysis.races import race_analysis_for
    from repro.api import make_translator
    from repro.cexec.bytecode import BytecodeProgram
    from repro.cexec.interp import make_engine
    from repro.cexec.rmat import read_rmat, write_rmat

    with tr.span("translator"):
        t = make_translator(prog.extensions, nthreads=nthreads)
    with tr.span("parse"):
        root = t.parse(prog.source)
    with tr.span("decorate"):
        dn, ctx = t.decorate(root)
        errors = list(dn.att("errors"))
    if errors:
        raise RuntimeError(f"translation failed: {errors[:1]}")
    with tr.span("lower"):
        lowered = dn.att("lowered")
    with tr.span("emit"):
        t.emit_c(lowered, ctx)
    with tr.span("rmat.write"):
        for name, arr in inputs.items():
            write_rmat(wd / name, arr)
    # code_for bundles bytecode emission, S25 guard elision and the S28
    # passes; derived_split() times the parts separately.
    with tr.span("bytecode"):
        bp = BytecodeProgram(lowered, ctx)
        for name in bp.functions:
            bp.code_for(name)
        for name in bp.lifted_trees:
            bp.lifted_code_for(name)
    with tr.span("superinstr"):
        for name in bp.functions:
            bp.spec_code_for(name)
        for name in bp.lifted_trees:
            bp.spec_lifted_code_for(name)
    ra = None
    if bp.lifted:  # the VM asks for race certificates per pool region
        with tr.span("race"):
            ra = race_analysis_for(bp)
    with tr.span("parsafety"):
        for name in bp.lifted_trees:
            bp.hazards_for(name, lifted=True)
    with tr.span("engine_init"):
        ex = make_engine(lowered, ctx, engine="vm", workdir=wd,
                         nthreads=nthreads, program=bp)
    try:
        with tr.span("exec"):
            rc = ex.run_main()
    finally:
        with tr.span("engine_close"):
            ex.close()
    with tr.span("rmat.read"):
        outs = {n: read_rmat(wd / n) for n in prog.outputs if (wd / n).exists()}
    return rc, outs, list(ex.stdout), ex.stats, bp, ra


def derived_split(tr, bp, job_id: int) -> None:
    """Time guard elision, bytecode emission and the S28 passes apart by
    calling their own entry points on the same function bodies, after
    the job (so the job's clock never sees this second compile)."""
    from repro.analysis.cfg import build_cfg
    from repro.analysis.shapes import proven_in_range
    from repro.cexec.bytecode import compile_function
    from repro.ir import optimize_code

    bodies = list(bp.functions.items()) + list(bp.lifted_trees.items())
    for name, (params, body) in bodies:
        t0 = time.perf_counter_ns()
        proven_in_range(build_cfg(name, params, body))
        t1 = time.perf_counter_ns()
        code = compile_function(name, params, body)
        t2 = time.perf_counter_ns()
        optimize_code(code, bp.opt_level, defaultdict(int))
        t3 = time.perf_counter_ns()
        tr.add("guard_elide", t0, t1, derived=True, job=job_id)
        tr.add("compile_function", t1, t2, derived=True, job=job_id)
        tr.add("ir_opt", t2, t3, derived=True, job=job_id)


def run_counters(bp, stats, ra, inputs: dict, outs: dict) -> dict:
    """Per-job counts from the program, the VM's stats and RMAT I/O."""
    from repro.ir import PASS_COUNTERS

    codes = [bp.code_for(n) for n in bp.functions] + \
        [bp.lifted_code_for(n) for n in bp.lifted_trees]
    nbytes = sum(a.nbytes for a in inputs.values()) + \
        sum(a.nbytes for k, a in outs.items() if k != "stdout")
    return {
        "bytecode.static_instrs": sum(len(c.instrs) for c in codes),
        "ir_opt.rewrites": sum(bp.opt_counts.get(k, 0) for k in PASS_COUNTERS),
        "superinstr.fused": bp.opt_counts.get("superinstr", 0),
        "race.certs": len(ra.certificates) if ra is not None else 0,
        "vm.guards_elided": stats.guards_elided,
        "vm.tasks_pooled": stats.tasks_pooled,
        "vm.quickened": stats.quickened,
        "vm.deopts": stats.deopts,
        "vm.ic_misses": stats.ic_misses,
        "fastloop.bails": sum(stats.fastloop_bails.values()),
        "shard.regions": stats.parallel_regions,
        "shard.bails": sum(stats.shard_bails.values()),
        "rmat.mb": nbytes / 1e6,
        "_fastloop_bails": dict(stats.fastloop_bails),
        "_shard_bails": dict(stats.shard_bails),
    }


def run_programs(seed: int, size: str) -> list[gen.Program]:
    """This run's program per family: same program, new data per job."""
    rng = np.random.default_rng([seed, 2])
    return [gen.variant(f, rng, size=size) for f in gen.FAMILIES]


def run_loop(seed: int, seconds: float, size: str, nthreads: int,
             tmp: Path, tr=None) -> dict:
    """Timed (``tr is None``) or traced run_small/run_large loop."""
    from repro.api import compile_source, run_source

    progs = run_programs(seed, size)
    data_rng = np.random.default_rng([seed, 3])
    outcome = Outcome()
    counters: list[dict] = []
    per_family: dict[str, list[float]] = defaultdict(list)

    def job(i: int, timed: bool = True) -> float:
        prog = progs[i % len(progs)]
        inputs = gen.inputs_for(prog, data_rng, size)
        wd = Path(tempfile.mkdtemp(prefix="perfbench-run-", dir=tmp))
        job_id = None
        t0 = time.perf_counter()
        try:
            if tr is None or not timed:
                rc, outs, st, ex = run_source(
                    prog.source, prog.extensions, inputs, workdir=wd,
                    output_names=prog.outputs, nthreads=nthreads)
                stdout = list(ex.stdout)
            else:
                with tr.job(prog.family) as j:
                    rc, outs, stdout, st, bp, ra = traced_run(
                        tr, prog, inputs, wd, nthreads)
                job_id = j["id"]
            err = None
        except Exception as e:  # traps and crashes are failed jobs
            err = f"{prog.family}: {type(e).__name__}: {e}"
        dt = time.perf_counter() - t0
        if err is None and rc != 0:
            err = f"{prog.family}: exit code {rc}"
        if err is None:
            outs["stdout"] = stdout
            err = gen.outputs_match(prog, outs, gen.reference(prog, inputs))
        if job_id is not None and err is None:
            derived_split(tr, bp, job_id)
            counters.append(run_counters(bp, st, ra, inputs, outs))
        shutil.rmtree(wd, ignore_errors=True)
        outcome.record(err)
        if timed:
            per_family[prog.family].append(dt)
        return dt

    for i in range(len(progs)):  # warm-up: lazy imports, first-call paths
        job(i, timed=False)
    times = closed_loop(job, len(progs), seconds, 6 * seconds + 60)
    c_sizes = [len(compile_source(p.source, p.extensions,
                                  nthreads=nthreads).c_source.encode())
               for p in progs]
    return {
        "times": times,
        "outcome": outcome,
        "c_bytes": float(np.mean(c_sizes)),
        "counters": counters,
        "per_family_p50_ms": {f: 1e3 * float(np.median(v))
                              for f, v in per_family.items()},
        "source_chars": float(np.mean([len(p.source) for p in progs])),
    }
