"""Benchmark worker: the only process that times the program.

``run.py`` starts it with one BLAS/OpenMP thread and ``src`` on
PYTHONPATH, and sends the job (workload, generated operations, seconds,
trace flag) as JSON on stdin.  The worker pins itself to one CPU.  The
load is a closed loop: one operation at a time, in whole passes over the
batch.  The speed probe runs only
between operations.  The worker answers with raw samples as JSON on
stdout; ``run.py`` turns them into metrics and checks the outputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import traceback
from statistics import median
from time import perf_counter

from probe import probe_samples

CHUNK_S = 0.02         # probe again once this much operation time has run
LONG_CHUNK_S = 0.5     # after a chunk this long, space the probe samples out
LONG_SAMPLES, LONG_GAP_S = 4, 0.1
SETUP_RUNS = 3         # fresh interpreters behind setup_s
FLOOR_RUNS = 3         # children behind the interpreter and import floors
CHILD_TIMEOUT_S = 120
HERE = os.path.dirname(os.path.abspath(__file__))

# Fixed inputs for layers a workload does not reach itself, so that every
# per-layer metric of a traced run holds a measured value.
TOUR_XY = (0.6, 0.3)
TOUR_SPREAD = {4: (0.3, 1.9, 3.4, 5.0), 5: (0.2, 1.5, 2.6, 3.9, 5.2),
               6: (0.1, 1.2, 2.2, 3.3, 4.3, 5.4),
               7: (0.1, 1.0, 1.9, 2.8, 3.7, 4.6, 5.6)}
TOUR_CLUSTERED = (0.2, 0.7, 1.3, 2.1)


def run_child(cmd):
    t0 = perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    return perf_counter() - t0, proc


def cli_command(argv, importtime=False):
    return ([sys.executable] + (["-X", "importtime"] if importtime else [])
            + ["-m", "epower.cli", *argv])


class Chunks:
    """Operation times grouped between probe boundaries.

    ``lat[i]`` holds the operations run between ``probes[i]`` and
    ``probes[i + 1]``.  A boundary next to a long operation spaces its
    samples out, so that it sees more than one machine state.
    """

    def __init__(self):
        self.lat = []
        self.probes = [probe_samples()]
        self.pending = []
        self.spaced = False    # whether the last boundary has spaced samples

    def record(self, dt):
        self.pending.append(dt)
        if sum(self.pending) >= CHUNK_S:
            self.close(spaced=sum(self.pending) >= LONG_CHUNK_S)

    def close(self, spaced=False):
        samples = probe_samples(LONG_SAMPLES, LONG_GAP_S) if spaced else probe_samples()
        self.spaced = spaced
        if self.pending:
            self.lat.append(self.pending)
            self.probes.append(samples)
            self.pending = []
        else:
            self.probes[-1] += samples

    def as_dict(self):
        return {"lat": self.lat, "probes": self.probes}


def run_passes(run_op, ops, seconds, min_passes, after_op=None):
    """Whole passes over ``ops`` until ``seconds`` have gone by."""
    chunks = Chunks()
    outputs = []
    long_ops = set()   # positions that took LONG_CHUNK_S or more last time
    start = perf_counter()
    while len(outputs) < min_passes or perf_counter() - start < seconds:
        outs = []
        for i, op in enumerate(ops):
            if i in long_ops and not chunks.spaced:
                chunks.close(spaced=True)
            t0 = perf_counter()
            try:
                out = run_op(op)
            except Exception:  # a failed operation is counted, not fatal
                out = {"error": traceback.format_exc(limit=3)}
            dt = perf_counter() - t0
            chunks.record(dt)
            if dt >= LONG_CHUNK_S:
                long_ops.add(i)
            if after_op is not None:
                out = after_op(op, out)
            outs.append(out)
        outputs.append(outs)
    if chunks.pending:
        chunks.close()
    return {**chunks.as_dict(), "outputs": outputs}


def setup_samples(cmd):
    """Wall time of fresh interpreters that import epower and run one operation."""
    chunks = Chunks()
    for _ in range(SETUP_RUNS):
        dt, proc = run_child(cmd)
        if proc.returncode != 0:
            raise RuntimeError(f"setup run failed: {proc.stderr[-2000:]}")
        chunks.record(dt)
    return chunks.as_dict()


def parse_importtime(stderr):
    """numpy and scipy module self time, and the cumulative `import epower`."""
    out = {"numpy": 0.0, "scipy": 0.0, "epower": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        name = name.strip()
        top = name.split(".")[0]
        if top in ("numpy", "scipy"):
            out[top] += int(self_us) * 1e-6
        elif name == "epower":
            out["epower"] = int(cum_us) * 1e-6
    return out


def floors(import_stderrs):
    imports = [parse_importtime(s) for s in import_stderrs]
    interp = [run_child([sys.executable, "-c", "pass"])[0] for _ in range(FLOOR_RUNS)]
    return {"proc.interpreter_s": median(interp),
            **{f"import.{k}_s": median(i[k] for i in imports)
               for k in ("numpy", "scipy", "epower")}}


def tour(ep, calls):
    """One call into each traced entry the workload left without calls."""
    if not calls.get("cli.main"):
        with contextlib.redirect_stdout(io.StringIO()):
            ep.cli.main(["compute", "--xyz", *(repr(v) for v in TOUR_XY), repr(TOUR_XY[1])])
    if not calls.get("epower2q.entangling_power_c2eqc3"):
        ep.entangling_power_c2eqc3(*TOUR_XY)
    if not calls.get("epower2q.example1_power"):
        ep.example1_power(TOUR_XY[1])
    if not calls.get("epower2q.example2_power"):
        ep.example2_power(TOUR_XY[1])
    for n, thetas in TOUR_SPREAD.items():
        if not calls.get(f"schmidt2.solve.n{n}"):
            ep.entangling_power_phase_gate(ep.PhaseGateSpec(thetas))
    if not calls.get("schmidt2.clustered"):
        ep.entangling_power_phase_gate(ep.PhaseGateSpec(TOUR_CLUSTERED))
    if not calls.get("oracle.brute_force_power"):
        gate = ep.assemble_unitary(ep.coefficients_from_xyz(
            ep.CanonicalParams(TOUR_XY[0], TOUR_XY[1], TOUR_XY[1])))
        ep.brute_force_power(gate, ep.SearchConfig())


def pin_to_one_cpu():
    """Keep the worker, its probe and its children on one CPU.

    The two CPUs of the reference machine change speed independently; a
    child process or a migrated worker on the other CPU would run at a
    speed the probe never saw.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def cli_op(op, import_stderrs=None):
    """One `python -m epower.cli` process; with a list, traced by -X importtime."""
    proc = subprocess.run(cli_command(op["argv"], importtime=import_stderrs is not None),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if import_stderrs is not None:
        import_stderrs.append(proc.stderr)
    return [proc.returncode, proc.stdout]


def main():
    pin_to_one_cpu()
    job = json.load(sys.stdin)
    workload, ops, seconds = job["workload"], job["ops"], job["seconds"]
    import epower
    import epower.cli  # noqa: F401

    import ops as ops_mod

    cli = workload == "cli_oneshot"
    if cli:
        run_op = cli_op
        setup_cmd = cli_command(ops[0]["argv"])
    else:
        run_op = ops_mod.IN_PROCESS[workload]
        setup_cmd = [sys.executable, os.path.join(HERE, "ops.py"), workload,
                     json.dumps(ops[0])]

    result = {"epower_file": epower.__file__}
    run_op(ops[0])  # warm-up: file caches, bytecode, lazy set-up
    if not job["trace"]:
        result["setup"] = setup_samples(setup_cmd)
        result["timed"] = run_passes(run_op, ops, seconds, 2 if cli else 1)
        who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
        result["peak_rss_kib"] = resource.getrusage(who).ru_maxrss
    else:
        from tracer import Tracer

        result["untraced"] = run_passes(run_op, ops, seconds / 2, 1)
        tracer = Tracer()
        tracer.install()
        import_stderrs = []
        if cli:
            def in_process(op, out):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = epower.cli.main(op["argv"])
                return out + [code, buf.getvalue()]
            result["traced"] = run_passes(lambda op: cli_op(op, import_stderrs), ops,
                                          seconds / 2, 1, in_process)
        else:
            result["traced"] = run_passes(run_op, ops, seconds / 2, 1)
        result["pass_spans"] = tracer.snapshot()
        tour(epower, result["pass_spans"]["calls"])
        result["final_spans"] = tracer.snapshot()
        if not cli:
            for _ in range(FLOOR_RUNS):
                import_stderrs.append(run_child(
                    [sys.executable, "-X", "importtime", "-c", "import epower"])[1].stderr)
        result["floors"] = floors(import_stderrs)
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
