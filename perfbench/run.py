"""epower benchmark: one workload, one run, one JSON line of metrics.

    python3 perfbench/run.py --workload gate_sweep --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  The batch is generated from ``--seed``;
references are computed here with numpy only; the program runs in a
separate worker process (``worker.py``) with one BLAS/OpenMP thread.
With ``--trace 0`` the last line holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics.  Every time is scaled by the speed
probe (``probe.py``); the raw figures are printed on the lines above and
kept in ``.perfbench/``.  Exit code 0 when every output matched its
reference, 1 when one did not, 2 when the checkout holds no program.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from statistics import mean, median

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from probe import NOMINAL_S  # noqa: E402
from workloads import WORKLOADS, check_outputs  # noqa: E402

WORKER_TIMEOUT_S = 170
OUT_DIR = ".perfbench"

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_s": "s",
              "peak_rss_mib": "MiB"}


def factors(probes):
    """Probe factor of each chunk: nominal over the mean probe time at the
    two boundaries around it.

    The machine alternates between a fast and a slow state, so probe
    times are bimodal: their mean follows the share of slow time, where a
    median would jump between the two modes.
    """
    out = []
    for before, after in zip(probes, probes[1:]):
        window = before + after
        out.append(NOMINAL_S * len(window) / sum(window))
    return out


def timing(part):
    """Probe-normalised and raw throughput and median latency of one segment."""
    lat_norm, lat_raw = [], []
    busy_norm = 0.0
    for lat, factor in zip(part["lat"], factors(part["probes"])):
        lat_raw += lat
        lat_norm += [t * factor for t in lat]
        busy_norm += sum(lat) * factor
    return {"ops": len(lat_raw),
            "ops_per_s": len(lat_norm) / busy_norm,
            "latency_p50_s": median(lat_norm),
            "raw_ops_per_s": len(lat_raw) / sum(lat_raw),
            "raw_latency_p50_s": median(lat_raw),
            "probe_mean_s": mean(p for b in part["probes"] for p in b)}


def layer_metrics(result, factor, overhead):
    """Per-layer metrics from the tracer's spans.

    Times are seconds per call, scaled by the run's probe factor.  Counts
    are per pass of the batch.  A layer the workload did not reach takes
    its values from the worker's one-call tour instead.
    """
    passes = len(result["traced"]["outputs"])
    at_pass, final = result["pass_spans"], result["final_spans"]

    def source(span):
        if at_pass["calls"].get(span):
            return at_pass, passes
        tour = {key: {k: final[key].get(k, 0) - at_pass[key].get(k, 0)
                      for k in final[key]} for key in final}
        return tour, 1

    def per_call(span, num=None):
        spans, _ = source(span)
        return spans["seconds"][num or span] / spans["calls"][span] * factor

    def per_pass(span, count=None):
        spans, div = source(span)
        table = spans["counts"] if count else spans["calls"]
        return table.get(count or span, 0) / div

    brute = "oracle.brute_force_power"
    ospans, _ = source(brute)
    oracle_calls = ospans["calls"][brute]
    refine_s = ospans["seconds"].get("oracle.minimize", 0.0)
    refine_evals = ospans["counts"].get("oracle.refine_evals", 0)
    rank3 = "schmidt2.rank3_certificate"

    m = {k: v * factor for k, v in result["floors"].items()}
    m["cli.main_s"] = per_call("cli.main")
    for name in ("coefficients_from_xyz", "assemble_unitary", "schmidt_rank"):
        m[f"canonical.{name}_s"] = per_call(f"canonical.{name}")
    for name in ("entangling_power_c2eqc3", "line_profile_values",
                 "line_profile_value", "example1_power", "example2_power"):
        m[f"epower2q.{name}_s"] = per_call(f"epower2q.{name}")
    for name in ("line_profile_values", "line_profile_value"):
        m[f"epower2q.{name}.calls"] = per_pass(f"epower2q.{name}")
    m["qmath.shannon_entropy_s"] = per_call("qmath.shannon_entropy")
    m["qmath.shannon_entropy.calls"] = per_pass("qmath.shannon_entropy")
    m["schmidt2.entangling_power_phase_gate_s"] = per_call(
        "schmidt2.entangling_power_phase_gate")
    for n in (4, 5, 6, 7):
        m[f"schmidt2.solve_s.n{n}"] = per_call(f"schmidt2.solve.n{n}")
    m["schmidt2.clustered_s"] = per_call("schmidt2.clustered")
    m["schmidt2.spread_s"] = per_call("schmidt2.spread")
    m["schmidt2.rank3_certificate_s"] = per_call(rank3)
    m["schmidt2.rank3_certificate.calls"] = per_pass(rank3)
    for case in ("certificate", "pair"):
        m[f"schmidt2.case_{case}.count"] = per_pass(rank3, f"schmidt2.case_{case}")
    m["schmidt2.certificate_hit_ratio"] = (m["schmidt2.case_certificate.count"]
                                           / m["schmidt2.rank3_certificate.calls"])
    m["oracle.brute_force_power_s"] = per_call(brute)
    m["oracle.refine_s"] = refine_s / oracle_calls * factor
    m["oracle.grid_s"] = m["oracle.brute_force_power_s"] - m["oracle.refine_s"]
    m["oracle.refine_evals"] = refine_evals / oracle_calls
    m["oracle.refine_us_per_eval"] = refine_s * factor / refine_evals * 1e6
    m["oracle.n_evaluations"] = ospans["counts"]["oracle.n_evaluations"] / oracle_calls
    m["trace.overhead_ops_per_s"] = overhead
    return m


def per_layer_units(name):
    if name == "trace.overhead_ops_per_s":
        return "1/s"
    if name == "oracle.refine_us_per_eval":
        return "us"
    if name.endswith("_s") or "_s.n" in name:
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def start_worker(job, root):
    env = dict(os.environ)
    env.pop("EPOWER_SEED", None)
    env["PYTHONPATH"] = str(root / "src")
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")], cwd=root, env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(json.dumps(job), timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(out)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "epower" / "__init__.py").is_file():
        print(f"error: no epower sources under {root / 'src'}; "
              "run from the root of an epower checkout", file=sys.stderr)
        return 2

    make_ops, make_refs, _ = WORKLOADS[args.workload]
    ops = make_ops(args.seed)
    refs = make_refs(ops)
    job = {"workload": args.workload, "ops": ops, "seconds": args.seconds,
           "trace": bool(args.trace)}
    result = start_worker(job, root)
    if not Path(result["epower_file"]).resolve().is_relative_to(root / "src"):
        print(f"error: epower imported from {result['epower_file']}", file=sys.stderr)
        return 2

    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "batch_size": len(ops)}
    if args.trace:
        segments = [result["untraced"], result["traced"]]
        untraced, traced = timing(result["untraced"]), timing(result["traced"])
        factor = NOMINAL_S / traced["probe_mean_s"]
        metrics = layer_metrics(result, factor, traced["ops_per_s"] - untraced["ops_per_s"])
        units = {name: per_layer_units(name) for name in metrics}
        detail.update(untraced=untraced, traced=traced)
    else:
        segments = [result["timed"]]
        t = timing(result["timed"])
        setup = timing(result["setup"])
        metrics = {"setup_s": setup["latency_p50_s"], "ops_per_s": t["ops_per_s"],
                   "latency_p50_s": t["latency_p50_s"],
                   "peak_rss_mib": result["peak_rss_kib"] / 1024.0}
        units = END_TO_END
        detail.update(timed=t, setup=setup, passes=len(result["timed"]["outputs"]))

    passes = [outs for seg in segments for outs in seg["outputs"]]
    attempted, failed, problems = check_outputs(args.workload, ops, refs, passes)
    correct = not problems
    detail.update(metrics=metrics, attempted=attempted, failed=failed,
                  problems=problems[:20],
                  samples={k: {"lat": result[k]["lat"], "probes": result[k]["probes"]}
                           for k in ("setup", "timed", "untraced", "traced") if k in result})

    for p in problems[:20]:
        print(f"MISMATCH {p}")
    for key in ("timed", "untraced", "traced"):
        if key in detail:
            d = detail[key]
            print(f"{key}: {d['ops']} ops, ops_per_s {d['ops_per_s']:.6g} "
                  f"(raw {d['raw_ops_per_s']:.6g}), latency_p50_s "
                  f"{d['latency_p50_s']:.6g} (raw {d['raw_latency_p50_s']:.6g}), "
                  f"probe mean {d['probe_mean_s'] * 1e3:.4f} ms "
                  f"(nominal {NOMINAL_S * 1e3:.4f} ms)")
    if "setup" in detail:
        d = detail["setup"]
        print(f"setup_s {d['latency_p50_s']:.6g} (raw {d['raw_latency_p50_s']:.6g}), "
              f"probe mean {d['probe_mean_s'] * 1e3:.4f} ms")
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(detail, indent=1, default=float))

    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
