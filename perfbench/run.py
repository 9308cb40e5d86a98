"""Benchmark of the aughts package: one workload, one seed, one run.

    python3 perfbench/run.py --workload orbit-census --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The job list comes from the seed; the
references every output is checked against are computed here, outside the
timed loop; the jobs run in a separate workload process (worker.py) so its
CPU time and peak memory are the program's own.  Times are in reference
seconds (calib.py).  With --trace 0 the run reports the end-to-end metrics;
with --trace 1 it runs the job list once untraced and once traced and
reports the per-layer metrics.  The metric names and units are those of
BENCHMARK.json.  Human-readable lines come first; the last line of standard
output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calib  # noqa: E402
import jobs as joblists  # noqa: E402
import refs  # noqa: E402
from worker import jobs_per_s  # noqa: E402

SETUP_STARTS = 9
# A start is mostly the interpreter loading and running module code.
SETUP_KERNEL = "python"
WORKER_TIMEOUT = 150
# The program's start-up as a user meets it: a fresh interpreter imports
# the package, numpy included, and runs the workload's warm-up job.
SETUP_SNIPPET = (
    "import io, contextlib, sys\n"
    "from aughts import cli\n"
    "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
    "    sys.exit(cli.main(sys.argv[1:]))\n"
)



def metric_units(group: str) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json lists in a group."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[group]}


def reference(job: dict, table: refs.OrbitCensusTable | None):
    """The independently computed answer a job's output must match."""
    kind, func = job["kind"], job.get("func", "")
    if kind == "cli" and job["argv"][0] == "census" and "m" in job:
        return table.census(job["m"], job["d"])
    if "region" in job:
        region_kind, params = job["region"]
        total, hits = refs.point_census(region_kind, params)
        origin = int(refs.contains(region_kind, params, 0, 0))
        return {"total": total, "hits": hits, "origin": origin}
    if func == "census.square_orbit_averages":
        return refs.orbit_averages(table.census(job["args"][0], 2))
    if func == "census.cumulative_perimeter_stats":
        return refs.perimeter_stats(job["args"][0])
    if func == "census.disk_length_stats":
        return refs.disk_lengths(job["args"][0])
    if kind == "spectrum":
        spectrum = refs.sym_order_spectrum(job["args"][0] + 1)
        return {str(k): v for k, v in spectrum.items()}
    if func == "orbits.reach_graph":
        nodes, edges = refs.reach(tuple(job["args"][0]))
        return [sorted(nodes), edges]
    return None


def references(job_list: list[dict], warmup: dict) -> tuple[dict, object]:
    sizes = [j["m"] for j in job_list + [warmup] if "m" in j]
    sizes += [j["args"][0] for j in job_list if j.get("func") == "census.square_orbit_averages"]
    table = refs.OrbitCensusTable(max(sizes)) if sizes else None
    return {j["id"]: reference(j, table) for j in job_list}, reference(warmup, table)


def measure_setup(warmup: dict) -> list[float]:
    """Reference seconds of each fresh-interpreter start."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    times = []
    for _ in range(SETUP_STARTS):
        cal = calib.Calibration(SETUP_KERNEL, inside=False)
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, *warmup["argv"]],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            timeout=60, check=False,
        )
        wall = time.perf_counter() - t0
        times.append(wall * cal.finish()[0])
        if proc.returncode != 0:
            raise RuntimeError(f"set-up job failed: {proc.stderr.decode()[-500:]}")
    return times


def run_worker(spec: dict, timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py")],
        input=json.dumps(spec), capture_output=True, text=True, cwd=ROOT,
        timeout=timeout, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(result: dict, setup: list[float]) -> tuple[dict, dict]:
    """Metric values and the sample count behind each.

    A job's time is its mean over the passes: a later pass runs on warm
    memory, so pooling the passes would put cold and warm runs of the same
    jobs side by side at the percentiles.
    """
    records = result["records"]
    n, passes = len(records), result["passes"]
    per_job: dict[int, list[float]] = {}
    for r in records:
        per_job.setdefault(r["id"], []).append(r["wall_ref"])
    walls = [statistics.fmean(w) for w in per_job.values()]
    deciles = statistics.quantiles(walls, n=10, method="inclusive")
    beyond_p90 = sum(1 for w in walls if w > deciles[8])
    values = {
        "setup_s": statistics.median(setup),
        "jobs_per_s": jobs_per_s(records),
        "job_s.p50": deciles[4],
        "job_s.p90": deciles[8],
        "cpu_s": sum(r["cpu_ref"] for r in records) / passes,
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
    }
    samples = {
        "setup_s": f"{len(setup)} process starts",
        "jobs_per_s": f"{n} jobs in {passes} pass(es), {sum(walls) * passes:.2f} reference s busy",
        "job_s.p50": f"{len(walls)} jobs, each the mean of {passes} pass(es)",
        "job_s.p90": f"{len(walls)} jobs, each the mean of {passes} pass(es), {beyond_p90} beyond it",
        "cpu_s": f"user+sys per pass of {n // passes} jobs, {passes} pass(es)",
        "peak_rss_mb": "ru_maxrss of the workload process",
    }
    if beyond_p90 < 10:
        samples["job_s.p90"] += " (fewer than ten: read as indicative)"
    return values, samples


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(joblists.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not os.path.isfile(os.path.join(ROOT, "src", "aughts", "__init__.py")):
        print(f"error: no aughts package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    job_list = joblists.job_list(args.workload, args.seed)
    warmup = joblists.WARMUP[args.workload]
    setup = measure_setup(warmup) if not args.trace else []
    job_refs, warmup_ref = references(job_list, warmup)
    spec = {
        "root": ROOT, "workload": args.workload, "jobs": job_list, "refs": job_refs,
        "warmup": warmup, "warmup_ref": warmup_ref, "trace": False,
        # traced runs take no samples inside jobs, which would land in spans
        "sample_inside": not args.trace,
        "passes": joblists.passes(args.workload, args.seconds),
        "kernel": joblists.KERNEL[args.workload],
    }

    def remaining() -> float:
        return max(10.0, WORKER_TIMEOUT - (time.perf_counter() - started))

    result = run_worker(spec, remaining())
    records = result["records"]
    if args.trace:
        spec.update(trace=True, untraced_rate=jobs_per_s(records),
                    per_layer=list(metric_units("per_layer")))
        result = run_worker(spec, remaining())
        records = result["records"]

    by_id = {j["id"]: j for j in job_list}
    failed = [r for r in records if r["error"] is not None]
    for r in failed:
        print(f"FAIL job {r['id']}: {joblists.describe(by_id[r['id']])}: {r['error']}")
    print(f"fail_ratio {len(failed) / len(records):.6g} ({len(failed)} of {len(records)} jobs)")

    kernel_ms = statistics.median(r["kernel_s"] for r in records) * 1e3
    print(f"calibration kernel {kernel_ms:.3f} ms median over the timed jobs"
          f" (reference {calib.KERNELS[spec['kernel']][2] * 1e3:.3f} ms, {spec['kernel']})")
    if args.trace:
        units = metric_units("per_layer")
        values = result["per_layer"]
        metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
        for name, fn in sorted(result["functions"].items()):
            print(f"  {name:45s} calls {fn['calls']:>9d}  self {fn['self_s']:10.6f} s"
                  f"  total {fn['total_s']:10.6f} s")
        for k, m in metrics.items():
            print(f"{k:40s} {m['value']:.6g} {m['unit']}")
    else:
        units = metric_units("end_to_end")
        values, samples = end_to_end(result, setup)
        metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
        for k, m in metrics.items():
            print(f"{k:12s} {m['value']:.6g} {m['unit']}  (n: {samples[k]})")

    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
