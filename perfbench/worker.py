"""The workload process: one client running a job list in a closed loop.

Reads a JSON spec on standard input, runs an untimed warm-up job, then runs
the spec's number of whole passes over the job list, each job starting only
after the previous one returned.  Every
job is timed between two samples of the workload's calibration kernel
(calib.py), and
its output is checked outside the timed interval.  Writes one JSON result
line to standard output.

Cache policy: `atlas.catalog` is cleared before every job that reads it, as
a fresh CLI process would start without it, so no job's cost depends on
the jobs before it.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calib  # noqa: E402

CATALOG_JOBS = {"group", "verify", "atlas.verify_isomorphism", "spectrum"}


def import_package(root: str):
    """Import aughts from the checkout's src/, refusing any other copy."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import aughts

    if not os.path.abspath(aughts.__file__).startswith(os.path.abspath(src) + os.sep):
        raise ImportError(f"aughts imported from {aughts.__file__}, not from {src}")
    return aughts


class Runner:
    """Builds and runs jobs against the package's module attributes.

    Functions are looked up on their modules at call time, so an installed
    tracer's wrappers are the ones called.
    """

    def __init__(self):
        from aughts import atlas, census, cli, intmat, orbits, signed_perm, svg

        self.modules = {
            "atlas": atlas, "census": census, "cli": cli, "intmat": intmat,
            "orbits": orbits, "signed_perm": signed_perm, "svg": svg,
        }
        self.clear_catalog = atlas.catalog.cache_clear

    def _func(self, qualified: str):
        module, name = qualified.split(".")
        return getattr(self.modules[module], name)

    def prepare(self, job: dict):
        """Build the job's inputs and return a zero-argument callable."""
        kind = job["kind"]
        if {kind, job.get("func"), job.get("argv", [None])[0]} & CATALOG_JOBS:
            self.clear_catalog()
        if kind == "cli":
            return lambda: self._cli(job["argv"])
        if kind == "spectrum":
            atlas = self.modules["atlas"]
            return lambda: atlas.order_spectrum(atlas.catalog(job["args"][0]))
        if kind == "batch":
            inputs = [self._batch_input(job, item) for item in job["inputs"]]
            name = job["func"]
            return lambda: [self._func(name)(*a) for a in inputs]
        args = list(job["args"])
        if "region" in job:
            region_kind, params = job["region"]
            region_cls = self.modules["census"].Region
            args.insert(0, getattr(region_cls, region_kind.replace("-", "_"))(*params))
        if job["func"] == "orbits.reach_graph":
            args = [tuple(args[0])]
        name = job["func"]
        return lambda: self._func(name)(*args)

    def _batch_input(self, job: dict, item) -> tuple:
        func = job["func"]
        if func == "signed_perm.msih_mul":
            sp = self.modules["signed_perm"]
            return tuple(sp.SignedPermElement.of(sp.Permutation.of(s), h, e) for s, h, e in item)
        if func == "intmat.mat_mul":
            im = self.modules["intmat"]
            return tuple(im.SmallIntMatrix(job["n"], tuple(m)) for m in item)
        if func == "intmat.product_closed_form":
            return job["n"], tuple(item)
        return (tuple(item),)

    def _cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.modules["cli"].main(argv)
        return rc, out.getvalue(), err.getvalue()


def jobs_per_s(records: list[dict]) -> float:
    """Jobs that passed their check per reference second the client waited
    on jobs."""
    done = sum(1 for r in records if r["error"] is None)
    return done / sum(r["wall_ref"] for r in records)


def run_job(runner, checker, job, ref, kernel: str, tracer=None, inside: bool = True) -> dict:
    """Run one job, timed and calibrated (calib.Calibration, with samples
    inside the job if `inside`), then check its output untimed."""
    fn = runner.prepare(job)
    gc.collect()  # no job pays for collecting its predecessor's garbage
    if tracer is not None:
        tracer.job_id = job["id"]
    cal = calib.Calibration(kernel, inside)
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    cal.start()
    try:
        result, error = fn(), None
    except Exception as exc:  # a failing job is reported, the run goes on
        result, error = None, f"raised {type(exc).__name__}: {exc}"
    finally:
        cal.stop()
    t1 = time.perf_counter()
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    wall_scale, cpu_scale = cal.finish()
    if error is None:
        if tracer is not None:
            tracer.paused = True  # checks call the package's scalar functions
        try:
            error = checker.check(job, result, ref)
        except Exception as exc:  # malformed output fails its check
            error = f"output check raised {type(exc).__name__}: {exc}"
    if tracer is not None:
        tracer.paused = False
        tracer.collect()
        if job["kind"] == "cli" and result is not None:
            tracer.count("cli.out_bytes", len(result[1]))
    wall = t1 - t0 - cal.inside_wall_s
    cpu = (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime) - cal.inside_cpu_s
    return {
        "id": job["id"], "wall": wall, "cpu": cpu, "error": error,
        "wall_ref": wall * wall_scale, "cpu_ref": cpu * cpu_scale,
        "kernel_s": calib.KERNELS[kernel][2] / wall_scale,
    }


def run(spec: dict) -> dict:
    import_package(spec["root"])
    from aughts import orbits, svg

    from checks import Checker

    runner = Runner()
    checker = Checker(orbits, svg.DEFAULT_PALETTE)
    refs = {int(k): v for k, v in spec["refs"].items()}

    warm = dict(spec["warmup"], id=-1)
    run_job(runner, checker, warm, spec["warmup_ref"], spec["kernel"])
    # The job list and references are the harness's, not the program's:
    # keep the collector from scanning them inside jobs.
    gc.freeze()

    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    records: list[dict] = []
    for passes in range(1, spec["passes"] + 1):
        runner.clear_catalog()
        for job in spec["jobs"]:
            records.append(
                run_job(runner, checker, job, refs.get(job["id"]), spec["kernel"], tracer,
                        inside=spec["sample_inside"]))
        if passes == 1:
            # later passes repeat the same jobs; the peak is the first pass's
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out = {"records": records, "passes": passes, "peak_rss_kb": peak_rss_kb}
    if tracer is not None:
        tracer.uninstall()
        out["functions"] = tracer.per_function()
        out["tracer"] = tracer
    return out


def main() -> int:
    spec = json.load(sys.stdin)
    result = run(spec)
    tracer = result.pop("tracer", None)
    if tracer is not None:
        overhead = jobs_per_s(result["records"]) / spec["untraced_rate"]
        result["per_layer"] = tracer.per_layer(spec["per_layer"], overhead)
        tracer.write(os.path.join(spec["root"], ".perfbench", f"spans-{spec['workload']}.npz"))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
