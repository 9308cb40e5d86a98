"""Tests of the benchmark itself: job lists, references, failure handling
and tracing.  Sizes are small so the file runs in seconds."""

from __future__ import annotations

import copy
import math
import os
import signal
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import calib  # noqa: E402
import checks  # noqa: E402
import jobs  # noqa: E402
import refs  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from spans import Tracer  # noqa: E402

worker.import_package(ROOT)

from aughts import atlas, census, intmat, orbits, signed_perm, svg  # noqa: E402


# -- job lists --------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(jobs.WORKLOADS))
def test_job_list_is_determined_by_the_seed(workload):
    first = jobs.job_list(workload, 7)
    assert jobs.job_list(workload, 7) == first
    assert jobs.job_list(workload, 8) != first
    assert sorted(j["id"] for j in first) == list(range(len(first)))


@pytest.mark.parametrize("workload", ["orbit-census", "point-census", "algebra"])
def test_job_list_composition_is_fixed(workload):
    def shape(job):
        return job["kind"], job.get("func"), job["argv"][0] if job["kind"] == "cli" else None

    a, b = jobs.job_list(workload, 1), jobs.job_list(workload, 2)
    assert sorted(map(shape, a), key=repr) == sorted(map(shape, b), key=repr)
    assert len(a) >= 100  # a p90 with ten jobs beyond it


def test_point_census_stays_in_int64_safe_range():
    for job in jobs.job_list("point-census", 3):
        if "region" in job and job["region"][0] == "rect":
            assert max(abs(v) for v in job["region"][1]) <= jobs.INT64_SAFE


INT64_MAX = 2**63 - 1


def test_calibration_scales_times_to_the_reference_machine_state():
    for kind, (kernel, _, wall_ref, cpu_ref) in calib.KERNELS.items():
        assert kernel() == kernel()  # fixed work, no package calls
        slow = (2 * wall_ref, 2 * cpu_ref)
        assert calib.scales(kind, [slow, slow, slow]) == pytest.approx((0.5, 0.5))
    assert {jobs.KERNEL[w] for w in jobs.WORKLOADS} <= set(calib.KERNELS)


def test_samples_inside_a_long_job_are_taken_off_its_time():
    cal = calib.Calibration("python")
    t0 = time.perf_counter()
    cal.start()
    try:
        end = time.perf_counter() + 1.2
        while time.perf_counter() < end:
            pass
    finally:
        cal.stop()
    wall = time.perf_counter() - t0
    cal.finish()
    assert 3 <= len(cal.samples) <= 5  # before, about two inside, after
    assert 0 < cal.inside_wall_s < 0.1 * wall
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_pass_count_depends_on_the_time_budget_alone():
    assert jobs.passes("orbit-census", 30) == 2
    assert jobs.passes("algebra", 30) == 1
    assert all(jobs.passes(w, 0) == 1 for w in jobs.WORKLOADS)


# -- references against the package's scalar oracles -----------------------

REGIONS = [
    ("square", (23,)), ("sym-square", (17,)), ("hexagon", (19,)), ("disk", (21,)),
    ("rect", (-13, 9, -4, 15)), ("rect", (5, 2, 0, 3)),
]


def _points(kind, params):
    return [(x, y) for y, lo, hi in refs.rows(kind, params) for x in range(lo, hi + 1)]


@pytest.mark.parametrize("kind,params", REGIONS)
def test_point_census_matches_scalar_definition(kind, params):
    pts = _points(kind, params)
    region = getattr(census.Region, kind.replace("-", "_"))(*params)
    xmin, xmax, ymin, ymax = region.bounds()
    box = [(x, y) for y in range(ymin, ymax + 1) for x in range(xmin, xmax + 1)]
    assert pts == [p for p in box if region.contains(*p)]
    assert refs.point_census(kind, params) == (
        len(pts), sum(orbits.is_diametral(p) for p in pts)
    )
    assert [refs.row_major_point(kind, params, i, False) for i in range(len(pts))] == pts
    nonzero = [p for p in pts if p != (0, 0)]
    assert [refs.row_major_point(kind, params, i, True) for i in range(len(nonzero))] == nonzero


def test_disk_lengths_match_scalar_definition():
    for r in (1, 7, 20):
        lengths = [2 * orbits.semi_perimeter(p) for p in _points("disk", (r,))]
        assert refs.disk_lengths(r) == (len(lengths), sum(lengths), max(lengths))


def test_orbit_census_table_matches_scalar_representatives():
    table = refs.OrbitCensusTable(30, block_rows=7)
    for m in (0, 1, 2, 9, 30):
        reps = {orbits.orbit_rep((x, y)) for x in range(m + 1) for y in range(m + 1)}
        # the kept point of an orbit is its largest node inside the square
        kept = {
            max(p for p in orbits.orbit2d(r).nodes if 0 <= min(p) and max(p) <= m)
            for r in reps
        }
        got = [orbits.orbit2d(p) for p in kept]
        for d in jobs.MODULI:
            want = table.census(m, d)
            assert want["total_orbits"] == len(kept)
            assert want["residue_counts"] == {
                r: sum(2 * o.semi_perimeter % d == r for o in got) for r in range(d)
            }
        assert want["sums"] == {
            "diam_multiplier": sum(o.diam_multiplier for o in got),
            "perimeter": sum(2 * o.semi_perimeter for o in got),
            "box_side": sum(o.box_side for o in got),
        }


def test_perimeter_stats_match_the_per_length_count():
    for t in (4, 5, 11, 12, 13, 100, 997):
        counts = [census.count_orbits_with_perimeter(x) for x in range(4, t + 1, 4)]
        assert refs.perimeter_stats(t) == (
            sum(counts), sum(c * x for c, x in zip(counts, range(4, t + 1, 4)))
        )


def test_group_references_match_the_catalog():
    for n in (1, 2, 3, 4):
        cat = atlas.enumerate_group(n)
        assert refs.sym_order_spectrum(n + 1) == atlas.order_spectrum(cat)
        for e in cat.elements:
            assert refs.star_distance(cat.psi_image(e).images) == cat.distance_of(e)
            assert refs.element_matrix(e.sigma.images, e.h, e.eps) == [
                list(row) for row in signed_perm.to_matrix(e).rows()
            ]
        for j in range(1, n + 1):
            assert refs.generator_matrix(n, j).tolist() == [
                list(row) for row in intmat.make_k(n, j).rows()
            ]


def test_operator_references_match_the_package():
    for p in [(3, -5), (0, 0), (4, 2), (10, 8, 15), (3, 1, 4, 1), (2, -7, 1, 8, 2)]:
        for j in range(1, len(p) + 1):
            assert tuple(refs.apply_generator(j, list(p))) == orbits.apply_k(p, j)
        if len(p) == 2:
            assert refs.orbit_nodes(*p) == list(orbits.orbit2d(p).nodes)
            assert refs.is_diametral(*p) == orbits.is_diametral(p)
        else:
            graph = orbits.reach_graph(p)
            assert refs.reach(p) == (set(graph.nodes), len(graph.edges))


def test_catalog_check_accepts_the_real_catalog_and_rejects_a_wrong_word():
    import json

    for n in (2, 3, 4):
        text = json.dumps(atlas.catalog_json(atlas.enumerate_group(n)), indent=2)
        assert checks.check_catalog(n, text) is None
    data = atlas.catalog_json(atlas.enumerate_group(3))
    data["elements"][5]["word"] = list(reversed(data["elements"][5]["word"])) + [1, 1]
    assert checks.check_catalog(3, json.dumps(data, indent=2)) is not None


# -- the run loop -----------------------------------------------------------


def _spec(job_list, **extra):
    for i, job in enumerate(job_list):
        job["id"] = i
    job_refs, warm_ref = run.references(job_list, jobs.WARMUP["orbit-census"])
    return {
        "root": ROOT, "workload": "test", "jobs": job_list, "refs": job_refs,
        "warmup": jobs.WARMUP["orbit-census"], "warmup_ref": warm_ref,
        "passes": 1, "kernel": "python", "sample_inside": True, "trace": False, **extra,
    }


SMALL_JOBS = [
    {"kind": "cli", "argv": ["census", "--square", "120", "--mod", "6"], "m": 120, "d": 6},
    {"kind": "call", "func": "census.cumulative_perimeter_stats", "args": [5000]},
    {"kind": "call", "func": "census.disk_length_stats", "args": [100]},
    {"kind": "cli", "argv": ["render", "--rect=-20,20,-9,30", "--diametral", "--scale", "3"],
     "region": ["rect", [-20, 20, -9, 30]], "mode": "diametral"},
    {"kind": "cli", "argv": ["render", "--hexagon=12", "--mod", "5", "--scale", "2"],
     "region": ["hexagon", [12]], "mode": "mod"},
    {"kind": "cli", "argv": ["render", "--disk=15", "--projection", "--scale", "1"],
     "region": ["disk", [15]], "mode": "projection"},
    {"kind": "call", "func": "census.projection_histogram", "region": ["sym-square", [40]],
     "args": [64]},
    {"kind": "cli", "argv": ["group", "--dim", "3"], "n": 3},
    {"kind": "cli", "argv": ["verify", "--max-n", "2"], "k": 2},
    {"kind": "spectrum", "args": [4]},
    {"kind": "call", "func": "atlas.verify_isomorphism", "args": [3]},
    {"kind": "batch", "func": "signed_perm.msih_mul", "n": 4,
     "inputs": [[[[2, 1, 4, 3], 3, 1], [[4, 3, 2, 1], 1, 0]], [[[1, 2, 3, 4], 2, 1], [[3, 1, 2, 4], 4, 1]]]},
    {"kind": "batch", "func": "intmat.mat_mul", "n": 2, "inputs": [[[1, -2, 3, 4], [5, 6, -7, 8]]]},
    {"kind": "batch", "func": "intmat.product_closed_form", "n": 5, "inputs": [[3, 1, 5], [2]]},
    {"kind": "batch", "func": "orbits.orbit2d", "inputs": [[2**31, -5], [7, 3]]},
    {"kind": "batch", "func": "orbits.is_diametral", "inputs": [[2**31, 2**30], [-4, -3]]},
    {"kind": "batch", "func": "orbits.orbit_rep", "inputs": [[-2**31, 12], [0, 0]]},
    {"kind": "call", "func": "orbits.reach_graph", "args": [[3, -1, 4, 1]]},
]


def test_every_job_kind_passes_its_check():
    result = worker.run(_spec(copy.deepcopy(SMALL_JOBS)))
    assert result["passes"] == 1
    assert [r["error"] for r in result["records"]] == [None] * len(SMALL_JOBS)


def test_planted_wrong_answer_fails_without_stopping_the_run():
    spec = _spec(copy.deepcopy(SMALL_JOBS[:3]))
    count, total = spec["refs"][1]
    spec["refs"][1] = (count + 1, total)  # plant a wrong reference
    spec["jobs"].append({"id": 3, "kind": "call", "func": "census.cumulative_perimeter_stats",
                         "args": [1]})  # raises ValueError
    records = worker.run(spec)["records"]
    assert [r["error"] is None for r in records] == [True, False, True, False]
    assert "count" in records[1]["error"] and "ValueError" in records[3]["error"]


def _orbit_diameter_sq(x: int, y: int) -> int:
    nodes = refs.orbit_nodes(x, y)
    return max((p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 for p in nodes for q in nodes)


def _max_corner_diameter_sq(job) -> int:
    x0, x1, y0, y1 = job["region"][1]
    return max(_orbit_diameter_sq(x, y) for x in (x0, x1) for y in (y0, y1))


def test_rect_guard_reaches_the_int64_wrap_and_point_census_does_not():
    """The diametral mask squares orbit diameters in int64.  Rect-guard jobs
    have corners whose squared diameter exceeds int64, so a mask that wraps
    can fail there; every point-census rect stays below it."""
    guard = jobs.job_list("rect-guard", 1)
    assert sum(_max_corner_diameter_sq(j) > INT64_MAX for j in guard) >= len(guard) // 3
    rects = [j for j in jobs.job_list("point-census", 1)
             if "region" in j and j["region"][0] == "rect"]
    assert rects and all(_max_corner_diameter_sq(j) <= INT64_MAX for j in rects)


def test_rect_guard_failures_are_only_beyond_the_int64_safe_range():
    """Whether a rect-guard job fails depends on whether the package's mask
    still wraps, so this checks only where failures occur: a failure is a
    failed job, not a crash, and only rects beyond 2^29 have any."""
    job_list = jobs.job_list("rect-guard", 1)[:6] + copy.deepcopy(SMALL_JOBS[3:4])
    records = worker.run(_spec(job_list))["records"]
    assert len(records) == len(job_list)
    for rec in records:
        if rec["error"] is not None:
            corners = job_list[rec["id"]]["region"][1]
            assert min(abs(v) for v in corners) > jobs.INT64_SAFE, rec


def test_traced_and_untraced_runs_produce_identical_outputs():
    runner = worker.Runner()
    job_list = copy.deepcopy(SMALL_JOBS)
    for i, job in enumerate(job_list):
        job["id"] = i

    def outputs():
        return [repr(runner.prepare(job)()) for job in job_list]

    plain = outputs()
    original = census.modular_census
    tracer = Tracer()
    tracer.install()
    try:
        assert census.modular_census is not original
        traced = outputs()
    finally:
        tracer.uninstall()
    assert census.modular_census is original
    assert traced == plain
    fns = tracer.per_function()
    assert fns["census.modular_census"]["calls"] == 1
    assert fns["cli.main"]["calls"] == sum(j["kind"] == "cli" for j in job_list)
    assert fns["signed_perm.msih_mul"]["calls"] > 0
    # self times add up to the traced wall time of the outermost spans
    a = tracer.arrays()
    top = a["parent"] == -1
    assert math.isclose(
        sum(f["self_s"] for f in fns.values()),
        float((a["end_ns"][top] - a["start_ns"][top]).sum()) / 1e9,
        rel_tol=1e-9,
    )
    tracer.collect()
    names = list(run.metric_units("per_layer"))
    assert set(tracer.per_layer(names, 1.0)) == set(names)


def test_run_refuses_a_directory_without_the_package(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", str(tmp_path))
    assert run.main(["--workload", "algebra", "--seed", "1"]) == 2


def test_output_checks_add_no_spans():
    job = dict(copy.deepcopy(SMALL_JOBS[3]), id=0)
    ref = run.reference(job, None)
    checker = checks.Checker(orbits, svg.DEFAULT_PALETTE)
    tracer = Tracer()
    tracer.install()
    try:
        rec = worker.run_job(worker.Runner(), checker, job, ref, "numpy", tracer)
    finally:
        tracer.uninstall()
    assert rec["error"] is None
    names = {tracer.names[i] for i in tracer.name}
    assert "svg.render_svg" in names and "orbits.is_diametral" not in names
