"""Seeded job lists for the benchmark workloads.

A job is one CLI invocation or one library call, written as plain JSON data
so that the workload process only ever sees generated inputs.

Each workload has a fixed composition: which job types, region kinds and
size classes it holds, and how many of each.  The seed draws everything
that does not change a job's cost much: moduli, rect positions and aspect,
histogram bins, palettes, group elements, matrices, points, a jitter of at
most a few per cent on sizes.  The interleaving of job types is fixed too.
So two seeds run different inputs but load the program alike.

Sizes come in classes whose job costs differ several-fold, and the class
counts are set so that the median job and the 90th-percentile job each fall
inside a class of similar-cost jobs (a plateau): there a few jobs trading
ranks under timing noise moves the percentile little.
"""

from __future__ import annotations

import math
import random

MODULI = (2, 3, 6, 8, 9, 16)
PALETTE_SIZE = 19
COORD_GUARD = 2**31
# Corners up to 2^29 keep every square in the package's int64 diametral
# mask exact; beyond about 7e8 it wraps (see the rect-guard workload).
INT64_SAFE = 2**29
KINDS = ("square", "sym-square", "hexagon", "disk", "rect")


def _log_strata(rng: random.Random, lo: float, hi: float, k: int) -> list[int]:
    """k sizes log-uniform over [lo, hi], one drawn in each of k equal strata."""
    return [round(lo * (hi / lo) ** ((i + rng.random()) / k)) for i in range(k)]


def _cli(argv, **meta):
    return {"kind": "cli", "argv": [str(a) for a in argv], **meta}


def _call(func, *args, **meta):
    return {"kind": "call", "func": func, "args": list(args), **meta}


def _region_flag(kind: str, params) -> str:
    if kind == "rect":
        return "--rect=" + ",".join(str(v) for v in params)
    return f"--{kind}={params[0]}"


def _region(kind: str, points: float, rng: random.Random, least: int = 1) -> list[int]:
    """Params of a region of the kind holding about `points` lattice points.

    Rects get a seeded aspect ratio in [1/2, 1] and sit anywhere within
    +-2^29; other kinds are at least `least` across (the package requires
    100 for a diametral census).
    """
    points = points * (1 + rng.uniform(-0.02, 0.02))
    if kind == "square":
        return [max(least, round(math.sqrt(points)) - 1)]
    if kind == "sym-square":
        return [max(least, round((math.sqrt(points) - 1) / 2))]
    if kind == "hexagon":
        return [max(least, round(math.sqrt(points / 3)))]
    if kind == "disk":
        return [max(least, round(math.sqrt(points / math.pi)))]
    aspect = rng.uniform(0.5, 1.0)
    w = round(math.sqrt(points / aspect))
    h = max(1, round(w * aspect))
    x0 = rng.randint(-INT64_SAFE, INT64_SAFE - w)
    y0 = rng.randint(-INT64_SAFE, INT64_SAFE - h)
    return [x0, x0 + w - 1, y0, y0 + h - 1]


# ---------------------------------------------------------------------------
# orbit-census: the distinct-orbit path


def orbit_census(seed: int) -> list[dict]:
    """101 jobs: modular censuses over [0, M]^2 for M on the grid 250 * 2^k
    up to 4000, orbit averages, and cumulative perimeter statistics.

    The median falls among the sixteen censuses at M = 500 and the 90th
    percentile among the seventeen at M = 1000, the acceptance size.
    """
    rng = random.Random(f"orbit-census:{seed}")
    moduli = list(MODULI) * 7
    rng.shuffle(moduli)

    def census(m):
        d = moduli.pop()
        return _cli(["census", "--square", m, "--mod", d], m=m, d=d)

    jobs = [census(m) for m in [250] * 3 + [500] * 16 + [1000] * 17 + [2000, 4000]]
    for m in [250] * 3 + [1000] * 3 + [2000]:
        jobs.append(_call("census.square_orbit_averages", m))
    thresholds = _log_strata(rng, 1e3, 2e5, 36) + _log_strata(rng, 7e5, 1.2e6, 19) + [10**7]
    jobs += [_call("census.cumulative_perimeter_stats", t) for t in thresholds]
    return jobs


# ---------------------------------------------------------------------------
# point-census: streaming per-point scans and SVG emission

# Job size per cost tier, in lattice points (cells for renders), chosen so
# a tier's jobs cost about the same: about 4 ms, 18 ms, 100 ms and 250 ms
# per job on a 2-core x86 box.  Jobs per tier follow the sizes.
TIERS = {
    "diametral": ((4e4, 10), (2.5e5, 15), None, (3.5e6, 20)),
    "render": ((2.5e3, 15), None, (6e4, 9), None),
    "projection_histogram": ((2e4, 9), None, (5e5, 5), None),
    "disk_length_stats": ((1e5, 9), None, (3e6, 4), None),
}


def _render(kind: str, params, mode: str, rng: random.Random) -> dict:
    argv = ["render", _region_flag(kind, params)]
    argv += ["--mod", rng.randint(2, PALETTE_SIZE)] if mode == "mod" else [f"--{mode}"]
    argv += ["--scale", rng.choice((1, 2, 5, 10))]
    return _cli(argv, region=[kind, params], mode=mode)


def _diametral(kind: str, params) -> dict:
    return _cli(["census", _region_flag(kind, params), "--diametral"], region=[kind, params])


def point_census(seed: int) -> list[dict]:
    """100 jobs: diametral censuses over all five region kinds, renders,
    angular histograms and point-weighted length statistics.

    The median falls among the fifteen 18 ms diametral censuses and the
    90th percentile among the twenty 250 ms ones; four acceptance-scale
    jobs sit above.
    """
    rng = random.Random(f"point-census:{seed}")
    jobs = []
    for job_type, tiers in TIERS.items():
        for tier in tiers:
            if tier is None:
                continue
            points, count = tier
            for i in range(count):
                kind = KINDS[i % 5]
                if job_type == "diametral":
                    jobs.append(_diametral(kind, _region(kind, points, rng, least=100)))
                elif job_type == "render":
                    mode = ("mod", "diametral", "projection")[i % 3]
                    jobs.append(_render(kind, _region(kind, points, rng), mode, rng))
                elif job_type == "projection_histogram":
                    jobs.append(_call("census.projection_histogram",
                                      rng.choice((8, 16, 32, 64, 360)),
                                      region=[kind, _region(kind, points, rng)]))
                else:
                    jobs.append(_call("census.disk_length_stats",
                                      _region("disk", points, rng, least=100)[0]))
    # the largest jobs set the peak memory, so their sizes are fixed
    jobs += [
        _diametral("disk", [2000]),
        _diametral("hexagon", [2000]),
        _render("sym-square", [300], "mod", rng),
        _call("census.projection_histogram", 64, region=["disk", [1000]]),
    ]
    return jobs


def rect_guard(seed: int) -> list[dict]:
    """Diametral rect censuses with corners beyond 2^29, up to the 2^31
    input guard: the range where the package's int64 mask wraps."""
    rng = random.Random(f"rect-guard:{seed}")
    jobs = []
    for i, s in enumerate(_log_strata(rng, 100, 1000, 20)):
        w, h = s, max(1, round(s * rng.uniform(0.5, 1.0)))
        x = rng.randint(INT64_SAFE, COORD_GUARD // 2 - w)
        # every other rect straddles the diagonal, inside the diametral cone
        y = x if i % 2 else rng.randint(INT64_SAFE, COORD_GUARD - h)
        sx, sy = rng.choice((-1, 1)), rng.choice((-1, 1))
        x0 = x if sx > 0 else -x - w
        y0 = y if sy > 0 else -y - h
        jobs.append(_diametral("rect", [x0, x0 + w, y0, y0 + h]))
    return jobs


# ---------------------------------------------------------------------------
# algebra: exact-integer pure-Python layers


def _perm(rng: random.Random, n: int) -> list[int]:
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return images


def _element(rng: random.Random, n: int) -> list:
    eps = rng.randint(0, 1)
    return [_perm(rng, n), rng.randint(1, n) if eps else 1, eps]


def _distinct(rng: random.Random, dim: int, span: int) -> list[int]:
    """A point with distinct coordinates spread over +-span."""
    return rng.sample(range(-span, span + 1), dim)


# Calls per batch job, sized for about 10 ms per job on a 2-core x86 box.
MAT_MUL_BATCH = {3: 1000, 4: 300, 5: 240, 6: 130, 7: 105, 8: 80}
BATCH = {
    "signed_perm.msih_mul": 1500,
    "intmat.product_closed_form": 400,
    "orbits.orbit2d": 1000,
    "orbits.is_diametral": 300,
    "orbits.orbit_rep": 1100,
}


def algebra(seed: int) -> list[dict]:
    """158 jobs: catalogs, verify runs, isomorphism checks, order spectra,
    batches of products and scalar orbit metrics, and reachability graphs.

    The median falls among the 102 batch jobs of about 15 ms and the 90th
    percentile among the 21 verify_isomorphism(4) calls; the catalogs
    for n = 6, 7, the verify runs and the 6D graphs sit above.
    """
    rng = random.Random(f"algebra:{seed}")
    jobs = [_cli(["group", "--dim", n], n=n) for n in (3, 3, 4, 4, 5, 5, 6, 7)]
    jobs += [_cli(["verify", "--max-n", k], k=k) for k in (2, 3, 4, 5)]
    jobs += [_call("atlas.verify_isomorphism", n) for n in [2, 2, 3, 3] + [4] * 21]
    jobs += [{"kind": "spectrum", "args": [n]} for n in (3, 4, 5, 5, 6)]
    for i in range(24):
        n = 3 + i % 6
        pairs = [[_element(rng, n), _element(rng, n)] for _ in range(BATCH["signed_perm.msih_mul"])]
        jobs.append({"kind": "batch", "func": "signed_perm.msih_mul", "n": n, "inputs": pairs})
    for i in range(18):
        n = 3 + i % 6
        pairs = [[[rng.randint(-50, 50) for _ in range(n * n)] for _ in range(2)]
                 for _ in range(MAT_MUL_BATCH[n])]
        jobs.append({"kind": "batch", "func": "intmat.mat_mul", "n": n, "inputs": pairs})
    for i in range(18):
        n = 3 + i % 6
        tuples = [rng.sample(range(1, n + 1), rng.randint(1, n))
                  for _ in range(BATCH["intmat.product_closed_form"])]
        jobs.append({"kind": "batch", "func": "intmat.product_closed_form", "n": n,
                     "inputs": tuples})
    for func in ("orbits.orbit2d", "orbits.is_diametral", "orbits.orbit_rep"):
        for _ in range(14):
            pts = [[rng.randint(-COORD_GUARD, COORD_GUARD) for _ in range(2)]
                   for _ in range(BATCH[func])]
            jobs.append({"kind": "batch", "func": func, "inputs": pts})
    for dim in [3] * 4 + [4] * 4 + [5] * 4 + [6] * 2:
        jobs.append(_call("orbits.reach_graph", _distinct(rng, dim, 10**6)))
    return jobs


WORKLOADS = {
    "orbit-census": orbit_census,
    "point-census": point_census,
    "algebra": algebra,
    "rect-guard": rect_guard,
}

# Reference seconds (calib.py) of one pass over each workload's job list at
# the seed commit.  A run makes as many whole passes as fit in --seconds at
# that cost, at least one.  So the pass count depends on --seconds alone,
# never on how fast the machine or the program is at the time: a later pass
# runs on warm memory, and a pass count that varied would move every time
# metric.
PASS_S = {"orbit-census": 12.0, "point-census": 15.0, "algebra": 20.5, "rect-guard": 1.0}


def passes(workload: str, seconds: float) -> int:
    return max(1, int(seconds // PASS_S[workload]))


# The calibration kernel (calib.py) whose work is most like the workload's.
KERNEL = {"orbit-census": "numpy", "point-census": "numpy", "algebra": "python",
          "rect-guard": "numpy"}


# An untimed first job per workload, so imports, parser construction and
# numpy's first-call set-up are paid before timing starts.  The set-up
# metric times the same job in fresh interpreters.
WARMUP = {
    "orbit-census": _cli(["census", "--square", 250, "--mod", 2], m=250, d=2),
    "point-census": _diametral("disk", [200]),
    "algebra": _cli(["group", "--dim", 4], n=4),
    "rect-guard": _diametral("disk", [200]),
}


def job_list(workload: str, seed: int) -> list[dict]:
    """The workload's jobs for a seed, interleaved in an order that is the
    same for every seed, so each job follows the same kind of job."""
    jobs = WORKLOADS[workload](seed)
    random.Random(workload).shuffle(jobs)
    for i, job in enumerate(jobs):
        job["id"] = i
    return jobs


def describe(job: dict) -> str:
    """One-line statement of a job's parameters, for failure reports."""
    if job["kind"] == "cli":
        return "aughts " + " ".join(job["argv"])
    if job["kind"] == "spectrum":
        return f"atlas.order_spectrum(atlas.catalog({job['args'][0]}))"
    if job["kind"] == "batch":
        return f"{job['func']} x{len(job['inputs'])} (n={job.get('n', 2)})"
    extra = [f"Region {job['region']}"] if "region" in job else []
    args = ", ".join(extra + [repr(a) for a in job["args"]])
    return f"{job['func']}({args})"
