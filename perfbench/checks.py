"""Output checks: each job's result against its reference.

A check returns None when the output is right and a one-line reason when it
is not.  References come from `refs`, never from the code path under test;
sampled cells and points are also checked against the package's scalar
Python-int definitions in `aughts.orbits`.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re

import numpy as np

import refs

DIAMETRAL_COLOR = "#d62728"
OTHER_COLOR = "#1f77b4"
PROJECTION_RADIUS = 220
PROJECTION_CENTER = 240
SAMPLE = 40
CELL = re.compile(r'<rect x="(-?\d+)" y="(-?\d+)" width="\d+" height="\d+" fill="(#[0-9a-f]+)"/>')
CIRCLE = re.compile(r'<circle cx="([-0-9.]+)" cy="([-0-9.]+)" r="2" fill="(#[0-9a-f]+)"/>')


def _close(a: float, b: float, rel: float = 1e-12) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=0.0)


def _first_diff(label: str, got, want) -> str | None:
    return None if got == want else f"{label}: got {got!r}, want {want!r}"


class Checker:
    """Checks outputs for one workload process.

    `orbits` and `palette` are the package's scalar orbit module and its
    default render palette; verified group catalogs are remembered by
    digest so a repeated job's identical output is not re-derived.
    """

    def __init__(self, orbits, palette):
        self.orbits = orbits
        self.palette = palette
        self.verified: set[bytes] = set()

    def check(self, job: dict, result, ref) -> str | None:
        kind = job["kind"]
        if kind == "cli":
            rc, out, err = result
            command = job["argv"][0]
            if rc != 0:
                return f"exit {rc}: {err.strip()[-200:]}"
            return getattr(self, f"_cli_{command}")(job, out, ref)
        if kind == "spectrum":
            got = {str(k): v for k, v in result.items()}
            return _first_diff("order spectrum", got, ref)
        if kind == "batch":
            return getattr(self, "_batch_" + job["func"].split(".")[1])(job, result)
        return getattr(self, "_call_" + job["func"].split(".")[1])(job, result, ref)

    # -- census -------------------------------------------------------------

    def _cli_census(self, job, out, ref):
        data = json.loads(out)
        if "--diametral" in job["argv"]:
            total, hits = ref["total"], ref["hits"]
            return (
                _first_diff("total_points", data["total_points"], total)
                or _first_diff("diametral_points", data["diametral_points"], hits)
                or (None if _close(data["diametral_fraction"], hits / total if total else 0.0, 1e-11)
                    else f"diametral_fraction {data['diametral_fraction']} != {hits}/{total}")
            )
        want_res = {str(r): c for r, c in ref["residue_counts"].items()}
        return (
            _first_diff("total_points", data["total_points"], ref["total_points"])
            or _first_diff("total_orbits", data["total_orbits"], ref["total_orbits"])
            or _first_diff("residue_counts", data["residue_counts"], want_res)
            or _first_diff("sums", data["sums"], ref["sums"])
        )

    def _call_square_orbit_averages(self, job, result, ref):
        if result.orbit_count != ref["orbit_count"]:
            return f"orbit_count: got {result.orbit_count}, want {ref['orbit_count']}"
        for key in ("diameter", "box_side", "perimeter"):
            if not _close(getattr(result, key), ref[key]):
                return f"{key}: got {getattr(result, key)!r}, want {ref[key]!r}"
        return None

    def _call_cumulative_perimeter_stats(self, job, result, ref):
        count, total = ref
        return (
            _first_diff("count", result.count, count)
            or _first_diff("total", result.total, total)
            or _first_diff("average", result.average, total / count)
        )

    def _call_disk_length_stats(self, job, result, ref):
        count, total, largest = ref
        return (
            _first_diff("point_count", result.point_count, count)
            or _first_diff("maximum", result.maximum, largest)
            or _first_diff("average", result.average, total / count)
        )

    def _call_projection_histogram(self, job, result, ref):
        bins = job["args"][0]
        if len(result.diametral) != bins or len(result.others) != bins:
            return f"histogram has {len(result.diametral)}/{len(result.others)} bins, want {bins}"
        hits, others = ref["hits"], ref["total"] - ref["hits"] - ref["origin"]
        if sum(result.diametral) != hits or sum(result.others) != others:
            return (f"totals {sum(result.diametral)}/{sum(result.others)}, "
                    f"want {hits}/{others}")
        # diametral points lie in the double cone between the angles
        # atan(1/2) and atan(2); bins clear of it must hold none of them
        lo, hi = math.atan2(1, 2), math.atan2(2, 1)
        width = 2 * math.pi / bins
        for i, count in enumerate(result.diametral):
            a, b = i * width, (i + 1) * width
            clear = all(b < c_lo - 1e-9 or a > c_hi + 1e-9
                        for c_lo, c_hi in ((lo, hi), (lo + math.pi, hi + math.pi)))
            if clear and count:
                return f"bin {i} holds {count} diametral points outside the cone"
        return None

    # -- render -------------------------------------------------------------

    def _cli_render(self, job, out, ref):
        """Count the drawn cells or points and check a seeded sample of them.

        The SVG is scanned with an iterator that keeps only the sampled
        matches, so the check holds O(SAMPLE) memory besides the output.
        """
        kind, params = job["region"]
        mode = job["mode"]
        argv = job["argv"]
        scale = int(argv[argv.index("--scale") + 1])
        rng = random.Random(job["id"])
        if mode == "projection":
            pattern, want = CIRCLE, ref["total"] - ref["origin"]
        else:
            pattern, want = CELL, ref["total"]
        picked = set(rng.sample(range(want), min(SAMPLE, want)))
        count, red, sample = 0, 0, {}
        for i, match in enumerate(pattern.finditer(out)):
            count += 1
            red += match[3] == DIAMETRAL_COLOR
            if i in picked:
                sample[i] = match.groups()
        what = "projected points" if mode == "projection" else "cells"
        if count != want:
            return f"{count} {what}, want {want}"
        if mode != "mod" and red != ref["hits"]:
            return f"diametral {what} count {red} differs from the cone count {ref['hits']}"
        if mode == "projection":
            for i, (cx, cy, fill) in sorted(sample.items()):
                x, y = refs.row_major_point(kind, params, i, skip_origin=True)
                norm = math.sqrt(x * x + y * y)
                if (abs(float(cx) - (PROJECTION_CENTER + PROJECTION_RADIUS * x / norm)) > 2e-3
                        or abs(float(cy) - (PROJECTION_CENTER - PROJECTION_RADIUS * y / norm)) > 2e-3):
                    return f"point ({x}, {y}) drawn at ({cx}, {cy})"
                if (fill == DIAMETRAL_COLOR) != self.orbits.is_diametral((x, y)):
                    return f"point ({x}, {y}) has the wrong diametral colour"
            return None
        x_min, _, _, y_max = refs.bounds(kind, params)
        d = int(argv[argv.index("--mod") + 1]) if mode == "mod" else None
        for i, (px, py, fill) in sorted(sample.items()):
            x, y = x_min + int(px) // scale, y_max - int(py) // scale
            if (x, y) != refs.row_major_point(kind, params, i, skip_origin=False):
                return f"cell {i} drawn at lattice point ({x}, {y}) out of order"
            if d is not None:
                want_fill = self.palette[(2 * self.orbits.semi_perimeter((x, y))) % d]
            elif self.orbits.is_diametral((x, y)):
                want_fill = DIAMETRAL_COLOR
            else:
                want_fill = OTHER_COLOR
            if fill != want_fill:
                return f"cell ({x}, {y}) filled {fill}, want {want_fill}"
        return None

    # -- group --------------------------------------------------------------

    def _cli_group(self, job, out, ref):
        digest = hashlib.sha256(out.encode()).digest()
        if digest in self.verified:
            return None
        n = job["n"]
        error = check_catalog(n, out)
        if error is None:
            self.verified.add(digest)
        return error

    def _cli_verify(self, job, out, ref):
        lines = out.strip().splitlines()
        passed = [ln for ln in lines if ln.startswith("[PASS]")]
        failed = [ln for ln in lines if ln.startswith("[FAIL]")]
        if failed or len(passed) != 7 or not lines[-1].startswith("all suites passed"):
            return f"verify reported: {lines[-1] if lines else 'nothing'}"
        return None

    def _call_verify_isomorphism(self, job, result, ref):
        n = job["args"][0]
        order = math.factorial(n + 1)
        images = {p.images for p in result.forward.values()}
        if len(result.forward) != order or len(images) != order or len(result.backward) != order:
            return f"witness covers {len(result.forward)} elements / {len(images)} images, want {order}"
        for e, p in result.forward.items():
            if e.eps == 1 and e.sigma.images == tuple(range(1, n + 1)):
                if p.images != refs.transposition(n + 1, 1, e.h + 1):
                    return f"generator K({e.h}) maps to {p.images}"
        return None

    # -- batches ------------------------------------------------------------

    def _batch_msih_mul(self, job, results):
        for (a, b), got in zip(job["inputs"], results):
            want = np.array(refs.element_matrix(*a)) @ np.array(refs.element_matrix(*b))
            if not np.array_equal(np.array(refs.element_matrix(got.sigma.images, got.h, got.eps)), want):
                return f"msih_mul{tuple(a), tuple(b)} gave {got}"
        return None

    def _batch_mat_mul(self, job, results):
        n = job["n"]
        for (a, b), got in zip(job["inputs"], results):
            want = np.array(a).reshape(n, n) @ np.array(b).reshape(n, n)
            if list(got.entries) != want.ravel().tolist():
                return f"mat_mul of {a} and {b} differs"
        return None

    def _batch_product_closed_form(self, job, results):
        n = job["n"]
        for js, got in zip(job["inputs"], results):
            want = np.eye(n, dtype=np.int64)
            for j in js:
                want = want @ refs.generator_matrix(n, j)
            if list(got.entries) != want.ravel().tolist():
                return f"product_closed_form({n}, {js}) differs"
        return None

    def _batch_orbit2d(self, job, results):
        for (x, y), got in zip(job["inputs"], results):
            nodes = refs.orbit_nodes(x, y)
            xs = [p[0] for p in nodes]
            diam_sq = max((p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 for p in nodes for q in nodes)
            if (list(got.nodes) != nodes
                    or 2 * got.semi_perimeter != refs.orbit_length(x, y)
                    or got.box_side != max(xs) - min(xs)
                    or 2 * got.diam_multiplier**2 != diam_sq):
                return f"orbit2d(({x}, {y})) differs"
        return None

    def _batch_is_diametral(self, job, results):
        for (x, y), got in zip(job["inputs"], results):
            if got != refs.is_diametral(x, y):
                return f"is_diametral(({x}, {y})) = {got}"
        return None

    def _batch_orbit_rep(self, job, results):
        for (x, y), got in zip(job["inputs"], results):
            if got != max(refs.orbit_nodes(x, y)):
                return f"orbit_rep(({x}, {y})) = {got}"
        return None

    def _call_reach_graph(self, job, result, ref):
        nodes, edges = frozenset(tuple(p) for p in ref[0]), ref[1]
        if result.nodes != nodes or len(result.edges) != edges:
            return (f"reach_graph({job['args'][0]}): {len(result.nodes)} nodes / "
                    f"{len(result.edges)} edges, want {len(nodes)} / {edges}")
        return None


def check_catalog(n: int, out: str) -> str | None:
    """Check a `group --dim n` catalog record by record.

    Each element's word is re-evaluated twice: as generator matrices acting
    on a probe vector, compared with the matrix its (sigma, h, eps) names,
    and as star transpositions, compared with its image.  Distances must
    equal word lengths and the star-graph distance of the image.  Records
    are decoded one at a time, so the check holds one record in memory.
    """
    order = math.factorial(n + 1)
    head = json.loads(out[: out.index('"elements"')].rstrip().rstrip(",") + "}")
    if head.get("order") != order or head.get("n") != n:
        return f"header says order {head.get('order')}, want {order}"
    decoder = json.JSONDecoder()
    pos = out.index("[", out.index('"elements"')) + 1
    v = refs.probe(n)
    probes = {(): v}
    images = {(): tuple(range(1, n + 2))}
    seen_elements, seen_images = set(), set()
    count = 0
    while True:
        while out[pos] in " \n,":
            pos += 1
        if out[pos] == "]":
            break
        rec, pos = decoder.raw_decode(out, pos)
        count += 1
        word = tuple(rec["word"])
        if word not in probes:
            if word[1:] not in probes:
                return f"word {word} appears before its suffix"
            probes[word] = refs.apply_generator(word[0], probes[word[1:]])
            images[word] = refs.then(refs.transposition(n + 1, 1, word[0] + 1), images[word[1:]])
        sigma, h, eps = tuple(rec["sigma"]), rec["h"], rec["eps"]
        if refs.mat_vec(refs.element_matrix(sigma, h, eps), v) != probes[word]:
            return f"word {word} does not evaluate to {rec['text']}"
        if tuple(rec["psi"]) != images[word]:
            return f"image of {rec['text']} is not the product of its word"
        if not rec["distance"] == len(word) == refs.star_distance(images[word]):
            return f"distance of {rec['text']} is {rec['distance']}, word length {len(word)}"
        seen_elements.add((sigma, h, eps))
        seen_images.add(images[word])
    if not count == len(seen_elements) == len(seen_images) == order:
        return f"{count} records, {len(seen_elements)} distinct elements, want {order}"
    return None
