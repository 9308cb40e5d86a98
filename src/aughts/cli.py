"""Command-line front end.

Subcommands: verify, group, orbit, trace, census, render.
Exit codes: 0 success, 1 verification failure, 2 usage, 3 I/O, 4 resource.
Every rejected argument, whether argparse, the CLI or the library refuses it,
ends with exit 2 and one ``error:`` line on stderr. Each subcommand accepts
only the options it reads and returns its exit code with its output, a str or
an iterable of str chunks; ``main`` writes it, to stdout or to ``--out``, in
one place and with the same bytes on both.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import stat
import sys
from collections.abc import Iterable, Iterator

from aughts import census, orbits
from aughts.errors import ResourceLimitError

SCHEMA_VERSION = 1


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Rejects an argument with one ``error:`` line and exit 2, without the
    usage line; ``add_subparsers`` makes the subcommand parsers of the same
    class.  A comma list of integers that starts with ``-``, such as the
    point ``-3,4``, is a value: argparse on Python 3.10 and 3.11 takes only
    a lone negative number for one and reads the list as an unknown option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d+(,[-+]?\d+)*$|^-\d*\.\d+$")

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="aughts",
        description=(
            "Exact-integer toolkit for the group of alternating involutions "
            "and its twisted-aught lattice orbits."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the identity/oracle suites")
    p_verify.add_argument("--max-n", type=int, default=3, dest="max_n")

    p_group = sub.add_parser("group", help="export the full group catalog")
    p_group.add_argument("--dim", type=int, required=True)

    p_orbit = sub.add_parser("orbit", help="orbit of a lattice point")
    p_orbit.add_argument("point", help="comma-separated integer coordinates")
    _add_seed_order(p_orbit)

    p_trace = sub.add_parser("trace", help="apply a word of operator indices")
    p_trace.add_argument("point", help="comma-separated integer coordinates")
    p_trace.add_argument("--word", required=True, help="comma-separated indices")

    p_census = sub.add_parser("census", help="orbit/point census over a region")
    _add_region_flags(p_census, required=True)
    census_mode = p_census.add_mutually_exclusive_group(required=True)
    census_mode.add_argument("--mod", type=int, default=None)
    census_mode.add_argument("--diametral", action="store_true")

    p_render = sub.add_parser("render", help="deterministic SVG renders")
    _add_region_flags(p_render, required=False)  # --point needs no region
    render_mode = p_render.add_mutually_exclusive_group(required=True)
    render_mode.add_argument("--mod", type=int, default=None)
    render_mode.add_argument("--diametral", action="store_true")
    render_mode.add_argument("--projection", action="store_true")
    render_mode.add_argument("--point", help="single-orbit seed, comma-separated")
    p_render.add_argument("--palette", help="comma-separated hex colors")
    p_render.add_argument("--scale", type=int, default=10)
    _add_seed_order(p_render)

    for p in sub.choices.values():
        p.add_argument("--out", help="output path (default: stdout)")
    return parser


_FIRST_GENERATOR = {"k1-first": 1, "k2-first": 2}


def _add_seed_order(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--seed-order",
        choices=_FIRST_GENERATOR,
        default="k1-first",
        help="traversal direction of the 2D orbit cycle",
    )


def _add_region_flags(p: argparse.ArgumentParser, required: bool) -> None:
    region = p.add_mutually_exclusive_group(required=required)
    region.add_argument("--square", type=int, default=None, metavar="M")
    region.add_argument("--sym-square", type=int, default=None, metavar="R")
    region.add_argument("--hexagon", type=int, default=None, metavar="M")
    region.add_argument("--disk", type=int, default=None, metavar="R")
    region.add_argument("--rect", default=None, metavar="X0,X1,Y0,Y1")


# A decimal integer as int() reads it; one that int() refuses is longer than
# Python's limit on the digits of an integer string.
_INTEGER = re.compile(r"\s*[-+]?\d+(_\d+)*\s*")


def _parse_point(text: str) -> tuple[int, ...]:
    return _parse_ints(text, "coordinates")


def _parse_word(text: str) -> tuple[int, ...]:
    """An all-blank text is the empty word; an empty entry is malformed."""
    return _parse_ints(text, "word") if text.strip() else ()


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    values = []
    for entry in text.split(","):
        try:
            values.append(int(entry))
        except ValueError:
            if not _INTEGER.fullmatch(entry):
                raise UsageError(f"malformed {what}: {text!r}") from None
            digits = sum(map(str.isdecimal, entry))
            raise UsageError(
                f"{what} entry starting {entry.strip()[:20]!r} has {digits} digits, which exceeds"
                f" Python's limit of {sys.get_int_max_str_digits()} for an integer string"
            ) from None
    return tuple(values)


def _region_from_args(args) -> census.Region:
    """The region of the one region flag that argparse let through."""
    if args.square is not None:
        return census.Region.square(args.square)
    if args.sym_square is not None:
        return census.Region.sym_square(args.sym_square)
    if args.hexagon is not None:
        return census.Region.hexagon(args.hexagon)
    if args.disk is not None:
        return census.Region.disk(args.disk)
    if args.rect is None:
        raise UsageError("render needs a region flag unless --point is given")
    return census.Region("rect", _parse_point(args.rect))


def _emit(output: str | Iterable[str], out_path: str | None) -> None:
    """Write ``output``, a str or an iterable of str chunks, to stdout or to
    ``out_path``, ending with a newline on both."""
    chunks = [output] if isinstance(output, str) else output
    if out_path is None:
        _write(sys.stdout, chunks)
        sys.stdout.flush()  # a failed write is an I/O error here, not at exit
        return
    if _writes_into(out_path):
        with open(out_path, "a", encoding="utf-8") as handle:
            _write(handle, chunks)
        return
    # Write a temp file beside the target and rename it over the target, so
    # a failed write leaves the previous file whole and no partial file. The
    # target is the resolved path, so a symlink keeps pointing at it.
    import tempfile
    target = os.path.realpath(out_path)
    directory, name = os.path.split(target)
    try:
        fd, tmp = tempfile.mkstemp(prefix=f".{name}.", suffix=".tmp", dir=directory)
        try:
            with open(fd, "w", encoding="utf-8") as handle:
                umask = os.umask(0)
                os.umask(umask)
                os.fchmod(fd, 0o666 & ~umask)  # the mode open() would have given
                _write(handle, chunks)
            os.replace(tmp, target)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        # the error names the path given, not the temp file
        raise OSError(exc.errno, exc.strerror, out_path) from None


def _writes_into(path: str) -> bool:
    """Whether ``path`` is to be written into, not replaced: a FIFO, device or
    other file that is not a regular file, or the file that this process's
    stdout or stderr is open on, as ``/dev/stdout`` or a ``>>`` target is."""
    try:
        info = os.stat(path)
    except OSError:
        return False
    if not stat.S_ISREG(info.st_mode):
        return True
    for fd in (1, 2):
        with contextlib.suppress(OSError):  # a closed stream
            if os.path.samestat(info, os.fstat(fd)):
                return True
    return False


def _write(handle, chunks: Iterable[str]) -> None:
    """Write the chunks one by one, then a newline unless the last chunk
    ends with one."""
    last = ""
    for last in chunks:
        handle.write(last)
    if not last.endswith("\n"):
        handle.write("\n")


def cmd_verify(args) -> tuple[int, str]:
    from aughts import verify
    suites = verify.run_all(args.max_n)
    lines = []
    for suite in suites:
        status = "PASS" if suite.passed else "FAIL"
        lines.append(f"[{status}] {suite.name}: {suite.checks} checks")
        lines += [f"       {note}" for note in suite.notes]
        if not suite.passed:
            lines.append(f"       first counterexample: {suite.counterexample}")
    failed = not all(suite.passed for suite in suites)
    total = sum(suite.checks for suite in suites)
    verdict = "some suites FAILED" if failed else "all suites passed"
    lines.append(f"{verdict} ({total} checks)")
    return int(failed), "".join(line + "\n" for line in lines)


def cmd_group(args) -> tuple[int, Iterator[str]]:
    from aughts import atlas
    # the catalog is built here, so a rejected --dim exits before any output
    return 0, atlas.catalog_chunks(atlas.catalog(args.dim))


def cmd_orbit(args) -> tuple[int, str]:
    point = _parse_point(args.point)
    if len(point) < 2:
        raise UsageError(f"orbit needs dimension >= 2, got {len(point)}")
    if len(point) == 2:
        first = _FIRST_GENERATOR[args.seed_order]
        record = orbits.orbit_record(orbits.orbit2d(point, first))
        record = {"schema_version": SCHEMA_VERSION, "kind": "orbit", **record}
    else:
        graph = orbits.reach_graph(point)
        record = {
            "schema_version": SCHEMA_VERSION,
            "kind": "reach-graph",
            "seed": list(point),
            "node_count": len(graph.nodes),
            "edge_count": len(graph.edges),
        }
    return 0, json.dumps(record, indent=2)


def cmd_trace(args) -> tuple[int, str]:
    point = _parse_point(args.point)
    word = _parse_word(args.word)
    traj = orbits.run_word(point, word)
    record = {
        "schema_version": SCHEMA_VERSION,
        "kind": "trajectory",
        **orbits.trajectory_record(traj),
    }
    return 0, json.dumps(record, indent=2)


def cmd_census(args) -> tuple[int, str]:
    region = _region_from_args(args)
    if args.mod is not None:
        if region.kind != "square_0M":
            raise UsageError("modular census is defined over --square M")
        report = census.modular_census(region.params[0], args.mod)
    else:
        report = census.diametral_report(region)
    # the text first: a count too long for str() is then a one-line rejection
    record = report.to_json_dict()
    text = json.dumps(record, indent=2)
    # the headline prints the record's own values
    if args.mod is not None:
        ratios = record["residue_ratio_of_size_sq"]
        counts = ", ".join(
            f"{r}: {c} ({ratios[r]} M^2)" for r, c in record["residue_counts"].items() if c
        )
        _note(f"orbits by length mod {args.mod}: {counts}")
    else:
        _note(f"diametral fraction: {record['diametral_fraction']}")
    return 0, text


def cmd_render(args) -> tuple[int, str]:
    from aughts import svg
    palette = svg.DEFAULT_PALETTE
    if args.palette:
        palette = tuple(c.strip() for c in args.palette.split(","))
    if args.point is not None:
        seed = _parse_point(args.point)
        region = census.Region.rect(0, 0, 0, 0)  # unused by single_orbit
        mode, modulus = "single_orbit", None
    else:
        region = _region_from_args(args)
        if args.mod is not None:
            mode, modulus = "mod_color", args.mod
        elif args.diametral:
            mode, modulus = "diametral", None
        else:
            mode, modulus = "projection", None
        seed = None
    spec = svg.RenderSpec(
        region=region,
        mode=mode,
        modulus=modulus,
        palette=palette,
        scale=args.scale,
        seed=seed,
        first_generator=_FIRST_GENERATOR[args.seed_order],
    )
    return 0, svg.render_svg(spec)


_COMMANDS = {
    "verify": cmd_verify,
    "group": cmd_group,
    "orbit": cmd_orbit,
    "trace": cmd_trace,
    "census": cmd_census,
    "render": cmd_render,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code, output = _COMMANDS[args.command](args)
        _emit(output, args.out)
        return code
    except (ValueError, OverflowError) as exc:
        code, line = 2, f"error: {exc}"
    except ResourceLimitError as exc:
        code, line = 4, f"resource limit: {exc}"
    except OSError as exc:
        code, line = 3, f"i/o error: {exc}"
    _note(line)
    return code


def _note(line: str) -> None:
    """Write one line to stderr; a line that cannot be written is dropped,
    so it never changes the exit code."""
    with contextlib.suppress(OSError):
        print(line, file=sys.stderr)


def run() -> None:
    """Exit with ``main``'s code.  A stream whose reader has gone still
    holds what it failed to write; it is pointed at the null device, so the
    flush at exit raises nothing and the code stands."""
    code = main()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except OSError:
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, stream.fileno())
            os.close(null)
    raise SystemExit(code)


if __name__ == "__main__":
    run()
