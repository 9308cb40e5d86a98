"""CLI surface: subcommands, JSON schemas, exit codes, render determinism."""

import argparse
import contextlib
import errno
import hashlib
import io
import json
import os
import resource
import stat
import subprocess
import sys
import textwrap
import time
from math import factorial
from pathlib import Path

import pytest
from brute_force import (
    bfs_reach_graph,
    catalog_chunks,
    catalog_header,
    catalog_records,
    diametral_count,
    extents,
    fitted_census,
    k_step,
    node_is_diametral,
    orbit_nodes,
    walk_length,
)
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

import aughts
from aughts.census import Region, diametral_report
from aughts.cli import build_parser, cmd_group, main
from aughts.svg import DEFAULT_PALETTE, used_fill_colors


GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-n", "2")
    assert code == 0
    assert "all suites passed" in out
    assert "[PASS]" in out


def test_verify_reports_group_facts(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-n", "3")
    assert code == 0
    assert "|M(3)| = 24" in out
    assert "{1: 1, 2: 9, 3: 8, 4: 6}" in out
    assert "isomorphic to S_4: OK" in out


def test_verify_usage_guard(capsys):
    code, _, err = run_cli(capsys, "verify", "--max-n", "9")
    assert code == 2
    assert "error" in err


def test_verify_failure_exits_1(tmp_path, capsys, monkeypatch):
    from aughts import verify as verify_mod

    def failing(n_max):
        result = verify_mod.SuiteResult("stub")
        result.fail("induced counterexample")
        return [result]

    monkeypatch.setattr(verify_mod, "run_all", failing)
    code, out, _ = run_cli(capsys, "verify", "--max-n", "2")
    assert code == 1
    assert "induced counterexample" in out
    # with --out the same report goes to the file, and the exit code stays 1
    target = tmp_path / "verify.txt"
    code, out_to_file, _ = run_cli(capsys, "verify", "--max-n", "2", "--out", str(target))
    assert (code, out_to_file) == (1, "")
    assert target.read_text() == out


def _conjugate_psi_at_3(monkeypatch):
    # psi_table with its rows conjugated at n = 3 is still a bijective
    # homomorphism, but sends K(j) to the wrong transpositions
    import numpy as np

    from aughts import atlas

    c = np.array((2, 3, 1, 4), dtype=np.int8)
    true_table = atlas.psi_table
    monkeypatch.setattr(
        atlas,
        "psi_table",
        lambda n: c[true_table(n)[:, np.argsort(c)] - 1] if n == 3 else true_table(n),
    )


def _refuse_decoding(monkeypatch):
    from aughts import verify as verify_mod
    from aughts.signed_perm import NotGroupElementError

    def refuse(m):
        raise NotGroupElementError(f"refused {m.rows()}")

    monkeypatch.setattr(verify_mod, "matrix_to_msih", refuse)


def _closed_form_leaves_unit_entries(monkeypatch):
    from aughts import intmat

    def leave(n, js):
        raise intmat.UnitEntryError(f"entry 2 in the product of {js}")

    monkeypatch.setattr(intmat, "product_closed_form", leave)


@pytest.mark.parametrize(
    "breakage, suite, counterexample",
    [
        (_conjugate_psi_at_3, "group-structure", "ConsistencyError: psi(K(1)) is not (1, 2)"),
        (_refuse_decoding, "matrix-symbol-oracle", "NotGroupElementError: refused ((1,),)"),
        (_closed_form_leaves_unit_entries, "closed-form-products",
         "UnitEntryError: entry 2 in the product of (1, 2)"),
    ],
    ids=["consistency", "decoder", "unit-entries"],
)
def test_verify_reports_a_raising_internal_check(
    capsys, monkeypatch, breakage, suite, counterexample
):
    breakage(monkeypatch)
    code, out, err = run_cli(capsys, "verify", "--max-n", "3")
    assert (code, err) == (1, "")
    assert f"[FAIL] {suite}: " in out
    assert f"       first counterexample: {counterexample}\n" in out
    assert out.count("[FAIL]") == 1
    assert out.endswith(")\n") and "some suites FAILED" in out.splitlines()[-1]


@pytest.mark.parametrize("wrong_degree", [2, 3], ids=["in-table", "outside-table"])
def test_verify_reports_a_wrong_oracle_product(capsys, monkeypatch, wrong_degree):
    # one product at n = 2 comes back as the identity: of M(2), whose matrix
    # the oracle's table holds, or of M(3), whose matrix it must encode
    from aughts import verify as verify_mod
    from aughts.signed_perm import generator, identity_element

    true_mul = verify_mod.msih_mul
    pair = (generator(2, 1), generator(2, 2))
    wrong = identity_element(wrong_degree)
    monkeypatch.setattr(
        verify_mod, "msih_mul", lambda a, b: wrong if (a, b) == pair else true_mul(a, b)
    )
    code, out, err = run_cli(capsys, "verify", "--max-n", "2")
    assert (code, err) == (1, "")
    assert "[FAIL] matrix-symbol-oracle: 56 checks\n" in out
    assert (
        "       first counterexample: oracle fails at n=2: "
        "M(sigma=[1,2];h=1;eps=1) * M(sigma=[1,2];h=2;eps=1)\n"
    ) in out
    assert out.count("[FAIL]") == 1
    assert out.endswith("some suites FAILED (2346 checks)\n")


def test_verify_oracle_fails_a_product_outside_its_table(capsys, monkeypatch):
    # a product with the pivot 2 left on an eps = 0 element, built unchecked,
    # is not a key of the oracle's table, which holds every element of
    # degree 2, so the oracle counts it as one failure
    from aughts import verify as verify_mod
    from aughts.signed_perm import Permutation, SignedPermElement, identity_element

    true_mul = verify_mod.msih_mul
    swap = SignedPermElement.of(Permutation.of((2, 1)), 1, 0)
    pair = (swap, identity_element(2))
    stray = SignedPermElement._trusted(swap.sigma, 2, 0)
    assert stray != swap
    monkeypatch.setattr(
        verify_mod, "msih_mul", lambda a, b: stray if (a, b) == pair else true_mul(a, b)
    )
    code, out, err = run_cli(capsys, "verify", "--max-n", "2")
    assert (code, err) == (1, "")
    assert "[FAIL] matrix-symbol-oracle: 56 checks\n" in out
    assert (
        "       first counterexample: oracle fails at n=2: "
        "M(sigma=[2,1];h=1;eps=0) * M(sigma=[1,2];h=1;eps=0)\n"
    ) in out
    assert out.count("[FAIL]") == 1


def test_verify_out_writes_the_stdout_bytes(tmp_path, capsys):
    target = tmp_path / "verify.txt"
    code, out, _ = run_cli(capsys, "verify", "--max-n", "3", "--out", str(target))
    assert (code, out) == (0, "")
    _, expected, _ = run_cli(capsys, "verify", "--max-n", "3")
    assert target.read_bytes() == expected.encode()


def test_verify_max_n_6_checks_the_isomorphism(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-n", "6")
    assert code == 0
    assert "|M(6)| = 5040; isomorphic to S_7: OK" in out


# a valid invocation of each subcommand, cheap enough to run many times
BASE_ARGV = {
    "verify": ["verify", "--max-n", "1"],
    "group": ["group", "--dim", "2"],
    "orbit": ["orbit", "1,0"],
    "trace": ["trace", "1,0", "--word", "1,2"],
    "census": ["census", "--square", "4", "--mod", "2"],
    "render": ["render", "--point", "1,0"],
}


def test_each_subcommand_accepts_only_the_options_it_reads():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    region = {"square", "sym_square", "hexagon", "disk", "rect"}
    accepted = {
        name: {a.dest for a in parser._actions if a.dest != "help"}
        for name, parser in sub.choices.items()
    }
    assert accepted == {
        "verify": {"max_n", "out"},
        "group": {"dim", "out"},
        "orbit": {"point", "seed_order", "out"},
        "trace": {"point", "word", "out"},
        "census": region | {"mod", "diametral", "out"},
        "render": region
        | {"mod", "diametral", "projection", "point", "palette", "scale", "seed_order", "out"},
    }
    assert sum(map(len, accepted.values())) == 31


# the census whose golden file the reuse test reads back
GOLDEN_CENSUS = ["census", "--square", "250", "--mod", "2"]
# rejections, a budget stop, help and a negative point, then one valid call
# of each subcommand
REUSE_ARGVS = [
    ["census", "--square", "5", "--disk", "5", "--diametral"],
    ["group", "--help"],
    ["census", "--square", "0", "--mod", "8"],
    ["census", "--square", "100", "--mod", "1000000000000"],
    ["orbit", "-3,4"],
    *({**BASE_ARGV, "census": GOLDEN_CENSUS}.values()),
]


def test_main_gives_the_same_result_on_every_call(capsys):
    rounds = [[run_cli(capsys, *argv) for argv in REUSE_ARGVS] for _ in range(2)]
    assert rounds[0] == rounds[1]
    assert [code for code, _, _ in rounds[0][:5]] == [2, 0, 2, 4, 0]
    assert {code for code, _, _ in rounds[0][5:]} == {0}
    assert run_cli(capsys, *REUSE_ARGVS[0])[0] == 2
    code, out, _ = run_cli(capsys, *GOLDEN_CENSUS)
    assert code == 0
    assert out == (GOLDEN / "census_square_250_mod_2.json").read_text()


def test_main_builds_no_parser_after_its_first_call(capsys, monkeypatch):
    from aughts import cli
    run_cli(capsys, *BASE_ARGV["orbit"])
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    for argv in (BASE_ARGV["orbit"], GOLDEN_CENSUS, REUSE_ARGVS[0]):
        run_cli(capsys, *argv)
    assert built == []
    assert build_parser() is build_parser()


@pytest.mark.parametrize("command", BASE_ARGV)
def test_every_subcommand_rejects_format(capsys, command):
    assert run_cli(capsys, *BASE_ARGV[command])[0] == 0
    for fmt in ("json", "svg"):
        code, out, err = run_cli(capsys, *BASE_ARGV[command], "--format", fmt)
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --format" in err


@pytest.mark.parametrize("command", BASE_ARGV)
def test_seed_order_only_where_it_is_read(capsys, command):
    code, out, err = run_cli(capsys, *BASE_ARGV[command], "--seed-order", "k2-first")
    if command in ("orbit", "render"):
        assert code == 0
    else:
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --seed-order" in err


def test_group_export(tmp_path, capsys):
    out_file = tmp_path / "catalog.json"
    code, _, _ = run_cli(capsys, "group", "--dim", "2", "--out", str(out_file))
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["schema_version"] == 1
    assert payload["order"] == 6
    distances = [e["distance"] for e in payload["elements"]]
    assert sorted(distances) == [0, 1, 1, 2, 2, 3]


def test_group_dim_3_golden_bytes(capsys):
    code, out, _ = run_cli(capsys, "group", "--dim", "3")
    assert code == 0
    assert out == (GOLDEN / "group_dim_3.json").read_text()


# sha256 of the stdout of `aughts group --dim 1..7`, `aughts verify
# --max-n 1..7` and two diametral censuses of 4 M rows, one
# "<digest>  <command>" line each
CLI_DIGESTS = [
    line.split("  ", 1) for line in (GOLDEN / "cli_stdout.sha256").read_text().splitlines()
]


@pytest.mark.parametrize("digest, command", CLI_DIGESTS, ids=[c for _, c in CLI_DIGESTS])
def test_group_and_verify_stdout_digests(capsys, digest, command):
    code, out, _ = run_cli(capsys, *command.split()[1:])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the stdout of the diametral censuses of a square, a sym-square
# and rects, the empty one and one far past the 2^31 guard, whose counts are
# closed forms
CENSUS_DIGESTS = [
    line.split("  ", 1) for line in (GOLDEN / "census_stdout.sha256").read_text().splitlines()
]


@pytest.mark.parametrize("digest, command", CENSUS_DIGESTS, ids=[c for _, c in CENSUS_DIGESTS])
def test_census_stdout_digests(capsys, digest, command):
    code, out, _ = run_cli(capsys, *command.split()[1:])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("n", range(1, 7))
def test_group_streams_the_whole_document(capsys, n):
    # joined, the chunks are the header, every record laid out field by
    # field from its dict, and the closing brackets
    code, chunks = cmd_group(argparse.Namespace(dim=n))
    assert code == 0 and "".join(chunks) == "".join(catalog_chunks(n))
    # one json.dumps of the whole catalog, built as dicts, is the oracle
    document = {**catalog_header(n), "elements": list(catalog_records(n))}
    code, out, _ = run_cli(capsys, "group", "--dim", str(n))
    assert code == 0
    assert out == json.dumps(document, indent=2) + "\n"


def _fresh_cli_max_rss(*argv):
    """(exit code, peak RSS in kB) of ``python -m aughts.cli *argv``.

    Linux carries a process's ru_maxrss across exec, so a CLI spawned from
    this test process would report at least this process's peak; a small
    runner process spawns it and reports its children's peak instead.
    """
    runner = (
        "import resource, subprocess, sys\n"
        "code = subprocess.run(sys.argv[1:]).returncode\n"
        "print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    src = os.path.dirname(os.path.dirname(aughts.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", runner, sys.executable, "-m", "aughts.cli", *argv],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    exit_code, max_rss = map(int, proc.stdout.split())
    return exit_code, max_rss


def test_group_dim_7_memory_is_bounded(tmp_path):
    # Writing the whole document at once peaked near 206 MB.
    target = tmp_path / "group7.json"
    exit_code, max_rss = _fresh_cli_max_rss("group", "--dim", "7", "--out", str(target))
    assert exit_code == 0
    assert max_rss < 100 * 1024  # kB
    # --out writes the stdout bytes
    digest = {command: d for d, command in CLI_DIGESTS}["aughts group --dim 7"]
    assert hashlib.sha256(target.read_bytes()).hexdigest() == digest


def test_verify_dim_7_memory_is_bounded(tmp_path):
    # Decoding the isomorphism witness of every n up front peaked near 62 MB.
    target = tmp_path / "verify7.txt"
    exit_code, max_rss = _fresh_cli_max_rss("verify", "--max-n", "7", "--out", str(target))
    assert exit_code == 0
    assert max_rss < 50 * 1024  # kB
    digest = {command: d for d, command in CLI_DIGESTS}["aughts verify --max-n 7"]
    assert hashlib.sha256(target.read_bytes()).hexdigest() == digest


# Commands that compute in Python ints alone, and so never import numpy.
NUMPY_FREE_COMMANDS = [
    ["orbit", "10,8,15"],
    ["trace", "3,5", "--word", "1,2"],
    ["census", "--square", "1000", "--mod", "8"],
    ["census", "--hexagon", "1999999", "--diametral"],
    ["census", "--disk", "1999999", "--diametral"],
    ["census", "--square", "1000", "--diametral"],
    ["census", "--sym-square", "1000", "--diametral"],
    ["census", "--rect", "-5,5,-5,5", "--diametral"],
]


@pytest.mark.parametrize("argv", NUMPY_FREE_COMMANDS[::2], ids=" ".join)
def test_numpy_free_command_memory_is_bounded(tmp_path, argv):
    # Importing numpy and every module up front peaked at 30 MB.
    target = tmp_path / "out.json"
    exit_code, max_rss = _fresh_cli_max_rss(*argv, "--out", str(target))
    assert exit_code == 0 and json.loads(target.read_text())
    assert max_rss < 24 * 1024  # kB


# Run in a fresh interpreter: what each step has imported, then the exit
# codes of the commands that need numpy, in the same process.
_IMPORT_PROBE = textwrap.dedent(
    """
    import contextlib, io, json, sys

    def run(argv):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cli.main(argv)

    numpy = {}
    import aughts
    numpy["import aughts"] = "numpy" in sys.modules
    from aughts import orbit2d, Region, modular_census
    numpy["from aughts import"] = "numpy" in sys.modules
    from aughts import cli
    codes = {}
    for argv in json.loads(sys.argv[1]):
        codes[" ".join(argv)] = run(argv)
        numpy[" ".join(argv)] = "numpy" in sys.modules
    tempfile = "tempfile" in sys.modules
    unresolved = [name for name in aughts.__all__ if not hasattr(aughts, name)]
    undirected = sorted(set(aughts.__all__) - set(dir(aughts)))
    for argv in (
        ["group", "--dim", "3"], ["verify", "--max-n", "2"],
        ["render", "--mod", "3", "--disk", "5"],
    ):
        codes[" ".join(argv)] = run(argv)
    print(json.dumps([numpy, tempfile, unresolved, undirected, codes]))
    """
)


def test_fresh_process_imports_numpy_only_where_used():
    # Without site (-S), whose .pth hooks may import numpy or tempfile
    # themselves; this process's sys.path stands in for it.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _IMPORT_PROBE, json.dumps(NUMPY_FREE_COMMANDS)],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    numpy, tempfile, unresolved, undirected, codes = json.loads(proc.stdout)
    assert not any(numpy.values()), numpy
    assert len(numpy) == 2 + len(NUMPY_FREE_COMMANDS)
    assert not tempfile  # no --out was given
    assert unresolved == undirected == []
    assert set(codes.values()) == {0}, codes


# Run in a fresh interpreter: the exit code of a disk census past the 2^31
# guard, whether the length stats past it raise ValueError, the repr of the
# length stats of a disk within it, and whether numpy was imported after
# each.
_REFUSAL_PROBE = textwrap.dedent(
    """
    import contextlib, io, json, sys
    from aughts import census, cli

    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(["census", "--disk", "2147483649", "--diametral"])
    numpy = ["numpy" in sys.modules]
    try:
        census.disk_length_stats(2**31 + 1)
        raised = False
    except ValueError:
        raised = True
    numpy.append("numpy" in sys.modules)
    stats = repr(census.disk_length_stats(1999999))
    numpy.append("numpy" in sys.modules)
    print(json.dumps([code, err.getvalue(), raised, stats, numpy]))
    """
)


def test_fresh_process_refuses_a_disk_past_the_2_31_guard_without_numpy():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _REFUSAL_PROBE],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    code, err, raised, stats, numpy = json.loads(proc.stdout)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert raised
    assert stats == repr(aughts.disk_length_stats(1999999))
    assert numpy == [False, False, False]


def test_package_names_follow_their_module(monkeypatch):
    # a name is looked up on its module at each use, so a rebound function
    # (a patch, a tracer's wrapper) is what the package gives, and then the
    # original again
    from aughts import census

    original = census.modular_census
    monkeypatch.setattr(census, "modular_census", len)
    assert aughts.modular_census is len
    monkeypatch.undo()
    assert aughts.modular_census is original
    assert "modular_census" not in vars(aughts)
    with pytest.raises(AttributeError):
        aughts.no_such_name


# sha256 of `aughts render --sym-square 611 --mod 7`, made by the per-cell emitter
SYM_SQUARE_611_DIGEST = "c458dba48515fcffc571a2a3a884a37cdbe93dc3558e8c29fa180fa7b7e04148"


def test_render_at_pixel_budget_memory_is_bounded(tmp_path):
    # 1,495,729 cells, just under PIXEL_BUDGET, and 96 MB of SVG; one string
    # per cell peaked near 394 MB, one string per scan block near 216 MB
    target = tmp_path / "render.svg"
    argv = ("render", "--sym-square", "611", "--mod", "7", "--out", str(target))
    exit_code, max_rss = _fresh_cli_max_rss(*argv)
    assert exit_code == 0
    assert max_rss < 300 * 1024  # kB
    assert hashlib.sha256(target.read_bytes()).hexdigest() == SYM_SQUARE_611_DIGEST


def test_orbit_2d_json(capsys):
    code, out, _ = run_cli(capsys, "orbit", "1,0")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "orbit"
    assert payload["semi_perimeter"] == 4
    assert payload["box_side"] == 2
    diametral_nodes = {
        tuple(node)
        for node, flag in zip(payload["nodes"], payload["diametral"])
        if flag
    }
    assert diametral_nodes == {(-1, -1), (1, 1)}


def test_orbit_3d_counts(capsys):
    code, out, _ = run_cli(capsys, "orbit", "10,8,15")
    assert code == 0
    payload = json.loads(out)
    assert (payload["node_count"], payload["edge_count"]) == (24, 36)


def test_orbit_origin_single_node(capsys):
    code, out, _ = run_cli(capsys, "orbit", "0,0")
    assert code == 0
    payload = json.loads(out)
    assert payload["nodes"] == [[0, 0]]
    assert payload["length"] == 0


def test_orbit_seed_order_flag(capsys):
    _, out1, _ = run_cli(capsys, "orbit", "2,3")
    _, out2, _ = run_cli(capsys, "orbit", "2,3", "--seed-order", "k2-first")
    nodes1 = json.loads(out1)["nodes"]
    nodes2 = json.loads(out2)["nodes"]
    assert nodes2 == [nodes1[0]] + nodes1[1:][::-1]


def test_orbit_usage_errors(capsys):
    assert run_cli(capsys, "orbit", "5")[0] == 2
    assert run_cli(capsys, "orbit", "1,2,3,4,5,6,7")[0] == 2
    assert run_cli(capsys, "orbit", "1,x")[0] == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["census", "--rect=1,2,3", "--diametral"], "a rect region takes 4 params, got 3"),
        (["render", "--point=1,2,3"], "expected a 2D point, got dimension 3"),
        (["orbit", "1,2,3,4,5,6,7"], "reachability exploration is limited to dimension <= 6"),
    ],
    ids=["rect", "point", "orbit"],
)
def test_library_refusals_exit_2_with_one_line(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


def test_trace_word(capsys):
    code, out, _ = run_cli(capsys, "trace", "3,5", "--word", "1,2,1,2,1,2")
    assert code == 0
    payload = json.loads(out)
    assert payload["closed"] is True
    assert len(payload["path"]) == 7
    assert run_cli(capsys, "trace", "3,5", "--word", "1,7")[0] == 2


def test_orbit_and_trace_nodes_beyond_the_guard(capsys):
    # the orbit layer has no size guard; nodes reach -4294967299 and
    # 4294967295 from starts within 2^31, and any size from starts beyond it
    code, out, err = run_cli(capsys, "orbit", "2147483647,-2147483647,5")
    assert code == 0, err
    payload = json.loads(out)
    nodes, edges = bfs_reach_graph((2147483647, -2147483647, 5))
    assert (payload["node_count"], payload["edge_count"]) == (len(nodes), len(edges)) == (12, 15)
    code, out, err = run_cli(capsys, "trace", "2147483647,-2147483647,1", "--word", "2,1")
    assert code == 0, err
    path = [(2147483647, -2147483647, 1)]
    for j in (2, 1):
        path.append(k_step(path[-1], j))
    assert [tuple(p) for p in json.loads(out)["path"]] == path

    seed = (3000000000, 1)
    nodes = orbit_nodes(seed)
    code, out, err = run_cli(capsys, "orbit", "3000000000,1")
    assert code == 0, err
    record = json.loads(out)
    assert {tuple(p) for p in record["nodes"]} == nodes and len(record["nodes"]) == 6
    assert 2 * record["semi_perimeter"] == walk_length(seed) == 2 * 11999999998
    code, out, err = run_cli(capsys, "orbit", "3000000000,-7,5")
    assert code == 0, err
    nodes3, edges3 = bfs_reach_graph((3000000000, -7, 5))
    record = json.loads(out)
    assert (record["node_count"], record["edge_count"]) == (len(nodes3), len(edges3)) == (24, 36)
    code, out, err = run_cli(capsys, "trace", "3000000000,1", "--word", "1,2")
    assert code == 0, err
    path = [seed, k_step(seed, 1), k_step(k_step(seed, 1), 2)]
    assert [tuple(p) for p in json.loads(out)["path"]] == path
    # one marker per node, at (x - xmin, ymax - y) * scale + 2 * scale
    code, out, err = run_cli(capsys, "render", "--point", "3000000000,1")
    assert code == 0, err
    xmin = min(x for x, _ in nodes)
    ymax = max(y for _, y in nodes)
    markers = {f'<circle cx="{(x - xmin) * 10 + 20}" cy="{(ymax - y) * 10 + 20}"' for x, y in nodes}
    assert {line.split(" r=")[0] for line in out.splitlines() if "<circle" in line} == markers


def _refused_with_one_line(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return (code, out) == (2, "") and err.startswith("error: ") and err.count("\n") == 1


def test_word_refuses_an_empty_entry(capsys):
    # 1,,2 ran the word (1, 2), while the point 1,,2 was refused
    for word in ("1,,2", "1,2,", ","):
        assert _refused_with_one_line(capsys, "trace", "3,5", "--word", word), word
    assert _refused_with_one_line(capsys, "orbit", "1,,2")
    # an all-blank word is the empty word
    for word in ("", " "):
        code, out, _ = run_cli(capsys, "trace", "3,5", "--word", word)
        assert code == 0 and json.loads(out)["path"] == [[3, 5]]


def test_palette_refuses_an_empty_entry(capsys):
    # #f00,,#00f rendered with two colors
    for palette in ("#f00,,#00f", "#f00,#00f,"):
        argv = ["render", "--square", "2", "--mod", "2", "--palette", palette]
        assert _refused_with_one_line(capsys, *argv), palette
    # an empty palette is the default one
    default = run_cli(capsys, "render", "--square", "2", "--mod", "2")
    assert run_cli(capsys, "render", "--square", "2", "--mod", "2", "--palette", "") == default


def test_census_modular(tmp_path, capsys):
    out_file = tmp_path / "census.json"
    code, _, err = run_cli(
        capsys, "census", "--square", "120", "--mod", "4", "--out", str(out_file)
    )
    assert code == 0
    assert "orbits by length mod 4" in err
    payload = json.loads(out_file.read_text())
    assert payload["basis"] == "orbits"
    assert payload["residue_counts"]["0"] == payload["total_orbits"]


def test_census_diametral(capsys):
    code, out, err = run_cli(capsys, "census", "--disk", "150", "--diametral")
    assert code == 0
    assert "diametral fraction" in err
    payload = json.loads(out)
    assert 0.18 < payload["diametral_fraction"] < 0.23


REGION_FLAGS = [
    (("--square", "7"), Region.square(7)),
    (("--sym-square", "5"), Region.sym_square(5)),
    (("--hexagon", "6"), Region.hexagon(6)),
    (("--disk", "9"), Region.disk(9)),
    (("--rect=-3,4,-2,5",), Region.rect(-3, 4, -2, 5)),
]


@pytest.mark.parametrize("flag, region", REGION_FLAGS, ids=[" ".join(f) for f, _ in REGION_FLAGS])
def test_census_region_flag_names_its_own_region(capsys, flag, region):
    code, out, _ = run_cli(capsys, "census", *flag, "--diametral")
    assert code == 0
    assert out == json.dumps(diametral_report(region).to_json_dict(), indent=2) + "\n"


@pytest.mark.parametrize(
    "m, d, line",
    [
        # 220891 / 1992^2 = 0.0556671969000499...
        (1992, 9, '"3": 0.0556671969,'),
        # 91164 / 1280^2 = 0.05564208984375, a tie, rounded to even
        (1280, 9, '"2": 0.0556420898438,'),
        (1280, 9, '"5": 0.0556420898438,'),
        (3200, 9, '"2": 0.0555903320312,'),
        # sqrt(2) 16676598114 / 4675682 = 5044.028064154999...
        (3057, 2, '"diameter": 5044.02806415,'),
    ],
)
def test_census_prints_each_ratio_rounded_once(capsys, m, d, line):
    code, out, _ = run_cli(capsys, "census", "--square", str(m), "--mod", str(d))
    assert code == 0
    assert f"\n    {line}\n" in out


def test_census_headline_prints_the_record(capsys):
    code, out, err = run_cli(capsys, "census", "--square", "1992", "--mod", "9")
    assert code == 0
    assert "3: 220891 (0.0556671969 M^2), 4: 220449 (" in err
    record = json.loads(out)
    ratios = record["residue_ratio_of_size_sq"]
    counts = ", ".join(f"{r}: {c} ({ratios[r]} M^2)" for r, c in record["residue_counts"].items())
    assert err == f"orbits by length mod 9: {counts}\n"
    code, out, err = run_cli(capsys, "census", "--hexagon", "1", "--diametral")
    assert (code, err) == (0, "diametral fraction: 0.285714285714\n")
    assert json.loads(out)["diametral_fraction"] == 0.285714285714


def test_census_mod_past_a_double_average_exits_2():
    # the average perimeter, about 14M/3, passes the largest double just
    # past the largest M that answers, where it rounds to 1.79769313486e+308
    largest = int("38521995747107" + "142857" * 49)
    proc = run_cli_process("census", "--square", str(largest), "--mod", "8")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["averages"]["perimeter"] == 1.79769313486e308
    for m in (largest + 1, 4 * 10**307):
        proc = run_cli_process("census", "--square", str(m), "--mod", "8")
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (
            "error: the average perimeter, about 14M/3, exceeds the largest double;"
            " M up to about 3.8522e307 answers\n"
        )


@pytest.mark.parametrize(
    "argv, same",
    [
        (["orbit", "-3,4"], ["orbit", "--", "-3,4"]),
        (["trace", "-3,4", "--word", "1"], ["trace", "--word", "1", "--", "-3,4"]),
        (["render", "--point", "-3,4"], ["render", "--point=-3,4"]),
        (["census", "--rect", "-5,5,-5,5", "--diametral"], ["census", "--rect=-5,5,-5,5", "--diametral"]),
    ],
    ids=["orbit", "trace", "render", "census"],
)
def test_comma_lists_may_start_with_minus(capsys, argv, same):
    result = run_cli(capsys, *argv)
    assert result[0] == 0, result
    assert result == run_cli(capsys, *same)


def test_minus_lists_keep_help_and_rejections(capsys):
    code, out, err = run_cli(capsys, "orbit", "-h")
    assert (code, err) == (0, "") and out.startswith("usage: aughts orbit")
    for argv in (["orbit", "-x"], ["orbit", "-3"], ["orbit", "-3,x"], ["orbit", "-1,,2"],
                 ["census", "--rect", "-5,5,-5", "--diametral"]):
        assert _refused_with_one_line(capsys, *argv), argv


def test_census_diametral_near_2_31(capsys):
    code, out, _ = run_cli(
        capsys, "census", "--rect=2147483348,2147483349,2147483348,2147483548", "--diametral"
    )
    assert code == 0
    payload = json.loads(out)
    assert (payload["total_points"], payload["diametral_points"]) == (402, 402)
    assert payload["diametral_fraction"] == 1.0


def run_cli_process(*argv, timeout=60, **kwargs):
    src = os.path.dirname(os.path.dirname(aughts.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, "-m", "aughts.cli", *argv],
        capture_output=True, text=True, env=env, timeout=timeout, **kwargs,
    )


def _closed_pipe_env(buffered):
    # without PYTHONUNBUFFERED, as in most shells, stdout holds short output
    # in its buffer until it is flushed
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(aughts.__file__))
    return env


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv, code",
    [
        (("verify", "--max-n", "2"), 3),
        (("group", "--dim", "99"), 2),
        (("census", "--square", "5", "--disk", "5"), 2),
        (("census", "--square", "100", "--mod", "1000000000000"), 4),
    ],
    ids=["verify", "group-dim", "parser", "modulus-limit"],
)
def test_exit_code_stands_when_stderr_is_closed(argv, code, buffered):
    # stdout and stderr share a pipe whose reader closes at once, so neither
    # the output nor the error line can be written
    proc = subprocess.Popen(
        [sys.executable, "-m", "aughts.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        env=_closed_pipe_env(buffered),
    )
    proc.stdout.close()
    assert proc.wait(timeout=60) == code


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_census_headline_on_a_closed_stderr_keeps_the_output(buffered):
    # only stderr's reader has gone: the headline is dropped, the JSON is not
    proc = subprocess.Popen(
        [sys.executable, "-m", "aughts.cli", "census", "--disk", "50", "--diametral"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=_closed_pipe_env(buffered),
    )
    proc.stderr.close()
    out = proc.communicate(timeout=60)[0]
    assert proc.returncode == 0
    payload = json.loads(out)
    expected = diametral_count(Region.disk(50))
    assert (payload["total_points"], payload["diametral_points"]) == expected


def _limit_file_size():
    # writes past 4 kB fail with EFBIG (Python ignores SIGXFSZ)
    resource.setrlimit(resource.RLIMIT_FSIZE, (4096, 4096))


def test_failed_out_write_keeps_previous_file(tmp_path):
    target = tmp_path / "render.svg"
    target.write_bytes(b"previous\n")
    proc = run_cli_process(
        "render", "--mod", "6", "--sym-square", "20", "--out", str(target),
        preexec_fn=_limit_file_size,
    )
    assert proc.returncode == 3
    assert proc.stderr.startswith("i/o error: ") and proc.stderr.count("\n") == 1
    assert target.read_bytes() == b"previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["render.svg"]
    # without the limit the same render replaces the file
    proc = run_cli_process("render", "--mod", "6", "--sym-square", "20", "--out", str(target))
    assert proc.returncode == 0
    assert target.read_bytes().startswith(b"<?xml")
    assert [p.name for p in tmp_path.iterdir()] == ["render.svg"]


def test_failed_group_out_write_keeps_previous_file(tmp_path):
    # the write fails part way through the stream of records
    target = tmp_path / "group.json"
    target.write_bytes(b"previous\n")
    proc = run_cli_process(
        "group", "--dim", "6", "--out", str(target), preexec_fn=_limit_file_size
    )
    assert proc.returncode == 3
    assert proc.stderr.startswith("i/o error: ") and proc.stderr.count("\n") == 1
    assert target.read_bytes() == b"previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["group.json"]


def test_failed_out_names_the_given_path(tmp_path, capsys):
    # the temp file beside the target, .x.json.<random>.tmp, is never named
    target = str(tmp_path / "missing" / "x.json")
    code, out, err = run_cli(capsys, "group", "--dim", "2", "--out", target)
    assert (code, out) == (3, "")
    assert err == f"i/o error: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: {target!r}\n"
    # a write that fails part way names it too
    target = str(tmp_path / "group.json")
    proc = run_cli_process(
        "group", "--dim", "6", "--out", target, preexec_fn=_limit_file_size
    )
    assert proc.returncode == 3
    assert proc.stderr == f"i/o error: [Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}: {target!r}\n"


def test_out_writes_into_a_fifo_without_replacing_it(tmp_path, capsys):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    # the read end is open before the CLI opens the write end, so neither blocks
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        code, out, _ = run_cli(capsys, "orbit", "1,0", "--out", str(fifo))
        data = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    assert (code, out) == (0, "")
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert data == run_cli(capsys, "orbit", "1,0")[1].encode()
    assert [p.name for p in tmp_path.iterdir()] == ["fifo"]


def test_out_through_a_symlink_replaces_its_target(tmp_path, capsys):
    target = tmp_path / "orbit.json"
    target.write_text("previous\n")
    link = tmp_path / "link.json"
    link.symlink_to(target)
    code, out, _ = run_cli(capsys, "orbit", "1,0", "--out", str(link))
    assert (code, out) == (0, "")
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == run_cli(capsys, "orbit", "1,0")[1].encode()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "orbit.json"]


@pytest.mark.parametrize("stream", ["stdout", "stderr"])
@pytest.mark.parametrize("into", ["pipe", "appended-file"])
def test_out_to_its_own_stdout_or_stderr_writes_into_it(tmp_path, stream, into):
    # /dev/stdout links to /proc/self/fd/1, whose target for a pipe,
    # pipe:[N], is no path to replace; a file opened with >> keeps its
    # earlier lines
    want = run_cli_process("orbit", "1,2").stdout
    log = tmp_path / "log.txt"
    log.write_text("earlier\n")
    other = "stderr" if stream == "stdout" else "stdout"
    with open(log, "a") as appended:
        proc = subprocess.run(
            [sys.executable, "-m", "aughts.cli", "orbit", "1,2", "--out", f"/dev/{stream}"],
            text=True, env=_closed_pipe_env(buffered=True), timeout=60,
            **{stream: subprocess.PIPE if into == "pipe" else appended, other: subprocess.PIPE},
        )
    assert (proc.returncode, getattr(proc, other)) == (0, "")
    if into == "pipe":
        assert getattr(proc, stream) == want
    else:
        assert log.read_text() == "earlier\n" + want
    assert [p.name for p in tmp_path.iterdir()] == ["log.txt"]


def test_census_mod_beyond_2_31_is_exact():
    # the census has no size cap: at M = 2^31 + 1 it gives the counts of the
    # anti-diagonal oracle, fitted per class of M mod 4
    m = 2**31 + 1
    proc = run_cli_process("census", "--square", str(m), "--mod", "8")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    residues, count, length = fitted_census(m, 8, 4)
    assert payload["total_points"] == (m + 1) ** 2
    assert payload["total_orbits"] == count
    assert payload["residue_counts"] == {str(r): n for r, n in enumerate(residues)}
    assert payload["sums"]["perimeter"] == length


def test_census_mod_beyond_a_double_sum_exits_0():
    # the length sum at M = 10^110 exceeds a double; the averages do not
    m = 10**110
    proc = run_cli_process("census", "--square", str(m), "--mod", "8")
    assert proc.returncode == 0, proc.stderr
    averages = json.loads(proc.stdout)["averages"]
    assert averages["diameter"] == pytest.approx(7 * 2**0.5 / 6 * m, rel=1e-9)
    assert averages["box_side"] == pytest.approx(7 / 6 * m, rel=1e-9)


def test_census_square_zero_exits_2():
    proc = run_cli_process("census", "--square", "0", "--mod", "8")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert proc.stdout == ""


def test_census_mod_two_million_is_exact():
    # values from the anti-diagonal oracle in test_census; the length sum
    # exceeds 2^63
    proc = run_cli_process("census", "--square", "2000000", "--mod", "8")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["total_points"] == 2000001**2
    assert payload["total_orbits"] == 2000002000001
    assert payload["residue_counts"] == {
        "0": 1000001000001, "1": 0, "2": 0, "3": 0,
        "4": 1000001000000, "5": 0, "6": 0, "7": 0,
    }
    assert payload["sums"] == {
        "diam_multiplier": 4666671666669000000,
        "perimeter": 18666686666676000000,
        "box_side": 4666671666669000000,
    }


def test_census_diametral_past_the_guard_exits_2():
    start = time.monotonic()
    proc = run_cli_process("census", "--disk", "1099511627776", "--diametral", timeout=30)
    assert proc.returncode == 2
    assert time.monotonic() - start < 10
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert proc.stdout == ""


def test_census_diametral_far_rect_is_exact():
    # 2^40 rows each way, counted in closed form; the cone holds half of
    # [0, s]^2 and s more points
    proc = run_cli_process("census", "--rect=0,1099511627776,0,1099511627776", "--diametral")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["total_points"] == (2**40 + 1) ** 2
    assert payload["diametral_points"] == 2**79 + 2**40
    assert payload["diametral_fraction"] == 0.5


def test_census_count_too_long_to_print_exits_2():
    # 4300 digits parse, but the count of 8600 digits cannot become a str;
    # the rejection is the only stderr line, with no headline before it
    proc = run_cli_process("census", "--square", "9" * 4300, "--diametral")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert proc.stdout == ""


def test_census_mod_beyond_modulus_limit_exits_4():
    start = time.monotonic()
    proc = run_cli_process("census", "--square", "100", "--mod", "1000000000000", timeout=30)
    assert proc.returncode == 4
    assert time.monotonic() - start < 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("resource limit: ") and proc.stderr.count("\n") == 1
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "argv",
    [
        # 2x wraps int64 at 2^62, which once painted every cell non-diametral
        ["render", "--rect=4611686018427387904,4611686018427387907,"
         "4611686018427387903,4611686018427387907", "--diametral", "--scale", "1"],
        # range checks the library makes, not the CLI
        ["group", "--dim", "99"],
        ["group", "--dim", "8"],
        ["census", "--square", "100", "--mod", "1"],
        # the catalog's bound, checked by atlas alone, as for group --dim 8
        ["verify", "--max-n", "8"],
    ],
    ids=["render-2^62", "group-dim", "group-dim-8", "census-mod-1", "verify-max-n-8"],
)
def test_library_value_errors_exit_2(argv):
    proc = run_cli_process(*argv)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert proc.stdout == ""
    if argv[0] == "verify":
        assert proc.stderr == run_cli_process("group", "--dim", "8").stderr


def test_render_projection_at_2_31_corner(capsys):
    # x^2 + y^2 reaches 2^63 here, past the int64 range
    code, out, _ = run_cli(
        capsys, "render", "--rect=2147483647,2147483648,2147483647,2147483648", "--projection"
    )
    assert code == 0
    assert "nan" not in out
    # every point lies on the diagonal, at 45 degrees
    assert out.count('<circle cx="395.563" cy="84.437" r="2" fill="#d62728"/>') == 4


@pytest.mark.parametrize("m, d", [(250, 2), (1000, 16), (2000, 9), (4000, 8)])
def test_census_mod_golden_bytes(capsys, m, d):
    code, out, _ = run_cli(capsys, "census", "--square", str(m), "--mod", str(d))
    assert code == 0
    assert out == (GOLDEN / f"census_square_{m}_mod_{d}.json").read_text()


def test_census_usage_errors(capsys):
    assert run_cli(capsys, "census", "--square", "0", "--mod", "4")[0] == 2
    assert run_cli(capsys, "census", "--square", "100")[0] == 2
    assert run_cli(capsys, "census", "--square", "100", "--mod", "4", "--diametral")[0] == 2
    assert run_cli(capsys, "census", "--mod", "4")[0] == 2
    assert run_cli(capsys, "census", "--square", "100", "--disk", "100", "--mod", "4")[0] == 2


def test_census_io_error(capsys):
    code, _, err = run_cli(
        capsys,
        "census", "--square", "100", "--mod", "4",
        "--out", "/nonexistent-dir/census.json",
    )
    assert code == 3
    assert "i/o error" in err


def test_render_determinism(tmp_path, capsys):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    assert run_cli(capsys, "render", "--mod", "6", "--sym-square", "8", "--out", str(a))[0] == 0
    assert run_cli(capsys, "render", "--mod", "6", "--sym-square", "8", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()
    colors = used_fill_colors(a.read_text())
    assert colors == {DEFAULT_PALETTE[0], DEFAULT_PALETTE[2], DEFAULT_PALETTE[4]}


@pytest.mark.parametrize(
    "name, argv",
    [
        ("render_mod_6_sym_square_8", ["--mod", "6", "--sym-square", "8"]),
        ("render_diametral_disk_12", ["--diametral", "--disk", "12"]),
        ("render_projection_hexagon_10", ["--projection", "--hexagon", "10"]),
        ("render_mod_5_rect_m7_9_3_20", ["--mod", "5", "--rect=-7,9,3,20"]),
    ],
)
def test_render_golden_bytes(tmp_path, capsys, name, argv):
    out = tmp_path / "r.svg"
    assert run_cli(capsys, "render", *argv, "--scale", "1", "--out", str(out))[0] == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.svg").read_bytes()


# sha256 of the stdout of renders that span many scan blocks, with rows split
# across blocks: the three scanned modes, #RGB and #RRGGBB palettes, scales
# 1, 2, 10, 2^63 and 10^20, rects at the 2^31 corners and a column of
# 1.5 M rows; then the shapes whose blocks join differently, pinned apart:
# a 1.5 M-cell column and row of --mod 19, whose one-column and one-row
# blocks are joined when made, a 1.5 M-point projection column and a
# hexagon's projection at scale 3
RENDER_DIGESTS = [
    line.split("  ", 1)
    for name in ("render_stdout.sha256", "render_shapes_stdout.sha256")
    for line in (GOLDEN / name).read_text().splitlines()
]


@pytest.mark.parametrize("digest, command", RENDER_DIGESTS, ids=[c for _, c in RENDER_DIGESTS])
def test_render_stdout_digests(capsys, digest, command):
    code, out, _ = run_cli(capsys, *command.split()[1:])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the stdout of `aughts orbit`, `aughts trace` and `aughts render
# --point`: aughts of one to six nodes, both seed orders, seeds at and past
# 2^31, orbits in 3 and 4 dimensions and the Hamiltonian word of a 3D orbit
ORBIT_DIGESTS = [
    line.split("  ", 1) for line in (GOLDEN / "orbit_stdout.sha256").read_text().splitlines()
]


@pytest.mark.parametrize("digest, command", ORBIT_DIGESTS, ids=[c for _, c in ORBIT_DIGESTS])
def test_orbit_stdout_digests(capsys, digest, command):
    code, out, _ = run_cli(capsys, *command.split()[1:])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_render_empty_rect_writes_sides_of_0(capsys):
    code, out, _ = run_cli(capsys, "render", "--rect=5,0,0,3", "--diametral")
    assert code == 0
    assert out.splitlines()[1:] == [
        '<svg xmlns="http://www.w3.org/2000/svg" width="0" height="40" viewBox="0 0 0 40">',
        "</svg>",
    ]


def test_render_diametral_and_projection(tmp_path, capsys):
    out = tmp_path / "d.svg"
    assert run_cli(capsys, "render", "--diametral", "--sym-square", "10", "--out", str(out))[0] == 0
    text = out.read_text()
    assert text.startswith("<?xml")
    assert "#d62728" in text and "#1f77b4" in text
    assert run_cli(capsys, "render", "--projection", "--square", "12", "--out", str(out))[0] == 0
    assert "<circle" in out.read_text()


def test_render_single_orbit(tmp_path, capsys):
    out = tmp_path / "o.svg"
    assert run_cli(capsys, "render", "--point", "10,0", "--out", str(out))[0] == 0
    text = out.read_text()
    assert text.count("<circle") == 6  # one marker per orbit node
    assert "<path" in text


def test_render_resource_budget(capsys):
    code, _, err = run_cli(capsys, "render", "--mod", "6", "--sym-square", "5000")
    assert code == 4
    assert "resource" in err


def test_render_usage_errors(capsys):
    assert run_cli(capsys, "render", "--sym-square", "8")[0] == 2
    assert run_cli(capsys, "render", "--mod", "25", "--sym-square", "8")[0] == 2
    assert run_cli(capsys, "render", "--mod", "6", "--diametral", "--sym-square", "8")[0] == 2
    assert run_cli(capsys, "render", "--mod", "6")[0] == 2
    # --point ignores one region flag, but two are rejected as in every mode
    assert run_cli(capsys, "render", "--point", "1,2", "--square", "3")[0] == 0
    assert run_cli(capsys, "render", "--point", "1,2", "--square", "3", "--disk", "4")[0] == 2


@pytest.mark.parametrize(
    "region", [["--rect", "x,y"], ["--rect", "1,,2,3"], ["--rect", "1,2,3"],
               ["--disk", "0"], ["--hexagon", "-1"]],
    ids=["rect-malformed", "rect-empty-entry", "rect-three-params", "disk-0", "hexagon--1"],
)
def test_render_point_checks_its_region_flag(capsys, region):
    # the region flag is not drawn with --point, but it is checked as in every mode
    code, out, err = run_cli(capsys, "render", "--point", "1,2", *region)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int-string limit on this Python"
)
@pytest.mark.parametrize(
    "argv",
    [
        ["orbit", "{n},2"],
        ["trace", "3,5", "--word", "1,{n}"],
        ["render", "--point", "-{n},1"],
        ["census", "--rect", "1,2,3,{n}", "--diametral"],
    ],
    ids=["orbit", "word", "render-point", "rect"],
)
def test_integer_past_the_int_string_limit_names_the_limit(capsys, argv):
    # a valid integer that int() refuses only for its length is not called
    # malformed, and the line echoes no more than a short prefix of it
    limit = sys.get_int_max_str_digits()
    digits = "7" * (limit + 100)
    code, out, err = run_cli(capsys, *(arg.replace("{n}", digits) for arg in argv))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert f"has {limit + 100} digits" in err and f"limit of {limit} " in err, err
    assert "malformed" not in err and len(err) < 200, err
    # a malformed entry, of any length, keeps its line
    assert run_cli(capsys, "orbit", "1,x") == (2, "", "error: malformed coordinates: '1,x'\n")
    assert run_cli(capsys, "trace", "1,2", "--word", "1,a") == (
        2, "", "error: malformed word: '1,a'\n"
    )
    assert "malformed coordinates" in run_cli(capsys, "orbit", digits + "x,2")[2]


def test_render_custom_palette(tmp_path, capsys):
    out = tmp_path / "p.svg"
    palette = ",".join(f"#0000{i:02x}" for i in range(8))
    code, _, _ = run_cli(
        capsys,
        "render", "--mod", "8", "--sym-square", "6",
        "--palette", palette, "--out", str(out),
    )
    assert code == 0
    assert used_fill_colors(out.read_text()) <= {f"#0000{i:02x}" for i in range(8)}


@pytest.mark.parametrize("palette", ['"/><script>x</script><x a=",#000', "red,#000", "#12,#000", "#0000000,#000"])
def test_render_rejects_non_hex_palette(capsys, palette):
    code, out, err = run_cli(capsys, "render", "--square", "2", "--mod", "2", "--palette", palette)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("refused", [["--palette", "#zz"], ["--scale", "0"]])
@pytest.mark.parametrize(
    "mode",
    [["--mod", "3", "--square", "3"], ["--diametral", "--square", "3"],
     ["--projection", "--square", "3"], ["--point", "1,2"]],
)
def test_render_checks_every_option_whatever_the_mode(capsys, mode, refused):
    # a palette colors --mod alone and a scale does not size the projection,
    # yet every mode refuses a bad one
    code, out, err = run_cli(capsys, "render", *mode, *refused)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_unknown_command_exits_2(capsys):
    # argparse exits through SystemExit; main converts it to the return code
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["frobnicate"],
        ["group"],
        ["group", "--dim", "x"],
        ["group", "--dim", "2", "--format", "json"],
        ["orbit", "1,0", "--seed-order", "k3-first"],
        ["census", "--square", "5", "--disk", "5", "--diametral"],
        ["census", "--square", "5"],
        ["render", "--mod", "6", "--projection", "--square", "5"],
    ],
    ids=[
        "no-command", "unknown-command", "no-dim", "dim-x", "format", "seed-order",
        "two-regions", "no-census-mode", "two-render-modes",
    ],
)
def test_argparse_rejections_write_one_error_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_help_keeps_its_text_and_exit_0(capsys):
    code, out, err = run_cli(capsys, "group", "--help")
    assert (code, err) == (0, "")
    assert out.startswith("usage: aughts group [-h] --dim DIM [--out OUT]\n")
    assert "--dim DIM" in out.split("options:", 1)[1]


# -- fuzzing main(argv) ---------------------------------------------------------

# integers near the census's 2^31 region guard and the int64 edge 2^63, or small
_edge = st.sampled_from([2**31, 2**62, 2**63]).flatmap(
    lambda v: st.tuples(st.integers(v - 3, v + 3), st.sampled_from([1, -1]))
).map(lambda t: t[0] * t[1])
_ints = st.one_of(st.integers(-40, 40), st.integers(-(2**31), 2**31), _edge)
_bad_text = st.sampled_from(["", "a,b", "1,,2", "1.5,2", "1;2", "0x10,3", ","])


def _csv(values):
    return ",".join(str(v) for v in values)


# multiples of points on the cone's edges y = 2x and y = x/2, inside it, and
# on the line y = -x where orbits have three nodes
_cone_edge = st.tuples(
    st.integers(-(2**30), 2**30), st.sampled_from([(1, 2), (2, 1), (2, 3), (1, -1)])
).map(lambda t: _csv((t[0] * t[1][0], t[0] * t[1][1])))
_point_text = st.one_of(
    st.lists(_ints, min_size=2, max_size=2).map(_csv),
    _cone_edge,
    st.lists(st.integers(-30, 30), min_size=1, max_size=7).map(_csv),
    st.lists(_ints, min_size=3, max_size=4).map(_csv),
    _bad_text,
)


@st.composite
def _region_args(draw, max_size):
    kind = draw(st.sampled_from(["square", "sym-square", "hexagon", "disk", "rect", "rect", "two"]))
    if kind == "two":
        return ["--square", "5", "--disk", "5"]
    if kind != "rect":
        size = draw(st.one_of(st.integers(-3, max_size), _edge))
        return [f"--{kind}", str(size)]
    if draw(st.booleans()):
        # each side is under 100 or beyond the cell limits, so no draw runs
        # long; a census counts any rect in closed form
        corner = st.one_of(st.integers(-40, 40), _edge)
        corners = draw(st.lists(corner, min_size=4, max_size=4))
        return [f"--rect={_csv(corners)}"]
    return _small_rect(draw)


def _small_rect(draw):
    """At most 15 x 15 points anywhere, often near the guards."""
    x0, y0 = draw(_ints), draw(_ints)
    w, h = draw(st.integers(-2, 14)), draw(st.integers(-2, 14))
    return [f"--rect={_csv([x0, x0 + w, y0, y0 + h])}"]


_palette = st.one_of(
    st.lists(st.sampled_from(DEFAULT_PALETTE), min_size=1, max_size=20).map(_csv),
    st.sampled_from(["", ",", "red,,blue", "#12", "#zzzzzz"]),
)


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(
        ["orbit"] * 6 + ["trace"] * 3 + ["census"] * 4 + ["render"] * 4 + ["group", "verify"]
    ))
    argv = [command]
    if command == "orbit":
        argv += ["--seed-order", draw(st.sampled_from(["k1-first", "k2-first"]))]
        argv += ["--", draw(_point_text)]
    elif command == "trace":
        # indices 1 and 2 exist in every drawn point of dimension 2 or more
        word = draw(st.one_of(
            st.lists(st.integers(-1, 8), max_size=8).map(_csv),
            st.lists(st.integers(1, 2), max_size=8).map(_csv),
            _bad_text,
        ))
        argv += [f"--word={word}", "--", draw(_point_text)]
    elif command == "census" and draw(st.booleans()):
        # sizes the brute-force oracle can check
        kind = draw(st.sampled_from(["square", "sym-square", "hexagon", "disk"] + ["rect"] * 4))
        if kind == "rect":
            argv += _small_rect(draw)
        else:
            argv += [f"--{kind}", str(draw(st.integers(1, 15)))]
        argv.append("--diametral")
    elif command == "census":
        argv += draw(_region_args(300))
        argv += draw(st.one_of(
            st.just(["--diametral"]),
            st.one_of(st.integers(-2, 20), st.just(2**16 + 1), _edge).map(lambda d: ["--mod", str(d)]),
            st.just([]),
        ))
    elif command == "render":
        argv += draw(_region_args(25))
        argv += draw(st.sampled_from([
            ["--diametral"], ["--projection"], ["--mod", "6"], ["--mod", "1"], ["--mod", "30"],
        ]))
        if draw(st.booleans()):
            argv = [command, f"--point={draw(_point_text)}"]
        if draw(st.booleans()):
            argv.append(f"--palette={draw(_palette)}")
        argv += ["--scale", str(draw(st.sampled_from([1, 2, 1, 0, -1])))]
    elif command == "group":
        argv += ["--dim", str(draw(st.one_of(st.integers(-1, 5), st.just(2**63))))]
    else:
        argv += ["--max-n", str(draw(st.one_of(st.integers(-1, 3), st.just(2**63))))]
    if draw(st.integers(0, 9)) == 0:
        # accepted by orbit and render only
        argv[1:1] = ["--seed-order", draw(st.sampled_from(["k1-first", "k2-first"]))]
    return argv


_REGIONS = {
    "--square": Region.square,
    "--sym-square": Region.sym_square,
    "--hexagon": Region.hexagon,
    "--disk": Region.disk,
}


def _check_against_oracle(argv, out):
    """Exit-0 outputs that the brute-force orbit oracle can recompute."""
    if argv[0] == "trace":
        record = json.loads(out)
        path = [tuple(record["start"])]
        for j in record["word"]:
            path.append(k_step(path[-1], j))
        assert [tuple(p) for p in record["path"]] == path
        event("trace checked against the oracle")
        return
    if argv[0] == "orbit":
        record = json.loads(out)
        if record["kind"] == "reach-graph":
            if len(record["seed"]) <= 4:
                nodes, edges = bfs_reach_graph(record["seed"])
                assert (record["node_count"], record["edge_count"]) == (len(nodes), len(edges))
                event("reach graph checked against the oracle")
            return
        seed = tuple(record["seed"])
        nodes = orbit_nodes(seed)
        listed = [tuple(p) for p in record["nodes"]]
        assert set(listed) == nodes and len(listed) == len(nodes)
        assert record["length"] == walk_length(seed)
        assert (record["box_side"], record["box_side"]) == extents(nodes)
        assert record["diametral"] == [node_is_diametral(p, nodes) for p in listed]
        event("orbit checked against the oracle")
        return
    if argv[0] == "census" and "--diametral" in argv:
        # an accepted census names its region first
        flag, _, rect = argv[1].partition("=")
        if flag == "--rect":
            region = Region.rect(*(int(v) for v in rect.split(",")))
            xmin, xmax, ymin, ymax = region.bounds()
            # both extents, not their product: an empty side times a 2^64
            # side would still be a loop over 2^64 rows
            small = 0 < xmax - xmin + 1 <= 15 and 0 < ymax - ymin + 1 <= 15
        else:
            region = _REGIONS[flag](int(argv[2]))
            small = region.params[0] <= 15
        if small:
            payload = json.loads(out)
            assert (payload["total_points"], payload["diametral_points"]) == diametral_count(region)
            event(f"{region.kind} census checked against the oracle")


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_argv())
def test_main_fuzz(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    event(f"{argv[0]} exit {code}")  # shown by --hypothesis-show-statistics
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if "--seed-order" in argv and argv[0] not in ("orbit", "render"):
        assert code == 2, argv
    if code == 2:
        # argparse's rejections too: no usage line
        assert err.getvalue().startswith("error: "), (argv, err.getvalue())
        assert err.getvalue().count("\n") == 1, (argv, err.getvalue())
    if code == 0:
        _check_against_oracle(argv, out.getvalue())
