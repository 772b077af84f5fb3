"""End-to-end command-line behavior: output text, exit codes, determinism."""
import hashlib
import io
import itertools
import json
import random
import subprocess
import sys
import time
import tracemalloc
from importlib import resources

import jsonschema
import pytest

import oracles
from satfrac import design, fileio
from satfrac.cli import main
from satfrac.fileio import parse_fraction_text
from satfrac.linalg import full_model_matrix, model_matrix
from satfrac.markov import (basis_size, circuit_to_move, circuits, fiber_enumerate, markov_basis,
                            walk_states)
from satfrac.saturation import count_saturated, enumerate_saturated, sample_uniform_saturated

SCHEMA = json.loads(
    resources.files("satfrac").joinpath("report_schema.json").read_text()
)

SATURATED_GRID = "3 4\n1100\n0110\n0011\n"
CYCLE_GRID = "3 4\n1100\n1100\n0011\n"
SHORT_GRID = "3 4\n1100\n0110\n0010\n"


@pytest.fixture
def saturated_file(tmp_path):
    f = tmp_path / "sat.grid"
    f.write_text(SATURATED_GRID)
    return str(f)


@pytest.fixture
def cycle_file(tmp_path):
    f = tmp_path / "cyc.grid"
    f.write_text(CYCLE_GRID)
    return str(f)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def check_report(line):
    doc = json.loads(line)
    jsonschema.validate(doc, SCHEMA)
    return doc


def test_check_saturated(capsys, saturated_file):
    code, out, _ = run(capsys, "check", saturated_file)
    assert code == 0
    assert out == "saturated\n"


def test_check_cycle(capsys, cycle_file):
    code, out, _ = run(capsys, "check", cycle_file)
    assert code == 1
    assert out == "not saturated: cycle = [(1, 1), (1, 2), (2, 1), (2, 2)]\n"


def test_check_wrong_size(capsys, tmp_path):
    f = tmp_path / "short.grid"
    f.write_text(SHORT_GRID)
    code, out, _ = run(capsys, "check", str(f))
    assert code == 1
    assert out == "wrong size: 5 points, expected 6\n"


def test_check_json_reports(capsys, saturated_file, cycle_file):
    code, out, _ = run(capsys, "check", saturated_file, "--json")
    assert code == 0
    doc = check_report(out)
    assert doc["status"] == "ok"
    assert doc["payload"]["saturated"] is True

    code, out, _ = run(capsys, "check", cycle_file, "--json")
    assert code == 1
    doc = check_report(out)
    assert doc["status"] == "fail"
    assert doc["payload"]["cycle"] == [[1, 1], [1, 2], [2, 1], [2, 2]]
    assert doc["diagnostics"]


def test_check_oracle_flag(capsys, saturated_file, cycle_file):
    assert run(capsys, "check", saturated_file, "--oracle")[0] == 0
    assert run(capsys, "check", cycle_file, "--oracle")[0] == 1


def test_check_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(SATURATED_GRID))
    code, out, _ = run(capsys, "check", "-")
    assert code == 0 and out == "saturated\n"


def test_det(capsys, saturated_file):
    code, out, _ = run(capsys, "det", saturated_file)
    assert code == 0
    assert out == "1\n"


def test_det_json(capsys, saturated_file):
    _, out, _ = run(capsys, "det", saturated_file, "--json")
    doc = check_report(out)
    assert doc["payload"] == {"determinant": 1, "saturated": True}


def test_det_rejects_non_square(capsys, tmp_path):
    f = tmp_path / "short.grid"
    f.write_text(SHORT_GRID)
    code, _, err = run(capsys, "det", str(f))
    assert code == 2
    assert "error" in err


def test_det_names_the_needed_point_count(capsys, tmp_path):
    f = tmp_path / "short.grid"
    f.write_text(SHORT_GRID)
    for argv in (("det", str(f)), ("det", str(f), "--json")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: det needs I+J-1 = 6 points, got 5\n"


def test_matrix_from_file(capsys, saturated_file):
    code, out, _ = run(capsys, "matrix", saturated_file)
    assert code == 0
    assert out.splitlines()[0].split() == ["1", "1", "0", "1", "0", "0"]
    assert len(out.splitlines()) == 6


def test_matrix_full(capsys):
    code, out, _ = run(capsys, "matrix", "--I", "2", "--J", "2")
    assert code == 0
    rows = [line.split() for line in out.splitlines()]
    assert rows == [["1", "1", "1"], ["1", "1", "0"], ["1", "0", "1"], ["1", "0", "0"]]


@pytest.mark.parametrize("size", [(2, 2), (3, 5), (7, 4), None])
def test_matrix_text_and_json_match_the_per_entry_rendering(capsys, saturated_file, size):
    if size is None:
        argv, (points, I, J) = [saturated_file], parse_fraction_text(SATURATED_GRID)
        m = model_matrix(points, I, J)
    else:
        (I, J), argv = size, ["--I", str(size[0]), "--J", str(size[1])]
        m = full_model_matrix(I, J)
    assert run(capsys, "matrix", *argv) == (
        0, "\n".join(" ".join(f"{v:2d}" for v in row) for row in m) + "\n", "")
    payload = {"rows": len(m), "cols": I + J - 1, "matrix": [list(r) for r in m]}
    assert run(capsys, "matrix", *argv, "--json") == (
        0, json.dumps({"status": "ok", "payload": payload, "diagnostics": []}) + "\n", "")


def test_matrix_over_the_cap_is_refused_before_a_row_is_built(capsys):
    # 1000 x 1000 would be 1,999,000,000 entries: 16 GB of tuple slots alone
    tracemalloc.start()
    try:
        start = time.perf_counter()
        code, out, err = run(capsys, "matrix", "--I", "1000", "--J", "1000")
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (1, "")
    assert err == "error: 1999000000 model-matrix entries exceed the cap of 10000000\n"
    assert elapsed < 1 and peak < 1_000_000
    # 200 x 200 holds 15,960,000 entries, just over the cap
    assert run(capsys, "matrix", "--I", "200", "--J", "200", "--json")[:2] == (1, "")


def test_matrix_needs_one_source(capsys, saturated_file):
    assert run(capsys, "matrix")[0] == 2
    assert run(capsys, "matrix", saturated_file, "--I", "3", "--J", "4")[0] == 2


def test_count_by_size(capsys):
    code, out, _ = run(capsys, "count", "--I", "4", "--J", "4")
    assert code == 0
    assert out == "4096\n"


def test_count_by_margins(capsys):
    code, out, _ = run(capsys, "count", "--margins", "3,2,1,1", "2,2,2,1")
    assert code == 0
    assert out == "18\n"


def test_count_margins_with_matching_size(capsys):
    code, out, _ = run(
        capsys, "count", "--I", "4", "--J", "4", "--margins", "4,1,1,1", "4,1,1,1"
    )
    assert code == 0 and out == "1\n"


def test_count_margins_size_conflict(capsys):
    for verb in ("count", "enumerate"):
        code, _, err = run(
            capsys, verb, "--I", "3", "--J", "4", "--margins", "4,1,1,1", "4,1,1,1"
        )
        assert code == 2 and "conflict" in err


def test_count_needs_arguments(capsys):
    assert run(capsys, "count")[0] == 2


def test_count_bad_margins(capsys):
    assert run(capsys, "count", "--margins", "9,1,1", "1,1,1,1")[0] == 2
    assert run(capsys, "count", "--margins", "3,a", "1,1")[0] == 2
    assert run(capsys, "count", "--margins", "2,2", "2,2") == (
        2, "", "error: margin sums must equal I+J-1 = 3, got 4\n")


def test_count_prints_counts_past_the_int_text_digit_limit(capsys):
    # 2000**3998 has 13,198 digits, over the default limit of 4300 on
    # int-to-text conversion; the count prints whole, and the caller's
    # limit is as it was after each call
    limit = sys.get_int_max_str_digits()
    code, text, err = run(capsys, "count", "--I", "2000", "--J", "2000")
    assert (code, err) == (0, "") and sys.get_int_max_str_digits() == limit
    code, report, err = run(capsys, "count", "--I", "2000", "--J", "2000", "--json")
    assert (code, err) == (0, "") and sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        assert text.startswith("32955102335773577502") and len(text) == 13199
        assert int(text) == 2000 ** 1999 * 2000 ** 1999
        assert check_report(report)["payload"] == {"count": 2000 ** 1999 * 2000 ** 1999}
    finally:
        sys.set_int_max_str_digits(limit)


def test_enumerate_json_lines(capsys):
    code, out, _ = run(capsys, "enumerate", "--I", "2", "--J", "2")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    seen = {parse_fraction_text(line)[0] for line in lines}
    assert len(seen) == 4


def test_enumerate_grid_blocks_reparse(capsys):
    code, out, _ = run(capsys, "enumerate", "--I", "2", "--J", "2", "--format", "grid")
    assert code == 0
    blocks = out.split("\n\n")
    assert len(blocks) == 4
    for block in blocks:
        pts, I, J = parse_fraction_text(block)
        assert (I, J) == (2, 2) and len(pts) == 3


def test_enumerate_with_margins(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--I", "4", "--J", "4", "--margins", "4,1,1,1", "4,1,1,1"
    )
    assert code == 0
    assert out.splitlines() == [
        '{"I": 4, "J": 4, "points": [[1, 1], [1, 2], [1, 3], [1, 4], [2, 1], [3, 1], [4, 1]]}'
    ]


def test_enumerate_cap_exit(capsys):
    code, _, err = run(capsys, "enumerate", "--I", "4", "--J", "4", "--cap", "10")
    assert code == 1
    assert "cap" in err


def test_enumerate_margins_needs_no_size_and_equals_generate(capsys):
    margins = ("--margins", "2,2,2,1", "2,2,2,1")
    for fmt in ("json", "grid"):
        generated = run(capsys, "generate", *margins, "--format", fmt)
        assert generated[0] == 0 and generated[1] and not generated[2]
        assert run(capsys, "enumerate", *margins, "--format", fmt) == generated
        sized = run(capsys, "enumerate", "--I", "4", "--J", "4", *margins, "--format", fmt)
        assert sized == generated


def test_enumerate_margins_cap_exit(capsys):
    # 36 fractions carry these margins
    for size in ((), ("--I", "4", "--J", "4")):
        code, out, err = run(
            capsys, "enumerate", *size, "--margins", "2,2,2,1", "2,2,2,1", "--cap", "35"
        )
        assert (code, out) == (1, "")
        assert "cap" in err
    code, out, _ = run(capsys, "enumerate", "--margins", "2,2,2,1", "2,2,2,1", "--cap", "36")
    assert code == 0 and len(out.splitlines()) == 36


def test_enumerate_needs_size_or_margins(capsys):
    for argv in (("enumerate",), ("enumerate", "--I", "3")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "needs --I and --J, or --margins" in err


def test_generate(capsys):
    code, out, _ = run(capsys, "generate", "--margins", "4,1,1", "3,1,1,1")
    assert code == 0
    assert (
        out
        == '{"I": 3, "J": 4, "points": [[1, 1], [1, 2], [1, 3], [1, 4], [2, 1], [3, 1]]}\n'
    )


def test_sample_deterministic_and_single_stream(capsys):
    code, first, _ = run(capsys, "sample", "--I", "3", "--J", "3", "--seed", "7", "--count", "2")
    assert code == 0
    _, second, _ = run(capsys, "sample", "--I", "3", "--J", "3", "--seed", "7", "--count", "2")
    assert first == second
    lines = first.splitlines()
    assert len(lines) == 2
    # one generator drives the whole batch: the first draw alone matches
    _, single, _ = run(capsys, "sample", "--I", "3", "--J", "3", "--seed", "7")
    assert single.splitlines() == lines[:1]
    assert lines[0] != lines[1]


def test_sample_requires_seed(capsys):
    assert run(capsys, "sample", "--I", "3", "--J", "3")[0] == 2


def test_sample_rejects_zero_count(capsys):
    code, _, err = run(capsys, "sample", "--I", "3", "--J", "3", "--seed", "1", "--count", "0")
    assert code == 2 and "count" in err


def test_decompose(capsys, tmp_path):
    f = tmp_path / "cycle.grid"
    f.write_text("4 4\n1010\n0101\n0110\n1001\n")
    code, out, _ = run(capsys, "decompose", str(f))
    assert code == 0
    assert out == "part 1: (1,1) (2,2) (3,3) (4,4)\npart 2: (1,3) (2,4) (3,2) (4,1)\n"


def test_decompose_rejects_trees(capsys, saturated_file):
    assert run(capsys, "decompose", saturated_file)[0] == 2


def test_find_cycle(capsys, cycle_file, saturated_file):
    code, out, _ = run(capsys, "find-cycle", cycle_file)
    assert code == 0
    assert out == "cycle = [(1, 1), (1, 2), (2, 1), (2, 2)]\n"
    code, out, _ = run(capsys, "find-cycle", saturated_file)
    assert code == 0
    assert out == "no cycle\n"


def test_basis_grid_blocks(capsys):
    code, out, _ = run(capsys, "basis", "--I", "3", "--J", "4")
    assert code == 0
    blocks = out.split("\n\n")
    assert len(blocks) == 42
    assert blocks[0] == "1 -1 0 0\n-1 1 0 0\n0 0 0 0"


def test_basis_json_and_max_degree(capsys):
    code, out, _ = run(capsys, "basis", "--I", "3", "--J", "4", "--format", "json")
    assert code == 0
    moves = [json.loads(line) for line in out.splitlines()]
    assert len(moves) == 42
    assert all(sum(map(sum, m)) == 0 for m in moves)
    _, out, _ = run(capsys, "basis", "--I", "3", "--J", "4", "--max-degree", "2", "--format", "json")
    assert len(out.splitlines()) == 18


def test_max_degree_below_2_exits_2(capsys, tmp_path):
    f = tmp_path / "start.grid"
    f.write_text("3 4\n1110\n1000\n1001\n")
    for argv in (
        ("basis", "--I", "3", "--J", "3"),
        ("walk", "--start", str(f), "--steps", "5", "--seed", "1"),
        ("verify", "--margins", "3,1,2", "3,1,1,1"),
    ):
        code, out, err = run(capsys, *argv, "--max-degree", "1")
        assert (code, out) == (2, "")
        assert "max_degree must be at least 2" in err and "2..3" in err


def test_walk_final_state_only(capsys, tmp_path):
    f = tmp_path / "start.grid"
    f.write_text("3 4\n1110\n1000\n1001\n")
    code, out, _ = run(capsys, "walk", "--start", str(f), "--steps", "500", "--seed", "3")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1
    state = json.loads(lines[0])
    assert [sum(row) for row in state] == [3, 1, 2]
    _, again, _ = run(capsys, "walk", "--start", str(f), "--steps", "500", "--seed", "3")
    assert again == out


def test_walk_emit_every(capsys, tmp_path):
    f = tmp_path / "start.grid"
    f.write_text("3 4\n1110\n1000\n1001\n")
    code, out, _ = run(
        capsys, "walk", "--start", str(f), "--steps", "100", "--seed", "3",
        "--emit-every", "25",
    )
    assert code == 0
    assert len(out.splitlines()) == 4
    code, out, _ = run(
        capsys, "walk", "--start", str(f), "--steps", "90", "--seed", "3",
        "--emit-every", "25",
    )
    assert len(out.splitlines()) == 4  # 25, 50, 75, then the final state


def test_walk_zero_steps_echoes_start(capsys, tmp_path):
    f = tmp_path / "start.grid"
    f.write_text("3 4\n1110\n1000\n1001\n")
    code, out, _ = run(
        capsys, "walk", "--start", str(f), "--steps", "0", "--seed", "1",
        "--format", "grid",
    )
    assert code == 0
    assert out == "1110\n1000\n1001\n"


def test_fiber_stream(capsys):
    code, out, _ = run(capsys, "fiber", "--margins", "3,1,2", "3,1,1,1")
    assert code == 0
    tables = {tuple(map(tuple, json.loads(line))) for line in out.splitlines()}
    assert len(tables) == 3


def test_verify_connected(capsys):
    code, out, _ = run(capsys, "verify", "--margins", "3,1,2", "3,1,1,1")
    assert code == 0
    assert out == "connected: 3 table(s), 1 component(s), 42 move(s)\n"


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--margins", "4,1,1", "3,1,1,1", "--json")
    assert code == 0
    doc = check_report(out)
    assert doc["payload"]["fiber_size"] == 1
    assert doc["payload"]["connected"] is True


def test_verify_one_row_or_one_column_fiber(capsys):
    code, out, _ = run(capsys, "verify", "--margins", "1,1", "2")
    assert code == 0
    assert out == "connected: 1 table(s), 1 component(s), 0 move(s)\n"
    code, out, _ = run(capsys, "verify", "--margins", "3", "1,1,1", "--json")
    assert code == 0
    assert check_report(out)["payload"] == {
        "connected": True, "fiber_size": 1, "components": 1, "moves": 0}


def test_check_refuses_json_points_that_are_not_a_list(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO('{"I": 2, "J": 2, "points": 5}'))
    assert run(capsys, "check", "-") == (2, "", "error: points must be a list of [i, j] pairs\n")


def test_parse_error_exit(capsys, tmp_path):
    f = tmp_path / "bad.grid"
    f.write_text("3 3\n112\n100\n100\n")
    code, _, err = run(capsys, "check", str(f))
    assert code == 2
    assert "line 2" in err


def test_header_tokens_must_be_ascii_integers(capsys, tmp_path):
    f = tmp_path / "dash.grid"
    f.write_text("--3 4\n1100\n0110\n0011\n")
    code, out, err = run(capsys, "check", str(f))
    assert (code, out) == (2, "")
    assert err == "error: bad header '--3 4': expected two integers I J (line 1)\n"


def test_header_with_non_integer_token_names_the_header(capsys, tmp_path):
    f = tmp_path / "super.grid"
    f.write_text("3 \u00b2\n110\n011\n001\n", encoding="utf-8")
    code, out, err = run(capsys, "check", str(f))
    assert (code, out) == (2, "")
    assert err == "error: bad header '3 \u00b2': expected two integers I J (line 1)\n"


def test_margin_tokens_must_be_ascii_integers(capsys):
    for bad in ("3,\u00b2", "3,--3", "3,\u0663"):
        code, out, err = run(capsys, "count", "--margins", bad, "1,1")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: bad margin list {bad!r}")


def _fuzzed_input(rng):
    """A fraction file, grid (with or without header) or JSON, of up to
    5 x 6, with up to three characters inserted, deleted or replaced; one
    in ten is random text.  A third of the fractions are saturated, a
    third have I+J-1 points, and the rest any number."""
    alphabet = "01 \n\t-+,.[]{}\":2345679eIJpoints\u00b2\u00e9x"
    if rng.random() < 0.1:
        return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40)))
    I, J = rng.randint(1, 5), rng.randint(1, 6)
    cells = [(i, j) for i in range(1, I + 1) for j in range(1, J + 1)]
    shape = rng.randrange(3)
    if shape == 0 and min(I, J) > 1:
        pts = sample_uniform_saturated(I, J, rng)
    else:
        pts = sorted(rng.sample(cells, min(I * J, I + J - 1) if shape else rng.randint(0, I * J)))
    kind = rng.randrange(3)
    if kind == 2:
        text = json.dumps({"I": I, "J": J, "points": [list(p) for p in pts]})
    else:
        rows = ["".join("1" if (i, j) in pts else "0" for j in range(1, J + 1))
                for i in range(1, I + 1)]
        text = (f"{I} {J}\n" if kind else "") + "\n".join(rows) + "\n"
    chars = list(text)
    for _ in range(rng.choice((0, 0, 1, 2, 3))):
        at = rng.randrange(len(chars) + 1)
        op = rng.randrange(3)
        if op == 0:
            chars.insert(at, rng.choice(alphabet))
        elif at < len(chars):
            if op == 1:
                del chars[at]
            else:
                chars[at] = rng.choice(alphabet)
    return "".join(chars)


def test_fuzzed_stdin_exits_0_1_or_2_without_a_traceback(capsys, monkeypatch):
    verbs = [("check",), ("check", "--oracle"), ("check", "--json"), ("det",), ("matrix",),
             ("decompose",), ("find-cycle",)]
    rng = random.Random(1010)
    codes = set()
    for n in range(2000):
        text = _fuzzed_input(rng)
        verb = verbs[n % len(verbs)]
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, _, err = run(capsys, *verb, "-")
        assert code in (0, 1, 2) and "Traceback" not in err, (verb, text, err)
        codes.add(code)
    assert codes == {0, 1, 2}


def test_missing_file_exit(capsys, tmp_path):
    assert run(capsys, "check", str(tmp_path / "nope.grid"))[0] == 2


def test_unknown_verb_exit(capsys):
    assert main(["frobnicate"]) == 2


def test_no_verb_exit(capsys):
    assert main([]) == 2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0


def test_console_script_installed():
    out = subprocess.run(
        [sys.executable, "-m", "satfrac.cli", "count", "--I", "3", "--J", "3"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert out.stdout == "81\n"


def test_enumerate_round_trip_both_formats(capsys):
    _, json_out, _ = run(capsys, "enumerate", "--I", "3", "--J", "3")
    _, grid_out, _ = run(capsys, "enumerate", "--I", "3", "--J", "3", "--format", "grid")
    from_json = [parse_fraction_text(line) for line in json_out.splitlines()]
    from_grid = [parse_fraction_text(b) for b in grid_out.split("\n\n")]
    assert from_json == from_grid
    assert len(from_json) == 81


def test_cached_parser_leaks_no_state(capsys, cycle_file):
    lone = subprocess.run(
        [sys.executable, "-m", "satfrac.cli", "check", cycle_file],
        capture_output=True,
        text=True,
    )
    assert lone.returncode == 1
    code, out, _ = run(capsys, "check", cycle_file, "--oracle", "--json")
    assert code == 1 and check_report(out)["status"] == "fail"
    assert run(capsys, "check", cycle_file) == (1, lone.stdout, lone.stderr)
    code, _, err = run(capsys, "check", cycle_file, "--no-such-flag")
    assert code == 2 and "--no-such-flag" in err
    assert run(capsys, "check", cycle_file) == (1, lone.stdout, lone.stderr)


# sha256 of stdout, pinned so that any byte change in a stream shows here.
GOLDEN_STREAMS = [
    pytest.param(("enumerate", "--I", "3", "--J", "4"),
                 "4656c106bb53a88b6f1f407dbfda1e547215582ec0f16ce3c39beede84fd5724",
                 id="enumerate-3x4-json"),
    pytest.param(("enumerate", "--I", "3", "--J", "4", "--format", "grid"),
                 "cfab585e753bcecb0af925cb9c82b1d2fe383f54694dab262f76bb07117ba7ea",
                 id="enumerate-3x4-grid"),
    pytest.param(("generate", "--margins", "2,2,2", "2,1,2,1"),
                 "0bf5ca3eccb7a3dabdcc53ef442a6061237501454df6486bbfcb595a641622db",
                 id="generate-json"),
    pytest.param(("generate", "--margins", "3,2,2,2,2,1", "1,1,2,2,2,2,2", "--format", "grid"),
                 "43fdc92373ed81fd32afa141afaaca75b4dd3912e8911000b0bb2798c4a31ccd",
                 id="generate-6x7-grid"),
    # thin shapes: a row/column mix-up in a cell index shows here
    pytest.param(("enumerate", "--I", "2", "--J", "7", "--format", "grid"),
                 "f258a97f832f45b02e6d597f2ce1718922b2b7033d19a2d829138472bedb5624",
                 id="enumerate-2x7-grid"),
    pytest.param(("enumerate", "--I", "7", "--J", "2"),
                 "e952882b3d05d11f2d6d814c210ce468bbd50a82a7df6544167f400fe98107ee",
                 id="enumerate-7x2-json"),
    pytest.param(("sample", "--I", "30", "--J", "40", "--count", "200", "--seed", "5"),
                 "4d2824a9fc4c3c89599e802523f69318c70de45be5a83393081c3abce348d726",
                 id="sample-30x40-json"),
    pytest.param(("sample", "--I", "30", "--J", "40", "--count", "200", "--seed", "5",
                  "--format", "grid"),
                 "22a72b6a912703bfa33e632b4640d742d44ae7818341ef5d9c92243adb3c910c",
                 id="sample-30x40-grid"),
    pytest.param(("basis", "--I", "4", "--J", "4"),
                 "153fe9609f7935e3c511e1b24125bfc559a1b37845d1977ea00a524f6a9ee025",
                 id="basis-4x4-grid"),
    pytest.param(("basis", "--I", "4", "--J", "4", "--format", "json"),
                 "44cc9bdd1744b59ab2c05b6cf75eef1ddbf53f6f6fa42d9c10c1bfede11c899c",
                 id="basis-4x4-json"),
    pytest.param(("walk", "--start", "@6", "--steps", "5000", "--seed", "4", "--emit-every", "500"),
                 "c0a39533b997bd02f0b50116da81bb608d3f8f3b8c7c99a6833e73f264b81958",
                 id="walk-6x6-full-json"),
    pytest.param(("walk", "--start", "@6", "--steps", "5000", "--seed", "4", "--emit-every", "500",
                  "--format", "grid"),
                 "103a93b2d64961065856f8e1b882b6b5a193d113dc8b14ba4a62c854a7a6f236",
                 id="walk-6x6-full-grid"),
    pytest.param(("walk", "--start", "@20", "--steps", "20000", "--seed", "4", "--max-degree", "2",
                  "--emit-every", "500"),
                 "94785c5db784ba85d51cc23ede75e1b72922d6c0a464650119719f5cb7dcaf66",
                 id="walk-20x20-degree-2-json"),
    pytest.param(("walk", "--start", "@20", "--steps", "20000", "--seed", "4", "--max-degree", "2",
                  "--emit-every", "500", "--format", "grid"),
                 "78ad6599387e39b5c4dd8959caaa583519f3ad9534eb9fbfa40a37f9398e1f11",
                 id="walk-20x20-degree-2-grid"),
    pytest.param(("walk", "--start", "@6", "--steps", "2000", "--seed", "4", "--emit-every", "1"),
                 "d74e0fcb7009a5432eb935766e48f7873fe3b767de55b7ce53999166764882d9",
                 id="walk-6x6-full-every-step-json"),
    pytest.param(("walk", "--start", "@6", "--steps", "2000", "--seed", "4", "--emit-every", "1",
                  "--format", "grid"),
                 "e89fd920806ace790e2e5b7c1efa54022400f33deb8f479f2c77562f2f0f26ff",
                 id="walk-6x6-full-every-step-grid"),
    pytest.param(("walk", "--start", "@20", "--steps", "2000", "--seed", "4", "--max-degree", "2",
                  "--emit-every", "1"),
                 "cd2dce7df9ec603fd8e0e182dc54363d0f88857c36ffae8de4e86cd4006525c9",
                 id="walk-20x20-degree-2-every-step-json"),
    pytest.param(("walk", "--start", "@20", "--steps", "2000", "--seed", "4", "--max-degree", "2",
                  "--emit-every", "1", "--format", "grid"),
                 "c4bec3ef80f9795f617c2861a552783907308e5f4a1d003d8d0b666d033e64fa",
                 id="walk-20x20-degree-2-every-step-grid"),
    pytest.param(("fiber", "--margins", "3,2,2,1", "2,2,1,1,1,1"),
                 "536b9a70ffa4eeb8c288180a01ae0010a84d1f885dee7c74afa5120a2fb8170a",
                 id="fiber-4x6-json"),
    pytest.param(("fiber", "--margins", "3,2,2,1", "2,2,1,1,1,1", "--format", "grid"),
                 "b475713e36cf0f17b3732dc27abb602f51d76db94d7b90451b7c1d26794609fb",
                 id="fiber-4x6-grid"),
    # the basis and fiber digests pinned in the CI workflow
    pytest.param(("basis", "--I", "4", "--J", "5", "--format", "json"),
                 "4daa8a2910edd6c4943f19f73f49240df863216357205185896e9d3652a056dc",
                 id="basis-4x5-json"),
    pytest.param(("basis", "--I", "4", "--J", "5", "--format", "grid"),
                 "b03de7791a9957173e4a333c67baa990db470f98c7dab7870d307bbb3fad8357",
                 id="basis-4x5-grid"),
    pytest.param(("fiber", "--margins", "3,3,2,2,1,1", "2,2,2,2,2,2", "--format", "json"),
                 "3fdd87aec8e114d1d6744a5acacb8b7222116eab5109ba0db945781f795b161b",
                 id="fiber-6x6-json"),
    pytest.param(("fiber", "--margins", "3,3,2,2,1,1", "2,2,2,2,2,2", "--format", "grid"),
                 "e9d9ff7d917eec87b2c3d7434abddc6045c90d9ce685df031b8395917cdc926a",
                 id="fiber-6x6-grid"),
    pytest.param(("fiber", "--margins", "3,3,3", "1,1,1,1,1,1,1,1,1", "--format", "json"),
                 "0070c1a650b95b9bac6536cad578c8e42bc38767ee67514c4104fee3734766db",
                 id="fiber-3x9-json"),
]


def _circulant(n):
    """n x n start file text: row i holds ones in the n // 2 columns from i on, cyclically."""
    return "".join("".join("1" if (j - i) % n < n // 2 else "0" for j in range(n)) + "\n"
                   for i in range(n))


@pytest.mark.parametrize("argv, digest", GOLDEN_STREAMS)
def test_golden_stream_digest(capsys, tmp_path, argv, digest):
    # "@n" names the n x n circulant start, written to a file
    for arg in argv:
        if arg.startswith("@"):
            (tmp_path / arg[1:]).write_text(_circulant(int(arg[1:])))
    argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_sampled_start_walk_digest(capsys, monkeypatch):
    # the CI pipe: sample --format grid | walk --start -
    sample = _stdout(capsys, "sample", "--I", "20", "--J", "20", "--count", "1", "--seed", "3",
                     "--format", "grid")
    monkeypatch.setattr("sys.stdin", io.StringIO(sample))
    out = _stdout(capsys, "walk", "--start", "-", "--steps", "20000", "--seed", "1",
                  "--max-degree", "2", "--emit-every", "500")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "53e5e649921bafe314effc9903ee7f281333dfb4262ef8b60f847f53839f9f7c")


def test_walk_over_cap_names_the_swap_basis(capsys, tmp_path):
    f = tmp_path / "start.grid"
    f.write_text("".join("1" * k + "0" * (8 - k) + "\n" for k in range(1, 9)))
    code, out, err = run(capsys, "walk", "--start", str(f), "--steps", "5", "--seed", "1")
    assert (code, out) == (1, "")
    assert "basis would hold 256485040 moves, over the cap of 10000000" in err
    assert "max_degree=2 (--max-degree 2) gives 784 swap moves" in err
    code, out, _ = run(
        capsys, "walk", "--start", str(f), "--steps", "5", "--seed", "1", "--max-degree", "2"
    )
    assert code == 0 and out


def test_walk_and_verify_check_their_input_before_building_a_basis(capsys, tmp_path):
    # the 8 x 8 full basis is over the default cap, so a basis built first
    # would answer every case below with the cap error and exit 1
    f = tmp_path / "start.grid"
    f.write_text("".join("1" * k + "0" * (8 - k) + "\n" for k in range(1, 9)))
    walk = ("walk", "--start", str(f), "--seed", "1")
    ones = ",".join(["1"] * 8)
    for argv, message in (
        (walk + ("--steps", "5", "--emit-every", "0"), "--emit-every must be at least 1"),
        (walk + ("--steps", "-1"), "--steps must be at least 0"),
        (("verify", "--margins", ones, ones[:-1] + "2"), "margin sums differ: 8 vs 9"),
        (("verify", "--margins", "2,-1," + ones[4:], ones), "mA entry -1 invalid"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert message in err and "basis would hold" not in err, err


def test_fiber_streams_without_holding_the_fiber(monkeypatch):
    # the 297,200 tables of (3,)*6 take 27 MB as a list; streamed, the
    # whole run peaks at 24.7 KB under tracemalloc (Python 3.11), set by
    # the count before the first table, so a prefix shows the same peak
    class Enough(Exception):
        pass

    class Head:
        lines = 0

        def write(self, text):
            self.lines += 1
            if self.lines == 1000:
                raise Enough

    threes = ",".join(["3"] * 6)
    monkeypatch.setattr(sys, "stdout", Head())
    assert main(["fiber", "--margins", "1", "1"]) == 0  # builds the parser
    tracemalloc.start()
    try:
        with pytest.raises(Enough):
            main(["fiber", "--margins", threes, threes])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50_000


def test_two_row_fiber_streams_without_holding_its_tail(monkeypatch):
    # the root of (10, 10) x (1,)*20 is the two-row tail over C(20, 10) =
    # 184,756 tables; a tail held as a list or stack of tables takes tens
    # of MB before the first line.  CPython 3.11 and 3.12 push freed
    # 20-entry tuples onto a free list they never pop, up to 2,000 of them
    # (400 KB), so the test fills that list first and measures the stream.
    class Enough(Exception):
        pass

    class Head:
        lines = 0

        def write(self, text):
            self.lines += 1
            if self.lines == 1000:
                raise Enough

    monkeypatch.setattr(sys, "stdout", Head())
    assert main(["fiber", "--margins", "1", "1"]) == 0  # builds the parser
    warm = [tuple(range(n, n + 20)) for n in range(2000)]
    del warm
    tracemalloc.start()
    try:
        with pytest.raises(Enough):
            main(["fiber", "--margins", "10,10", ",".join(["1"] * 20)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50_000


def test_fiber_cap_counts_tables(capsys):
    twos = ",".join(["2"] * 6)
    code, out, err = run(capsys, "fiber", "--margins", twos, twos)
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 67950  # 15**6 row placements, over the default cap
    code, out, err = run(capsys, "fiber", "--margins", "3,1,2", "3,1,1,1", "--cap", "2")
    assert (code, out) == (1, "")
    assert "fiber holds more than the cap of 2 tables" in err
    code, out, _ = run(capsys, "fiber", "--margins", "3,1,2", "3,1,1,1", "--cap", "3")
    assert code == 0 and len(out.splitlines()) == 3
    tens = ",".join(["10"] * 20)
    t0 = time.perf_counter()
    code, out, err = run(capsys, "fiber", "--margins", tens, tens)
    assert (code, out) == (1, "") and "more than the cap of 10000000 tables" in err
    assert time.perf_counter() - t0 < 1.0
    t0 = time.perf_counter()
    code, out, err = run(capsys, "fiber", "--margins", ",".join(["15"] * 31),
                         ",".join(map(str, range(1, 31))))
    assert (code, out) == (1, "") and "more than the cap of 10000000 tables" in err
    assert time.perf_counter() - t0 < 1.0
    code, out, err = run(capsys, "fiber", "--margins", "1" + ",0" * 999, "1")
    assert (code, err) == (0, "")
    assert json.loads(out) == [[1]] + [[0]] * 999


def _stdout(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, ""), err
    return out


def _assert_same_text(out, want, where=""):
    # pytest's diff of two megabyte streams takes minutes; name the first difference
    if out != want:
        k = next((i for i, (a, b) in enumerate(zip(out, want)) if a != b), min(len(out), len(want)))
        at = slice(max(k - 60, 0), k + 60)
        pytest.fail(f"{where} texts differ at character {k} of {len(out)} and {len(want)}: "
                    f"{out[at]!r} vs {want[at]!r}")


@pytest.mark.parametrize("fmt", ["json", "grid"])
@pytest.mark.parametrize("mA, mB", [
    ((3,), (1, 1, 0, 1)),  # one row
    ((1, 0, 1), (2,)),  # one column
    ((2, 2, 1), (2, 1, 1, 1)),
    ((3, 2), (1, 1, 1, 1, 1, 0, 0, 0, 0, 0)),  # rows wider than 8 columns
])
def test_fiber_stream_equals_the_dense_reference(capsys, fmt, mA, mB):
    argv = ("fiber", "--margins", ",".join(map(str, mA)), ",".join(map(str, mB)), "--format", fmt)
    want = oracles.dense_stream(oracles.brute_fiber(mA, mB), fmt, oracles.dense_table_text)
    _assert_same_text(_stdout(capsys, *argv), want)


@pytest.mark.parametrize("fmt", ["json", "grid"])
def test_twenty_column_fiber_prefix_equals_the_dense_reference(monkeypatch, fmt):
    # the tables of (10, 10) x (1,)*20 in order: row 1 takes each 10-column
    # combination in itertools.combinations order, row 2 the other columns
    class Enough(Exception):
        pass

    class Head(io.StringIO):
        def write(self, text):
            super().write(text)
            if self.tell() > 50_000:
                raise Enough

    head = Head()
    monkeypatch.setattr(sys, "stdout", head)
    with pytest.raises(Enough):
        main(["fiber", "--margins", "10,10", ",".join(["1"] * 20), "--format", fmt])
    out = head.getvalue()
    n = out.count("\n") if fmt == "json" else out.count("\n\n") + 1
    tables = [(tuple(int(j in c) for j in range(20)), tuple(int(j not in c) for j in range(20)))
              for c in itertools.islice(itertools.combinations(range(20), 10), n)]
    assert n > 100
    _assert_same_text(out, oracles.dense_stream(tables, fmt, oracles.dense_table_text))


@pytest.mark.parametrize("fmt", ["json", "grid"])
def test_basis_stream_equals_the_dense_reference(capsys, fmt):
    for I in range(2, 6):
        for J in range(2, 7):
            moves = [circuit_to_move(c, I, J) for k in range(2, min(I, J) + 1)
                     for c in circuits(I, J, k)]
            out = _stdout(capsys, "basis", "--I", str(I), "--J", str(J), "--format", fmt)
            want = oracles.dense_stream(moves, fmt, oracles.dense_move_text)
            _assert_same_text(out, want, (I, J))


@pytest.mark.parametrize("fmt", ["json", "grid"])
@pytest.mark.parametrize("I, J, max_degree, steps", [(3, 4, None, 3000), (6, 6, None, 3000),
                                                     (20, 20, 2, 2000)])
def test_walk_every_state_equals_the_dense_reference(capsys, tmp_path, fmt, I, J, max_degree,
                                                      steps):
    start = tuple(tuple(int((j - i) % J < J // 2) for j in range(J)) for i in range(I))
    f = tmp_path / "start.grid"
    f.write_text(oracles.dense_table_text(start))
    degree = () if max_degree is None else ("--max-degree", str(max_degree))
    out = _stdout(capsys, "walk", "--start", str(f), "--steps", str(steps), "--seed", "8",
                  "--emit-every", "1", "--format", fmt, *degree)
    states = list(walk_states(start, markov_basis(I, J, max_degree), steps, 8))
    assert len(set(states)) > 10
    _assert_same_text(out, oracles.dense_stream(states, fmt, oracles.dense_table_text))


@pytest.mark.parametrize("fmt", ["json", "grid"])
def test_walk_emits_every_mth_state_and_the_final_one_once(capsys, tmp_path, fmt):
    start = ((1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1))
    f = tmp_path / "start.grid"
    f.write_text(oracles.dense_table_text(start))
    basis = markov_basis(3, 4)
    for steps in (0, 1, 24, 25, 75, 76):
        states = [start, *walk_states(start, basis, steps, 3)]  # states[n]: after n steps
        assert steps < 24 or len(set(states)) > 2
        for every in (None, 1, 2, 25):
            picked = list(range(every, steps + 1, every)) if every else []
            if picked[-1:] != [steps]:
                picked.append(steps)  # the final state, or the start when steps is 0
            want = oracles.dense_stream([states[n] for n in picked], fmt, oracles.dense_table_text)
            every_arg = () if every is None else ("--emit-every", str(every))
            out = _stdout(capsys, "walk", "--start", str(f), "--steps", str(steps), "--seed", "3",
                          "--format", fmt, *every_arg)
            assert out == want, (steps, every)


def test_stream_verbs_decode_no_row_tuple(capsys, tmp_path, monkeypatch):
    # fiber, basis and walk render the codes as text; a row tuple decoded
    # on their way fails here
    def no_tuples(J):
        def row(*masks):
            raise AssertionError("a row tuple was decoded")
        return row

    decoder = design._row_decoder
    for name, module in list(sys.modules.items()):
        if name.startswith("satfrac") and getattr(module, "_row_decoder", None) is decoder:
            monkeypatch.setattr(module, "_row_decoder", no_tuples)
    with pytest.raises(AssertionError, match="row tuple"):
        fiber_enumerate((1, 1), (1, 1))
    with pytest.raises(AssertionError, match="row tuple"):
        markov_basis(2, 3)[0]
    f = tmp_path / "start.grid"
    f.write_text("111000\n011100\n001110\n000111\n100011\n110001\n")
    for argv in (("fiber", "--margins", "3,3,2,2,1,1", "2,2,2,2,2,2"),
                 ("basis", "--I", "4", "--J", "5"),
                 ("walk", "--start", str(f), "--steps", "500", "--seed", "1",
                  "--emit-every", "1")):
        for fmt in ("json", "grid"):
            assert _stdout(capsys, *argv, "--format", fmt)


def test_fraction_stream_verbs_build_no_point_and_check_nothing(capsys, monkeypatch):
    # enumerate, generate and sample render the decoder's cells as text;
    # a point tuple built or a fraction re-checked on their way fails here
    argvs = [("enumerate", "--I", "3", "--J", "4"),
             ("enumerate", "--margins", "3,1,2", "2,2,1,1"),
             ("generate", "--margins", "2,2,2", "2,1,2,1"),
             ("sample", "--I", "30", "--J", "40", "--count", "20", "--seed", "5")]
    argvs = [(*argv, "--format", fmt) for argv in argvs for fmt in ("json", "grid")]
    want = [_stdout(capsys, *argv) for argv in argvs]

    def refuse(*args, **kwargs):
        raise AssertionError("a point was built or checked")

    for name, module in list(sys.modules.items()):
        if name.startswith("satfrac"):
            for attr in ("fraction", "render_json", "render_grid", "_points"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, refuse)
    with pytest.raises(AssertionError, match="point"):
        next(enumerate_saturated(3, 4))
    assert [_stdout(capsys, *argv) for argv in argvs] == want
    assert all(want)


def test_large_sparse_draw_holds_no_grid_sized_table(monkeypatch):
    # one JSON draw from 1000 x 1000 is 1,999 points; a text table for all
    # 10**6 cells took 0.8 s and about 70 MB more
    class Sink:
        def write(self, text):
            self.text = text

    out = Sink()
    monkeypatch.setattr(sys, "stdout", out)
    argv = ["sample", "--I", "1000", "--J", "1000", "--count", "1", "--seed", "2"]
    assert main(argv) == 0  # builds the parser
    t = time.perf_counter()
    assert main(argv) == 0
    assert time.perf_counter() - t < 1.0
    assert out.text.count("], [") == 1998
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_json_cell_texts_stay_bounded_over_many_draws():
    # many draws from a large grid emit most of its cells; the JSON text
    # builder keeps the texts of at most 65,536 of them
    text = fileio._fraction_text("json", 1000, 1000)
    tracemalloc.start()
    try:
        for start in range(0, 200_000, 2_000):
            text(range(start, start + 2_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 15_000_000
    for cells in ([0, 999, 1000, 999_999], [70_000, 199_999]):  # kept and unkept cells
        assert text(cells) == oracles.slow_render_json(
            [(k // 1000 + 1, k % 1000 + 1) for k in cells], 1000, 1000)


@pytest.mark.parametrize("fmt", ["json", "grid"])
def test_stream_verbs_write_each_record_as_it_is_made(monkeypatch, tmp_path, fmt):
    # one write a record: nothing is held back, so a slow walk shows each state when it is made
    class Writes:
        def __init__(self):
            self.texts = []

        def write(self, text):
            self.texts.append(text)

    f = tmp_path / "start.grid"
    f.write_text("1100\n0110\n0011\n1001\n")
    for argv, n in ((("walk", "--start", str(f), "--steps", "70", "--seed", "2",
                      "--emit-every", "1"), 70),
                    (("fiber", "--margins", "2,2,2,2", "2,2,2,2"), 90),
                    (("basis", "--I", "4", "--J", "4"), basis_size(4, 4)),
                    (("enumerate", "--I", "3", "--J", "3"), count_saturated(3, 3))):
        out = Writes()
        monkeypatch.setattr(sys, "stdout", out)
        assert main([*argv, "--format", fmt]) == 0
        assert len(out.texts) == n
        if fmt == "json":
            assert all(t.count("\n") == 1 and t.endswith("\n") for t in out.texts)
        else:  # a blank line before every block but the first
            assert all(t[0] == "\n" for t in out.texts[1:])
            blocks = out.texts[:1] + [t[1:] for t in out.texts[1:]]
            assert all(b.endswith("\n") and "\n\n" not in b for b in blocks)
