"""End-to-end command-line behavior and exit codes."""

import json
import math
import sys
import time
from fractions import Fraction

import pytest

import hpda.analysis
import hpda.cli
import hpda.grids
import hpda.hierarchy
import hpda.simulation
from hpda import build_grouping, format_hpda, load_hpda, mn_pda, parse_pda, save_pda
from hpda.cli import main
from hpda.pda import InvalidArrayError
from hpda.simulation import DecodingError

from reference import pda_shift
from test_pda import refuse_huge_combs


def test_construct_pda_golden(capsys):
    assert main(["construct-pda", "mn", "--k", "3", "--t", "1"]) == 0
    out = capsys.readouterr().out
    assert parse_pda(out) == mn_pda(3, 1)
    assert out.splitlines()[0] == "PDA 3 3 1 3"


def test_construct_pda_eq19_outer(tmp_path):
    path = tmp_path / "a.pda"
    assert main(["construct-pda", "mn", "--k", "2", "--t", "1", "--out", str(path)]) == 0
    assert parse_pda(path.read_text()) == mn_pda(2, 1)


def test_construct_pda_rejects_t_above_k(capsys):
    assert main(["construct-pda", "mn", "--k", "3", "--t", "4"]) == 2
    assert "error" in capsys.readouterr().err


def test_construct_hpda_grouping_golden(tmp_path, capsys):
    path = tmp_path / "g.hpda"
    rc = main(
        ["construct-hpda", "grouping", "--k1", "3", "--k2", "2", "--t", "4", "--out", str(path)]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "F=15 Z1=6 Z2=4 R1=2/5 R2=6/5" in out
    loaded = load_hpda(path)
    assert format_hpda(loaded) == format_hpda(build_grouping(3, 2, 4))


def test_construct_hpda_grouping_rejects_small_t(capsys):
    rc = main(["construct-hpda", "grouping", "--k1", "3", "--k2", "2", "--t", "2"])
    assert rc == 2


def test_construct_hpda_hybrid_golden(tmp_path, capsys):
    a, b = tmp_path / "a.pda", tmp_path / "b.pda"
    save_pda(mn_pda(2, 1), a)
    save_pda(mn_pda(3, 1), b)
    out = tmp_path / "h.hpda"
    rc = main(["construct-hpda", "hybrid", "--a", str(a), "--b", str(b), "--out", str(out)])
    assert rc == 0
    assert "F=6 Z1=3 Z2=2 R1=1/2 R2=1" in capsys.readouterr().out
    loaded = load_hpda(out)
    assert loaded.blocks[0].grid[0] == ("*", 4, 5)


def test_construct_hpda_hybrid_rejects_invalid_input(tmp_path, capsys):
    a = tmp_path / "a.pda"
    a.write_text("PDA 2 2 1 1\n* 1\n* 1\n")  # C1/C3 violations
    b = tmp_path / "b.pda"
    save_pda(mn_pda(3, 1), b)
    rc = main(["construct-hpda", "hybrid", "--a", str(a), "--b", str(b)])
    assert rc == 3
    assert "fails verification" in capsys.readouterr().err


def test_construct_hpda_hybrid_verifies_each_input_once(tmp_path, monkeypatch):
    calls = []
    pda_violations = hpda.grids.pda_violations

    def counting(p):
        calls.append(p)
        return pda_violations(p)

    monkeypatch.setattr(hpda.grids, "pda_violations", counting)
    a, b = tmp_path / "a.pda", tmp_path / "b.pda"
    save_pda(mn_pda(2, 1), a)
    save_pda(mn_pda(3, 1), b)
    assert main(["construct-hpda", "hybrid", "--a", str(a), "--b", str(b)]) == 0
    assert calls == [mn_pda(2, 1), mn_pda(3, 1)]


# The outer array is valid: one with the alphabet [1..S], one shifted to
# [6..8].  Both arrays are verified before either alphabet is checked, so
# both print the inner array's violations.
@pytest.mark.parametrize("outer", [mn_pda(2, 1), pda_shift(mn_pda(3, 1), 5)])
def test_construct_hpda_hybrid_invalid_inner_stderr(tmp_path, capsys, outer):
    a, b = tmp_path / "a.pda", tmp_path / "b.pda"
    save_pda(outer, a)
    b.write_text("PDA 3 3 1 3\n* 1 1\n1 * 3\n2 3 *\n")
    assert main(["construct-hpda", "hybrid", "--a", str(a), "--b", str(b)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: inner array fails verification:\n"
        "  C3a at (1, 2, 1, 3): integer 1 repeats in the same row\n"
        "  C3b at (1, 3, 2, 1): occurrences of 1 lack the star-complement 2x2 pattern\n"
    )


def test_construct_hpda_hybrid_over_budget_exits_2(tmp_path, capsys, monkeypatch):
    a = tmp_path / "a.pda"
    save_pda(mn_pda(14, 7), a)  # 3432 x 14; the hybrid would have 2.5e9 cells
    monkeypatch.setattr(hpda.hierarchy, "verify_pda", None)  # refused before verifying
    assert main(["construct-hpda", "hybrid", "--a", str(a), "--b", str(a)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: hybrid of a 3432x14 outer and a 3432x14 inner array"
        " has 2473511040 cells, more than 10000000\n"
    )


@pytest.mark.parametrize("budget, code", [(48, 3), (47, 2)])
def test_construct_hpda_hybrid_budget_comes_before_verification(
    tmp_path, monkeypatch, budget, code
):
    # An invalid outer of mn(2,1)'s shape: within the budget it fails
    # verification (exit 3), above it the size is refused first (exit 2).
    a, b = tmp_path / "a.pda", tmp_path / "b.pda"
    a.write_text("PDA 2 2 1 1\n* 1\n* 1\n")
    save_pda(mn_pda(3, 1), b)
    monkeypatch.setattr(hpda.hierarchy, "_MAX_MN_CELLS", budget)
    assert main(["construct-hpda", "hybrid", "--a", str(a), "--b", str(b)]) == code


def test_construct_hpda_hybrid_missing_file(tmp_path):
    b = tmp_path / "b.pda"
    save_pda(mn_pda(3, 1), b)
    assert main(["construct-hpda", "hybrid", "--a", str(tmp_path / "nope"), "--b", str(b)]) == 2


def test_verify_valid_hpda(tmp_path, capsys):
    path = tmp_path / "g.hpda"
    path.write_text(format_hpda(build_grouping(3, 2, 4)))
    assert main(["verify", str(path)]) == 0
    assert capsys.readouterr().out.startswith("valid HPDA")


def test_verify_valid_pda(tmp_path, capsys):
    path = tmp_path / "a.pda"
    save_pda(mn_pda(4, 2), path)
    assert main(["verify", str(path)]) == 0
    assert capsys.readouterr().out.startswith("valid PDA")


def test_verify_corrupted_mirror_star(tmp_path, capsys):
    text = format_hpda(build_grouping(3, 2, 4))
    lines = text.splitlines()
    # first mirror token of row 1 becomes null: B1 and B3 both break
    tokens = lines[1].split()
    tokens[0] = "-"
    lines[1] = " ".join(tokens)
    path = tmp_path / "bad.hpda"
    path.write_text("\n".join(lines) + "\n")
    assert main(["verify", str(path)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("invalid")
    assert "B1" in out or "B3" in out


def test_verify_invalid_pda_lists_conditions(tmp_path, capsys):
    path = tmp_path / "bad.pda"
    path.write_text("PDA 3 3 1 3\n* 3 2\n1 * 3\n2 3 *\n")
    assert main(["verify", str(path)]) == 1
    out = capsys.readouterr().out
    assert "C2" in out or "C3" in out


def test_construct_hpda_hybrid_rejects_shifted_alphabet(tmp_path, capsys):
    a = tmp_path / "a.pda"
    save_pda(pda_shift(mn_pda(3, 1), 5), a)  # valid array, ids 6..8
    b = tmp_path / "b.pda"
    save_pda(mn_pda(2, 1), b)
    assert main(["construct-hpda", "hybrid", "--a", str(a), "--b", str(b)]) == 3
    assert "alphabet" in capsys.readouterr().err


def test_verify_parse_failure(tmp_path):
    path = tmp_path / "empty.hpda"
    path.write_text("")
    assert main(["verify", str(path)]) == 2
    path.write_text("PDA 3 3 1 3\n* 1 2\n")
    assert main(["verify", str(path)]) == 2
    # "²" passes str.isdigit() but not int()
    path.write_text("PDA 2 1 0 1\n1 \u00b2\n")
    assert main(["verify", str(path)]) == 2
    path.write_text("HPDA 1 2 1 0 0\n- 1 \u00b2\n")
    assert main(["verify", str(path)]) == 2
    # Not UTF-8 text.
    path.write_bytes(b"HPDA 1 1 1 0 0\n\xff\xfe *\n")
    assert main(["verify", str(path)]) == 2
    # More digits than int() converts.
    path.write_text("HPDA 1 2 1 0 0\n- 1 " + "7" * 5000 + "\n")
    assert main(["verify", str(path)]) == 2
    # F = 0 with huge K, K2 or K1: rejected, never sized by the header.
    for header in (f"PDA {10**30} 0 0 0", f"HPDA 1 {10**30} 0 0 0", f"HPDA {10**9} 1 0 0 0"):
        path.write_text(header + "\n")
        assert main(["verify", str(path)]) == 2


def test_simulate_and_hybrid_reject_undecodable_files(tmp_path, capsys):
    path = tmp_path / "bad.hpda"
    path.write_bytes(b"HPDA 1 1 1 0 0\n\xff\xfe *\n")
    assert main(["simulate", str(path), "--files", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: input is not text:")
    b = tmp_path / "b.pda"
    save_pda(mn_pda(3, 1), b)
    assert main(["construct-hpda", "hybrid", "--a", str(path), "--b", str(b)]) == 2
    assert capsys.readouterr().err.startswith("error: input is not text:")


def test_simulate_golden(tmp_path, capsys):
    path = tmp_path / "g.hpda"
    path.write_text(format_hpda(build_grouping(3, 2, 4)))
    rc = main(["simulate", str(path), "--files", "6", "--packet-bytes", "16", "--seed", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "success R1=6/15 R2=18/15" in out
    assert "mirror 1: 18 packets" in out


def test_simulate_hybrid_golden(tmp_path, capsys):
    a, b = tmp_path / "a.pda", tmp_path / "b.pda"
    save_pda(mn_pda(2, 1), a)
    save_pda(mn_pda(3, 1), b)
    h = tmp_path / "h.hpda"
    assert main(["construct-hpda", "hybrid", "--a", str(a), "--b", str(b), "--out", str(h)]) == 0
    capsys.readouterr()
    assert main(["simulate", str(h), "--files", "6"]) == 0
    assert "success R1=3/6 R2=6/6" in capsys.readouterr().out


def test_simulate_explicit_demand_and_transcript(tmp_path, capsys):
    path = tmp_path / "g.hpda"
    path.write_text(format_hpda(build_grouping(3, 2, 4)))
    dump = tmp_path / "transcript.txt"
    rc = main(
        [
            "simulate", str(path), "--files", "6", "--packet-bytes", "4",
            "--demand", "6,5,4,3,2,1", "--transcript", str(dump),
        ]
    )
    assert rc == 0
    lines = dump.read_text().splitlines()
    assert len(lines) == 6 + 3 * 18
    assert lines[0].startswith("S 1 ")


@pytest.mark.parametrize("demand", ["1,2,3,4,5,+6", "1,2,3,4,5,\u0666", "1,,2,3,4,5", "1,2,3,4,5,6_0", ""])
def test_simulate_takes_a_demand_in_ascii_digits_only(tmp_path, capsys, demand):
    # int() would read "+6" and the Arabic-Indic six; an array file may not.
    path = tmp_path / "g.hpda"
    path.write_text(format_hpda(build_grouping(3, 2, 4)))
    assert main(["simulate", str(path), "--files", "6", "--demand", demand]) == 2
    bad = next(tok for tok in demand.split(",") if not (tok.isascii() and tok.isdigit()))
    expected = f"error: --demand takes comma-separated integers in ASCII digits, got {bad!r}\n"
    assert capsys.readouterr() == ("", expected)


def test_simulate_refuses_a_demand_past_the_digit_limit(tmp_path, capsys):
    path = tmp_path / "g.hpda"
    path.write_text(format_hpda(build_grouping(3, 2, 4)))
    limit = sys.get_int_max_str_digits()
    assert main(["simulate", str(path), "--files", "6", "--demand", "1,2,3,4,5," + "6" * (limit + 1)]) == 2
    assert capsys.readouterr() == ("", f"error: --demand takes integers of at most {limit} digits\n")


def test_simulate_demand_tokens_may_be_spaced(tmp_path, capsys):
    path = tmp_path / "g.hpda"
    path.write_text(format_hpda(build_grouping(3, 2, 4)))
    assert main(["simulate", str(path), "--files", "6", "--demand", "1, 2,3,4,5 ,6"]) == 0
    assert capsys.readouterr().out.startswith("success R1=6/15 R2=18/15\n")


def test_simulate_too_few_files(tmp_path, capsys):
    path = tmp_path / "g.hpda"
    path.write_text(format_hpda(build_grouping(3, 2, 4)))
    assert main(["simulate", str(path), "--files", "5"]) == 2


def test_simulate_refuses_a_demand_beyond_the_library_before_drawing(tmp_path, capsys, monkeypatch):
    def no_draw(*args):
        raise AssertionError("the library was drawn")

    monkeypatch.setattr(hpda.simulation, "_draw", no_draw)
    path = tmp_path / "g.hpda"
    path.write_text(format_hpda(build_grouping(3, 2, 4)))
    assert main(["simulate", str(path), "--files", "6", "--demand", "1,2,3,4,5,7"]) == 2
    assert capsys.readouterr() == ("", "error: demand index 7 exceeds library size 6\n")


def test_compare_golden_point(capsys):
    rc = main(["compare", "--k1", "3", "--k2", "2", "--n", "6", "--t", "4", "--grid-step", "1/4"])
    assert rc == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].split("\t") == ["scheme", "t", "m1_ratio", "m2_ratio", "r1", "r2", "f"]
    table = {line.split("\t")[0]: line.split("\t") for line in lines[1:]}
    assert table["grouping"][4] == "0.4000"
    assert table["grouping"][6] == "15"
    assert table["bound"][4] == "0.4000"
    assert table["hybrid-mn"][4] == "-"  # infeasible at these ratios
    assert "knmd-search" in table and "wwcy-search" in table


def test_compare_json_format(capsys):
    rc = main(
        ["compare", "--k1", "2", "--k2", "3", "--n", "6", "--t", "5",
         "--grid-step", "1/2", "--format", "json"]
    )
    assert rc == 0
    rows = json.loads(capsys.readouterr().out)
    hybrid = [r for r in rows if r["scheme"] == "hybrid-mn"][0]
    assert hybrid["feasible"] is True
    assert hybrid["r1"] == "1/2"
    assert hybrid["f"] == 6
    grouping = [r for r in rows if r["scheme"] == "grouping"][0]
    assert grouping["r1_value"] == pytest.approx(1 / 6)


# (scheme, t, m1_ratio, m2_ratio, r1, r2, f, feasible, alpha, beta) of
# compare --k1 3 --k2 2 --n 6 --t 4,5 at the default grid step 1/100.
COMPARE_GOLDEN_ROWS = [
    ("bound", 4, "2/5", "4/15", "2/5", "6/5", None, True, None, None),
    ("grouping", 4, "2/5", "4/15", "2/5", "6/5", 15, True, None, None),
    ("hybrid-mn", 4, "2/5", "4/15", None, None, None, False, None, None),
    ("knmd", 4, "2/5", "4/15", "26/15", "6/5", None, True, None, None),
    ("knmd-search", 4, "2/5", "4/15", "267/500", "361/300", None, True, "47/100", "0"),
    ("wwcy", 4, "2/5", "4/15", "26/25", "6/5", None, True, None, None),
    ("wwcy-search", 4, "2/5", "4/15", "267/500", "361/300", None, True, "47/100", "0"),
    ("bound", 5, "2/3", "1/6", "1/6", "3/2", None, True, None, None),
    ("grouping", 5, "2/3", "1/6", "1/6", "3/2", 6, True, None, None),
    ("hybrid-mn", 5, "2/3", "1/6", None, None, None, False, None, None),
    ("knmd", 5, "2/3", "1/6", "2/3", "3/2", None, True, None, None),
    ("knmd-search", 5, "2/3", "1/6", "94/375", "451/300", None, True, "67/100", "0"),
    ("wwcy", 5, "2/3", "1/6", "1/2", "3/2", None, True, None, None),
    ("wwcy-search", 5, "2/3", "1/6", "94/375", "451/300", None, True, "67/100", "0"),
]


def test_compare_default_step_golden_json(capsys):
    rc = main(["compare", "--k1", "3", "--k2", "2", "--n", "6", "--t", "4,5", "--format", "json"])
    assert rc == 0
    keys = ("scheme", "t", "m1_ratio", "m2_ratio", "r1", "r2", "f", "feasible", "alpha", "beta")
    rows = json.loads(capsys.readouterr().out)
    assert [tuple(row[k] for k in keys) for row in rows] == COMPARE_GOLDEN_ROWS


# The table compare --k1 3 --k2 2 --n 6 --t 4,5 prints, byte for byte.
COMPARE_GOLDEN_TABLE = (
    "scheme\tt\tm1_ratio\tm2_ratio\tr1\tr2\tf\n"
    "bound\t4\t0.4000\t0.2667\t0.4000\t1.2000\t-\n"
    "grouping\t4\t0.4000\t0.2667\t0.4000\t1.2000\t15\n"
    "hybrid-mn\t4\t0.4000\t0.2667\t-\t-\t-\n"
    "knmd\t4\t0.4000\t0.2667\t1.7333\t1.2000\t-\n"
    "knmd-search\t4\t0.4000\t0.2667\t0.5340\t1.2033\t-\n"
    "wwcy\t4\t0.4000\t0.2667\t1.0400\t1.2000\t-\n"
    "wwcy-search\t4\t0.4000\t0.2667\t0.5340\t1.2033\t-\n"
    "bound\t5\t0.6667\t0.1667\t0.1667\t1.5000\t-\n"
    "grouping\t5\t0.6667\t0.1667\t0.1667\t1.5000\t6\n"
    "hybrid-mn\t5\t0.6667\t0.1667\t-\t-\t-\n"
    "knmd\t5\t0.6667\t0.1667\t0.6667\t1.5000\t-\n"
    "knmd-search\t5\t0.6667\t0.1667\t0.2507\t1.5033\t-\n"
    "wwcy\t5\t0.6667\t0.1667\t0.5000\t1.5000\t-\n"
    "wwcy-search\t5\t0.6667\t0.1667\t0.2507\t1.5033\t-\n"
)


def test_compare_default_step_golden_table(capsys):
    assert main(["compare", "--k1", "3", "--k2", "2", "--n", "6", "--t", "4,5"]) == 0
    assert capsys.readouterr().out == COMPARE_GOLDEN_TABLE


def test_compare_rejects_grid_beyond_bound(capsys):
    argv = ["compare", "--k1", "3", "--k2", "2", "--n", "6", "--t", "4"]
    assert main([*argv, "--grid-step", "1/1000000000000"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "1000000000001 points per axis" in err
    assert main([*argv, "--grid-step", "1/0"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("step", ["1e-100000000", "1e-10000000", "1e-5000", "1e-400"])
def test_compare_refuses_a_huge_step_exponent_from_its_text(capsys, step):
    # Fraction would expand each of these into 10**N digits, or hang, before
    # the axis bound could refuse it.
    argv = ["compare", "--k1", "3", "--k2", "2", "--n", "6", "--t", "4", "--grid-step", step]
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {step!r} has more than 100 digits, or more than 2 in its exponent\n")
    assert "set_int_max_str_digits" not in err


# (scheme, r1, r2, alpha, beta) of the search rows of compare --k1 3 --k2 2
# --n 6 --t 4 at each step.
STEP_GOLDEN_ROWS = {
    "1e-4": [
        ("knmd-search", "26667/50000", "36001/30000", "4667/10000", "0"),
        ("wwcy-search", "26667/50000", "36001/30000", "4667/10000", "0"),
    ],
    "2/7": [
        ("knmd-search", "97/175", "137/105", "4/7", "0"),
        ("wwcy-search", "97/175", "137/105", "4/7", "0"),
    ],
    "0.01": [(row[0], *row[4:6], *row[8:]) for row in COMPARE_GOLDEN_ROWS if row[1] == 4 and row[8]],
}
STEP_GOLDEN_ROWS["1/100"] = STEP_GOLDEN_ROWS["0.01"]


@pytest.mark.parametrize("step", sorted(STEP_GOLDEN_ROWS))
def test_compare_keeps_the_search_rows_of_a_short_step_text(capsys, step):
    argv = ["compare", "--k1", "3", "--k2", "2", "--n", "6", "--t", "4", "--format", "json"]
    assert main([*argv, "--grid-step", step]) == 0
    rows = json.loads(capsys.readouterr().out)
    keys = ("scheme", "r1", "r2", "alpha", "beta")
    assert [tuple(row[k] for k in keys) for row in rows if row["alpha"]] == STEP_GOLDEN_ROWS[step]


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_compare_takes_a_repeated_t_once(capsys, fmt):
    argv = ["compare", "--k1", "3", "--k2", "2", "--n", "6", "--format", fmt, "--t"]
    assert main([*argv, "4,5"]) == 0
    plain = capsys.readouterr()
    assert main([*argv, "4,4,5,4"]) == 0
    assert capsys.readouterr() == plain


def test_compare_env_var_sets_default_format(capsys, monkeypatch):
    monkeypatch.setenv("HPDA_FORMAT", "json")
    rc = main(["compare", "--k1", "3", "--k2", "2", "--n", "6", "--t", "", "--grid-step", "1"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out) == []


def test_compare_refuses_an_unknown_hpda_format(capsys, monkeypatch):
    argv = ["compare", "--k1", "3", "--k2", "2", "--n", "6", "--t", "4", "--grid-step", "1/2"]
    assert main(argv) == 0
    table = capsys.readouterr().out
    monkeypatch.setenv("HPDA_FORMAT", "xml")
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: HPDA_FORMAT='xml' is not one of table, json\n")
    # An explicit --format wins over the environment.
    assert main([*argv, "--format", "table"]) == 0
    assert capsys.readouterr().out == table
    monkeypatch.setenv("HPDA_FORMAT", "")
    assert main(argv) == 0
    assert capsys.readouterr().out == table


def test_compare_refuses_an_unknown_format_option(capsys):
    argv = ["compare", "--k1", "3", "--k2", "2", "--n", "6", "--t", "4", "--format", "xml"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "argument --format: invalid choice: 'xml' (choose from " in err


def test_compare_grid_step_default_is_read_from_analysis(capsys, monkeypatch):
    # The parser has no grid step of its own: compare_sweep reads _GRID_STEP.
    argv = ["compare", "--k1", "3", "--k2", "2", "--n", "6", "--t", "4"]
    assert main([*argv, "--grid-step", "1/4"]) == 0
    golden = capsys.readouterr().out
    monkeypatch.setattr(hpda.analysis, "_GRID_STEP", Fraction(1, 4))
    assert main(argv) == 0
    assert capsys.readouterr().out == golden


def test_compare_empty_t_list_table(capsys):
    rc = main(["compare", "--k1", "3", "--k2", "2", "--n", "6"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines() == ["scheme\tt\tm1_ratio\tm2_ratio\tr1\tr2\tf"]


def test_compare_rejects_out_of_range_t(capsys):
    assert main(["compare", "--k1", "3", "--k2", "2", "--n", "6", "--t", "2"]) == 2


@pytest.mark.parametrize(
    "argv, stderr",
    [
        (["--t", "4,2", "--grid-step", "0"], "error: t must satisfy 2 < t < 6, got 2\n"),
        (["--t", "2", "--grid-step", "1/0"], "error: t must satisfy 2 < t < 6, got 2\n"),
        (["--t", "4", "--grid-step", "1/0"], "error: Fraction(1, 0)\n"),
        (["--grid-step", "1/0"], "error: Fraction(1, 0)\n"),
    ],
    ids=["bad-t-before-zero-step", "bad-t-before-unreadable-step", "unreadable-step", "no-t"],
)
def test_compare_refuses_every_t_before_reading_the_grid_step(capsys, argv, stderr):
    # Every t's closed forms run before the step is read, even with no t at all.
    assert main(["compare", "--k1", "3", "--k2", "2", "--n", "6", *argv]) == 2
    assert capsys.readouterr() == ("", stderr)


def test_compare_rejects_non_integer_t(capsys):
    assert main(["compare", "--k1", "3", "--k2", "2", "--n", "6", "--t", "x"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("t", ["+4", "\u00b2", "4,x", "4.0"])
def test_compare_takes_t_in_ascii_digits_only(capsys, t):
    assert main(["compare", "--k1", "3", "--k2", "2", "--n", "6", "--t", t]) == 2
    bad = next(tok for tok in t.split(",") if not (tok.isascii() and tok.isdigit()))
    assert capsys.readouterr() == ("", f"error: --t takes comma-separated integers in ASCII digits, got {bad!r}\n")


def test_compare_skips_blank_t_tokens(capsys):
    argv = ["compare", "--k1", "3", "--k2", "2", "--n", "6", "--grid-step", "1/4", "--t"]
    assert main([*argv, "4,5"]) == 0
    plain = capsys.readouterr()
    assert main([*argv, ",4,, 5 ,"]) == 0
    assert capsys.readouterr() == plain


@pytest.mark.parametrize(
    "argv",
    [
        ["construct-pda", "mn", "--k", "3", "--t", "1", "--out"],
        ["construct-hpda", "grouping", "--k1", "3", "--k2", "2", "--t", "4", "--out"],
        ["simulate", "{hpda}", "--files", "6", "--transcript"],
    ],
    ids=["construct-pda", "construct-hpda", "simulate"],
)
def test_unwritable_output_path_exits_2(tmp_path, capsys, argv):
    hpda_path = tmp_path / "g.hpda"
    hpda_path.write_text(format_hpda(build_grouping(3, 2, 4)))
    argv = [a.format(hpda=hpda_path) for a in argv] + [str(tmp_path / "missing" / "x")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # nothing is printed before the failed write
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv, name, error, code, stderr",
    [
        (["verify", "{hpda}"], "verify_hpda", ValueError, 2, "error: boom\n"),
        (["simulate", "{hpda}", "--files", "6"], "simulate", ZeroDivisionError, 2, "error: boom\n"),
        (["simulate", "{hpda}", "--files", "6"], "simulate", DecodingError, 1, "failure: boom\n"),
        (["verify", "{hpda}"], "verify_hpda", InvalidArrayError, 3, "error: boom\n"),
    ],
    ids=["value-error", "zero-division", "decoding-error", "invalid-array-error"],
)
def test_main_alone_maps_exceptions_to_exit_codes(
    tmp_path, capsys, monkeypatch, argv, name, error, code, stderr
):
    # The handlers catch nothing; whatever a library call raises inside them
    # reaches main, which prints one line.
    hpda_path = tmp_path / "g.hpda"
    hpda_path.write_text(format_hpda(build_grouping(3, 2, 4)))

    def boom(*args, **kwargs):
        raise error("boom")

    monkeypatch.setattr(hpda.cli, name, boom)
    assert main([a.format(hpda=hpda_path) for a in argv]) == code
    captured = capsys.readouterr()
    assert captured.err == stderr
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["construct-hpda", "grouping", "--k1", "-2", "--k2", "-2", "--t", "3"],
        ["construct-hpda", "grouping", "--k1", "0", "--k2", "3", "--t", "2"],
        ["compare", "--k1", "-2", "--k2", "-2", "--n", "6", "--t", "3"],
    ],
    ids=["grouping-negative", "grouping-zero", "compare-negative"],
)
def test_non_positive_grouping_dimensions_exit_2(capsys, argv):
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: K1 and K2 must be positive\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["construct-pda", "mn", "--k", "40", "--t", "20"],
        ["construct-hpda", "grouping", "--k1", "8", "--k2", "5", "--t", "20"],
    ],
    ids=["construct-pda", "construct-hpda"],
)
def test_mn_grid_over_budget_exits_2(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: MN array for k=40, t=20 has 5513861152800 cells, more than 10000000\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["construct-pda", "mn", "--k", "1000000", "--t", "500000"],
        ["construct-hpda", "grouping", "--k1", "1000", "--k2", "1000", "--t", "500000"],
    ],
    ids=["construct-pda", "construct-hpda"],
)
def test_huge_mn_grid_is_refused_at_once(capsys, monkeypatch, argv):
    refuse_huge_combs(monkeypatch)
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == (
        "error: MN array for k=1000000, t=500000 has about 10^301033 cells, more than 10000000\n"
    )


@pytest.mark.parametrize(
    "k, t, magnitude", [(300, 45000, 27090), (1000, 500000, 301027)], ids=["300x300", "1000x1000"]
)
def test_compare_refuses_a_huge_f_at_once(capsys, monkeypatch, k, t, magnitude):
    # log10 C(90000, 45000) = 27090.12 and log10 C(10^6, 5*10^5) = 301026.9,
    # above str()'s 4,300-digit limit: the refusal comes before any closed form.
    refuse_huge_combs(monkeypatch)
    start = time.perf_counter()
    argv = ["compare", "--k1", str(k), "--k2", str(k), "--n", "6", "--t", str(t)]
    assert main(argv) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: F = C({k * k}, {t}) is about 10^{magnitude}, more than 1000 digits\n"
    )


@pytest.mark.parametrize(
    "argv, stderr",
    [
        (
            ["--k1", "2", "--k2", "15001", "--t", "30001", "--grid-step", "1/10"],
            "error: hybrid F = C(2, 1)*C(15001, 7500) is about 10^4514, more than 1000 digits\n",
        ),
        (
            ["--k1", "2", "--k2", "1700", "--t", "1720"],
            "error: F = C(3400, 1720) is about 10^1022, more than 1000 digits\n",
        ),
    ],
    ids=["hybrid", "rounded-once"],
)
def test_compare_refuses_a_huge_hybrid_f_and_rounds_once(capsys, monkeypatch, argv, stderr):
    # log10(C(2, 1)*C(15001, 7500)) = 4513.87 and log10 C(3400, 1720) = 1021.54.
    # The grouping F = C(30002, 30001) of the first is small and computed, so
    # math.comb fails only where its result could exceed 1,000 digits.
    comb = math.comb

    def guarded(k, t):
        assert min(t, k - t) * math.log10(k) <= 1000, f"math.comb({k}, {t}) ran"
        return comb(k, t)

    monkeypatch.setattr(math, "comb", guarded)
    start = time.perf_counter()
    assert main(["compare", "--n", "6", *argv]) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr() == ("", stderr)


def test_library_over_budget_exits_2(tmp_path, capsys):
    path = tmp_path / "g.hpda"
    path.write_text(format_hpda(build_grouping(3, 2, 4)))
    start = time.perf_counter()
    assert main(["simulate", str(path), "--files", "100000000"]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: library of 100000000 files x 15 packets x 64 bytes has 96000000000 bytes,"
        " more than 268435456\n"
    )


def test_usage_errors_exit_2():
    assert main(["construct-pda", "mn", "--k", "3"]) == 2
    assert main(["bogus"]) == 2


def test_pipeline_construct_verify_simulate(tmp_path, capsys):
    """Full pipeline over every feasible parameter point with at most 10 users."""
    checked = 0
    for k1 in range(2, 11):
        for k2 in range(1, 11):
            k = k1 * k2
            if k > 10:
                continue
            for t in range(k2 + 1, k):
                path = tmp_path / f"{k1}-{k2}-{t}.hpda"
                rc = main(
                    ["construct-hpda", "grouping", "--k1", str(k1), "--k2", str(k2),
                     "--t", str(t), "--out", str(path)]
                )
                assert rc == 0
                assert main(["verify", str(path)]) == 0
                rc = main(["simulate", str(path), "--files", str(k), "--packet-bytes", "4"])
                assert rc == 0
                checked += 1
    capsys.readouterr()
    assert checked > 30
