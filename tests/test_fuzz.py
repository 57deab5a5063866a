"""Seeded fuzz of the text parsers and the command line.

The corpus mutates valid PDA/HPDA texts and argv lists: tokens swapped,
dropped or replaced, files truncated, odd tokens inserted (``0``, ``00``,
``+1``, ``1_0``, ``-5``, ``²``, ``٣``), huge header values, ids at or above
2**31 and 2**63, CRLF, tabs, and ``\\x0c``/``\\u2028`` line breaks.  Every
entry runs through :func:`hpda.cli.main` in this process.

``fuzz_outcomes.json`` holds the outcome of every entry (exit code and
normalised stderr) as the per-token parser produced it, before the bulk
parser replaced it; the bulk parser must reproduce each one.  Regenerate it
only for a deliberate change of behaviour:

    PYTHONPATH=src python tests/test_fuzz.py --record

Huge header values never go into K1 of an HPDA beyond 10**5: the per-token
parser allocated K1 lists before checking any line, so larger values could
not be recorded.  ``test_hpda.py`` tests that pre-check on its own.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
import sys
import tempfile
from pathlib import Path

from hpda import (
    PdaFormatError,
    build_grouping,
    build_hybrid,
    format_hpda,
    format_pda,
    mn_pda,
    parse_hpda,
    parse_pda,
)
from hpda.cli import main

OUTCOMES = Path(__file__).with_name("fuzz_outcomes.json")
SEED = 2026
TEXTS_PER_BASE = 60
ARGV_MUTANTS = 120
ODD_TOKENS = ("0", "00", "+1", "1_0", "-5", "²", "٣")
HUGE = (2**31, 2**63, 10**30, 10**400)
HPDA_K1_CAP = 10**5


def _base_texts() -> dict[str, str]:
    return {
        "pda-3-1": format_pda(mn_pda(3, 1)),
        "pda-4-2": format_pda(mn_pda(4, 2)),
        "grouping-3-2-4": format_hpda(build_grouping(3, 2, 4)),
        "grouping-3-1-2": format_hpda(build_grouping(3, 1, 2)),
        "hybrid-2-1-3-1": format_hpda(build_hybrid(mn_pda(2, 1), mn_pda(3, 1))),
    }


def _mutate_tokens(rows: list[list[str]], skip: int, rng: random.Random) -> str:
    """Apply one token-level mutation in place; returns its name.

    ``skip`` leading tokens of each grid row are mirror tokens, not cells.
    """
    cells = [(i, j) for i, row in enumerate(rows) for j in range(len(row))]
    grid_cells = [(i, j) for i, j in cells if i > 0 and j >= skip]
    kind = rng.choice(("swap", "drop", "odd", "odd-insert", "huge-header", "big-id"))
    if kind == "swap":
        (a, b), (c, d) = rng.sample(cells, 2)
        rows[a][b], rows[c][d] = rows[c][d], rows[a][b]
    elif kind == "drop":
        i, j = rng.choice(cells)
        del rows[i][j]
    elif kind in ("odd", "odd-insert"):
        i, j = rng.choice(grid_cells or cells)
        token = rng.choice(ODD_TOKENS)
        if kind == "odd":
            rows[i][j] = token
        else:
            rows[i].insert(j, token)
    elif kind == "huge-header":
        field = rng.randrange(1, len(rows[0]))
        value = rng.choice(HUGE)
        if rows[0][0] == "HPDA" and field == 1:
            value = min(value, HPDA_K1_CAP)
        rows[0][field] = str(value)
    else:
        i, j = rng.choice(grid_cells)
        rows[i][j] = str(rng.choice((2**31, 2**63)) + rng.randrange(3))
    return kind


def _layout(rows: list[list[str]], rng: random.Random) -> tuple[str, str]:
    """Join the rows into a text with one seeded whitespace layout."""
    kind = rng.choice(("plain", "plain", "crlf", "tabs", "ff", "u2028", "truncate"))
    lines = [" ".join(row) for row in rows]
    if kind == "tabs":
        lines = [line.replace(" ", "\t") if rng.random() < 0.5 else line for line in lines]
    breaks = {"crlf": "\r\n", "ff": "\x0c", "u2028": "\u2028"}.get(kind, "\n")
    text = "".join(line + (breaks if rng.random() < 0.7 else "\n") for line in lines)
    if kind == "truncate":
        text = text[: rng.randrange(len(text))]
    return kind, text


def text_corpus() -> list[tuple[str, str]]:
    """(label, text) pairs: each base text unchanged, then seeded mutants."""
    rng = random.Random(SEED)
    corpus = []
    for name, base in _base_texts().items():
        corpus.append((name, base))
        for n in range(TEXTS_PER_BASE):
            rows = [line.split() for line in base.splitlines()]
            skip = int(rows[0][1]) if rows[0][0] == "HPDA" else 0
            kinds = [_mutate_tokens(rows, skip, rng) for _ in range(rng.choice((0, 1, 1, 2)))]
            layout, text = _layout(rows, rng)
            corpus.append((f"{name}#{n}:{'+'.join(kinds) or 'none'}:{layout}", text))
    return corpus


def _base_argvs(work: Path) -> list[list[str]]:
    return [
        ["construct-pda", "mn", "--k", "3", "--t", "1"],
        ["construct-hpda", "grouping", "--k1", "3", "--k2", "2", "--t", "4"],
        ["construct-hpda", "hybrid", "--a", str(work / "a.pda"), "--b", str(work / "b.pda")],
        ["verify", str(work / "g.hpda")],
        ["simulate", str(work / "g.hpda"), "--files", "6", "--packet-bytes", "4", "--seed", "1"],
        ["simulate", str(work / "g.hpda"), "--files", "6", "--demand", "1,2,3,4,5,6"],
        ["compare", "--k1", "3", "--k2", "2", "--n", "6", "--t", "4,5", "--grid-step", "1/4"],
    ]


def argv_corpus(work: Path) -> list[tuple[str, list[str]]]:
    """(label, argv) pairs: each base argv unchanged, then seeded mutants."""
    (work / "a.pda").write_text(format_pda(mn_pda(2, 1)))
    (work / "b.pda").write_text(format_pda(mn_pda(3, 1)))
    (work / "g.hpda").write_text(format_hpda(build_grouping(3, 2, 4)))
    bases = _base_argvs(work)
    corpus = [(f"argv-{i}", argv) for i, argv in enumerate(bases)]
    rng = random.Random(SEED + 1)
    for n in range(ARGV_MUTANTS):
        i = rng.randrange(len(bases))
        argv = list(bases[i])
        kind = rng.choice(("swap", "drop", "odd"))
        if kind == "swap":
            a, b = rng.sample(range(len(argv)), 2)
            argv[a], argv[b] = argv[b], argv[a]
        elif kind == "drop":
            del argv[rng.randrange(len(argv))]
        else:
            argv[rng.randrange(1, len(argv))] = rng.choice(ODD_TOKENS)
        corpus.append((f"argv-{i}#{n}:{kind}", argv))
    return corpus


def _normalise(stderr: str, work: Path) -> str:
    """Stderr without argparse's usage block, whose wrapping depends on the
    terminal width, without the quotes around the choices it lists, which
    newer Pythons (3.13.13, for one) leave out, and with the temporary
    directory named ``<tmp>``."""
    kept = []
    in_usage = False
    for line in stderr.splitlines():
        if line.startswith("usage:"):
            in_usage = True
        elif in_usage and line[:1].isspace():
            continue
        else:
            in_usage = False
            kept.append(line)
    text = "\n".join(kept).replace(str(work), "<tmp>")
    return re.sub(r"\(choose from [^)]*\)", lambda m: m[0].replace("'", ""), text)


def run(argv: list[str], work: Path) -> list:
    """[exit code, normalised stderr] of one command; a traceback is recorded
    as exit code None and the exception's type."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception as exc:  # recorded, then rejected by the assertions
            return [None, f"traceback: {type(exc).__name__}"]
    return [code, _normalise(err.getvalue(), work)]


def outcomes(work: Path) -> list[list]:
    """[label, exit code, stderr] of every corpus entry, in corpus order."""
    results = []
    for n, (label, text) in enumerate(text_corpus()):
        path = work / f"t{n}.txt"
        path.write_bytes(text.encode("utf-8"))
        rel = f"<tmp>/t{n}.txt"
        commands = [["verify", str(path)]]
        if label.startswith("pda"):
            commands.append(["construct-hpda", "hybrid", "--a", str(path), "--b", str(path)])
        else:
            commands.append(["simulate", str(path), "--files", "9", "--packet-bytes", "3"])
        for argv in commands:
            results.append([f"{label} {argv[0]} {rel}", *run(argv, work)])
    for label, argv in argv_corpus(work):
        results.append([label, *run(argv, work)])
    return results


def test_fuzz_outcomes_match_record(tmp_path):
    got = outcomes(tmp_path)
    assert [r for r in got if r[1] not in (0, 1, 2, 3)] == []
    assert [r for r in got if "Traceback" in r[2]] == []
    recorded = json.loads(OUTCOMES.read_text(encoding="utf-8"))
    assert len(got) == len(recorded)
    assert [r for r, e in zip(got, recorded) if r != e] == []


def test_fuzz_parse_format_parse_is_a_fixed_point():
    parsed = 0
    for label, text in text_corpus():
        parse, fmt = (parse_pda, format_pda) if label.startswith("pda") else (parse_hpda, format_hpda)
        try:
            first = parse(text)
        except PdaFormatError:
            continue
        parsed += 1
        again = parse(fmt(first))
        assert again == first, label
        assert fmt(again) == fmt(first), label
    assert parsed >= len(_base_texts())


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    with tempfile.TemporaryDirectory() as tmp:
        recorded = outcomes(Path(tmp))
    OUTCOMES.write_text(json.dumps(recorded, indent=0, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"recorded {len(recorded)} outcomes in {OUTCOMES}")
