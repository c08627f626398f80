"""Seeded mutation fuzzing of every input format the commands read.

One small seeded pipeline writes a corpus holding each format: the
scenario CSVs, a selection MVREPORT, all four MVMODEL kinds, MVDISPATCH
documents, a --template file and a --config file. Each case mutates one
corpus file (delete a span, insert a token, flip a bit, replace a number,
duplicate or drop a line) and runs a command that reads it through
`cli.main` in-process. The README promises exit 2, never 1, for bad
input: every case must return 0 or 2, print no internal error, and leave
no output file when it fails. A mutated dispatcher that parses and
renders must decide as its rendering does on seeded vectors.

A case is replayed from its index alone: `mutate(data, case_rng(case))`.
Failures name the seed and the case index.

A flag pass gives every numeric flag of `gen`, `select`, `train` and `cv`
each value of a fixed set, and every `lo,hi` flag of `gen` each pair of
another, under the same contract.
"""

from __future__ import annotations

import argparse
import io
import math
import re
import shutil
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from mvkit import DEFAULT_TEMPLATE, deserialize, eval_dispatcher, interpret_rendered, render_template
from mvkit.cli import _int_pair, _pair, build_parser, main
from mvkit.nodes import Branch
from mvkit.rng import Rng, mix_seed

SEED = 20140613
CASES_PER_PAIR = 72
DISPATCHER_CASES = 1500
MAX_PROBE_ARITY = 64

TOKENS = (
    b"1e309", b"-1e309", b"nan", b"inf", b"-0", b"1_0", b"0x1", b"\xff", b"\xc3", b"-", b",", b"=",
    b";", b" ", b"\n", b"0", b"1", b"-1", b"2", b"99999999999999999999", b"0.5", b"[end]",
    b"[table t]", b"L 1", b"B 0 1 1 2",
)
NUMBERS = (b"0", b"1", b"2", b"3", b"-1", b"0.5", b"1e309", b"nan", b"99999999999999999999")

TRAIN = ("train", "--scenario", "scen", "--selection", "sel.rep")
SETUP = (
    ("gen", "--versions", "4", "--datasets", "40", "--features", "2", "--regions", "3", "--seed", "5",
     "--feature-range", "1,9", "--test-seed", "6", "--test-datasets", "20", "--out-dir", "scen"),
    ("select", "--scenario", "scen", "--max-versions", "3", "--out", "sel.rep"),
    (*TRAIN, "--algorithm", "tree", "--prune", "--seed", "7", "--out", "tree.mv"),
    (*TRAIN, "--algorithm", "rules", "--out", "rules.mv"),
    (*TRAIN, "--algorithm", "regtree", "--out", "reg.mv"),
    (*TRAIN, "--algorithm", "linreg", "--out", "lin.mv"),
    ("emit", "--model", "tree.mv", "--out", "disp.txt"),
    ("emit", "--model", "rules.mv", "--out", "rules-disp.txt"),
)
CONFIG = "scenario=scen\nmax_versions=3\nmode=size\nloss_tol=0.05\nreport_mode=human\n"

SIM = ("simulate", "--scenario", "scen/test", "--selection", "sel.rep")
CV = ("cv", "--scenario", "scen", "--selection", "sel.rep", "--seed", "7", "--k", "3")
# (the corpus file a case mutates, a command that reads it); every output is named out.*
PAIRS = (
    ("scen/versions.csv", ("select", "--scenario", "scen", "--max-versions", "3", "--out", "out.rep")),
    ("scen/runtimes.csv", ("select", "--scenario", "scen", "--max-versions", "3", "--mode", "size",
                           "--loss-tol", "0.05", "--out", "out.rep")),
    ("scen/datasets.csv", (*TRAIN, "--algorithm", "tree", "--out", "out.mv")),
    ("scen/runtimes.csv", (*CV, "--algorithm", "rules", "--out", "out.rep")),
    ("sel.rep", (*CV, "--algorithm", "tree", "--out", "out.rep")),
    ("tree.mv", ("emit", "--model", "tree.mv", "--out", "out.txt", "--template")),
    ("rules.mv", ("emit", "--model", "rules.mv", "--out", "out.txt")),
    ("reg.mv", (*SIM, "--model", "reg.mv", "--out", "out.rep")),
    ("lin.mv", (*SIM, "--model", "lin.mv", "--out", "out.rep")),
    ("disp.txt", (*SIM, "--dispatcher", "disp.txt", "--out", "out.rep")),
    ("scen/test/runtimes.csv", (*SIM, "--selector", "oracle", "--out", "out.rep")),
    ("scen/datasets.csv", (*SIM, "--selector", "baseline", "--train-scenario", "scen", "--out", "out.rep")),
    ("tpl.txt", ("emit", "--model", "tree.mv", "--out", "out.txt", "--template", "tpl.txt",
                 "--rendered-out", "out.c")),
    ("c.cfg", ("select", "--config", "c.cfg", "--out", "out.rep")),
)


def case_rng(case: int) -> Rng:
    return Rng(mix_seed(SEED, case))


def mutate(data: bytes, rng: Rng) -> bytes:
    """One to three seeded edits of ``data``."""
    for _ in range(rng.randint(1, 3)):
        op = rng.randint(0, 5)
        at = rng.randint(0, len(data))
        if op == 0:  # delete a span
            data = data[:at] + data[at + rng.randint(1, 8):]
        elif op == 1:  # insert a token
            data = data[:at] + TOKENS[rng.randint(0, len(TOKENS) - 1)] + data[at:]
        elif op == 2 and data:  # flip one bit
            at = min(at, len(data) - 1)
            data = data[:at] + bytes([data[at] ^ (1 << rng.randint(0, 7))]) + data[at + 1:]
        elif op == 3:  # replace a number
            numbers = list(re.finditer(rb"-?\d+(?:\.\d+)?", data))
            if numbers:
                m = numbers[rng.randint(0, len(numbers) - 1)]
                data = data[:m.start()] + NUMBERS[rng.randint(0, len(NUMBERS) - 1)] + data[m.end():]
        else:  # duplicate or drop a line
            lines = data.split(b"\n")
            k = rng.randint(0, len(lines) - 1)
            lines[k:k + 1] = [lines[k]] * (2 if op == 4 else 0)
            data = b"\n".join(lines)
    return data


def run_main(argv) -> tuple[int, str]:
    stderr = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
        code = main(list(argv))
    return code, stderr.getvalue()


def files_under(root: Path) -> set[Path]:
    return {p for p in root.rglob("*") if p.is_file()}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("fuzz")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        for argv in SETUP:
            code, err = run_main(argv)
            assert code == 0, (argv, err)
    (root / "tpl.txt").write_text(DEFAULT_TEMPLATE)
    (root / "c.cfg").write_text(CONFIG)
    return root


@pytest.mark.parametrize("pair", range(len(PAIRS)), ids=[f"{t}-{a[0]}" for t, a in PAIRS])
def test_mutated_input_exits_0_or_2_and_a_failure_writes_nothing(corpus, monkeypatch, pair):
    monkeypatch.chdir(corpus)
    target, argv = PAIRS[pair]
    original = (corpus / target).read_bytes()
    inputs = files_under(corpus)
    failures = []
    try:
        for case in range(pair * CASES_PER_PAIR, (pair + 1) * CASES_PER_PAIR):
            (corpus / target).write_bytes(mutate(original, case_rng(case)))
            code, err = run_main(argv)
            made = files_under(corpus) - inputs
            for path in made:
                path.unlink()
            if code not in (0, 2) or "internal error" in err or (code != 0 and made):
                written = sorted(str(p.relative_to(corpus)) for p in made)
                failures.append(f"seed {SEED} case {case}: exit {code}, wrote {written}: {err.strip()}")
    finally:
        (corpus / target).write_bytes(original)
    assert not failures, f"{target} -> {' '.join(argv)}:\n" + "\n".join(failures[:5])


def probe_vectors(spec, rng: Rng) -> list[tuple[float, ...]]:
    """Each finite threshold, its neighbours, and uniform draws, in every feature."""
    cuts = [n.threshold for n in spec.nodes if isinstance(n, Branch) and math.isfinite(n.threshold)]
    values = [v for t in cuts for v in (t, math.nextafter(t, -math.inf), math.nextafter(t, math.inf))]
    values += [rng.uniform(-20.0, 20.0) for _ in range(8)]
    return [tuple(values[rng.randint(0, len(values) - 1)] for _ in range(spec.feature_arity))
            for _ in range(24)]


@pytest.mark.parametrize("name", ["disp.txt", "rules-disp.txt"])
def test_a_mutated_dispatcher_that_renders_decides_as_its_rendering(corpus, name):
    original = (corpus / name).read_bytes()
    rendered_count = 0
    first = len(PAIRS) * CASES_PER_PAIR  # case numbers follow the command cases
    for case in range(first, first + DISPATCHER_CASES):
        rng = case_rng(case)
        data = mutate(original, rng)
        try:
            spec = deserialize(data.decode("utf-8"))
            rendered = render_template(spec, DEFAULT_TEMPLATE)
        except ValueError:  # a parse or template error, or invalid UTF-8
            continue
        if spec.feature_arity > MAX_PROBE_ARITY:  # a mutated arity header; no vector that long is built
            continue
        rendered_count += 1
        for x in probe_vectors(spec, rng):
            assert interpret_rendered(rendered, x) == eval_dispatcher(spec, x)[0], (
                f"seed {SEED} case {case}: {x}"
            )
    assert rendered_count >= 10


# --- flag values ------------------------------------------------------------------

FLAG_VALUES = ("0", "-1", "1", "2", str(2**63), "1e23", "1e308", "inf", "nan", "-0.0", "1_0", "")
PAIR_VALUES = ("0,0", "nan,nan", "inf,inf", "2,1", "1,1e308", "-1,1", f"1,{2**63}", "1_0,20", "1,", "")
# Per command, the command lines each flag value is appended to; a later flag overrides an earlier one.
FLAG_BASES = {
    "gen": [("gen", "--versions", "4", "--datasets", "40", "--features", "2", "--regions", "3", "--seed", "5",
             "--feature-range", "1,9", "--test-seed", "6", "--test-datasets", "20", "--out-dir", "out.d")],
    "select": [("select", "--scenario", "scen", "--max-versions", "3", "--out", "out.rep")],
    "train": [(*TRAIN, "--algorithm", "tree", "--prune", "--seed", "7", "--out", "out.mv"),
              (*TRAIN, "--algorithm", "rules", "--out", "out.mv")],
    "cv": [(*CV, "--algorithm", "tree", "--prune", "--out", "out.rep"), (*CV, "--algorithm", "rules", "--out", "out.rep")],
}


def flags_of(command: str, types) -> list[str]:
    """The flags of ``command`` whose values ``types`` convert."""
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [a.option_strings[0] for a in commands.choices[command]._actions if a.type in types]


@pytest.mark.parametrize("command", list(FLAG_BASES))
def test_every_numeric_flag_value_exits_0_or_2_and_a_failure_writes_nothing(corpus, monkeypatch, command):
    monkeypatch.chdir(corpus)
    cases = [(flag, value) for flag in flags_of(command, (int, float)) for value in FLAG_VALUES]
    cases += [(flag, value) for flag in flags_of(command, (_pair, _int_pair)) for value in PAIR_VALUES]
    assert len(cases) >= 4 * len(FLAG_VALUES)
    entries = set(corpus.iterdir())
    failures = []
    for base in FLAG_BASES[command]:
        for flag, value in cases:
            argv = (*base, f"{flag}={value}")  # with `=`, a value that starts with `-` is not read as a flag
            try:
                code, err = run_main(argv)
            except SystemExit as exc:  # argparse refuses a value its type cannot convert
                code, err = exc.code, ""
            made = set(corpus.iterdir()) - entries
            for path in made:
                if path.is_dir():
                    shutil.rmtree(path)
                else:
                    path.unlink()
            if code not in (0, 2) or "internal error" in err or (code != 0 and made):
                written = sorted(p.name for p in made)
                failures.append(f"{' '.join(argv)}: exit {code}, wrote {written}: {err.strip()}")
    assert not failures, "\n".join(failures[:5])
