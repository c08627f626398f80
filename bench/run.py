#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the mvkit command line.

Usage, from the repository root:

    python3 bench/run.py --workload quickstart|wide|learn --seed N --seconds S --trace 0|1

A run generates its workload's scenarios with ``mvkit gen`` (set-up, timed
SETUP_REPS times), then runs passes as a closed loop with one client: every
pipeline command is a real ``python -m mvkit`` child, started only after the
previous one has exited. Passes repeat while one more is expected to end
within ``--seconds``, and there are always at least MIN_PASSES of them, so
outputs can be compared pass to pass. Timings are medians over passes, in
wall-clock seconds as measured; compare two versions of the code with
alternating runs, because the host's speed drifts over minutes.

``--trace 1`` instead runs one untraced CLI pass, then the same commands
in-process through ``mvkit.cli.main`` with span tracing (see tracing.py),
and reports per-layer self times and counts.

``--seed`` picks the held-out test scenario of ``wide`` and ``learn`` (test
seed = the table's test seed + 1000 * N); training scenarios keep the fixed
seeds below, so model and dispatcher sizes repeat exactly on every seed and
timings compare like for like. ``quickstart`` is the README's fixed
scenario on every seed, because its tree leg must reproduce the README.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Every command run and every
correctness check counts as one attempted operation. A run stopped by a
failed command still prints that line, with ``correct`` false and only the
metrics it got to (``ok_frac`` always, with ``--trace 0``), and exits 1.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPS = 5
MIN_PASSES = 3
CHILD_TIMEOUT_S = 90
CHILD_AS_BYTES = 2 << 30  # one child past this fails alone instead of exhausting the machine
RUN_BUDGET_S = 150  # start no pass that would end past this
STARTUP_REPS = 5
TEST_SEED_STRIDE = 1000
# The loop is one client on one core. By default numpy's BLAS starts a worker
# thread per core in every child; those threads made a short command use
# about 30 % more CPU time than wall time, on the other core, and doubled the
# run-to-run spread of its wall time.
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@dataclass(frozen=True)
class Leg:
    """One scenario and the commands a pass runs on it.

    Command tokens may name ``{scen}`` (the scenario directory) and ``{out}``
    (this leg's output directory in the pass). The second element names a
    file in ``{out}`` that receives the command's standard output.
    """

    name: str
    gen: str
    test_seed: int
    held_out: bool
    commands: tuple[tuple[str, str | None], ...]
    readme: bool = False


QUICKSTART_GEN = (
    "--versions 5 --datasets 160 --features 2 --regions 4 --seed 21 "
    "--feature-range 1,12 --test-datasets 80"
)

WORKLOADS: dict[str, tuple[Leg, ...]] = {
    # README steps 2-6, byte for byte, plus a rules leg on the same scenario
    # with noise. At sigma 0.1 the rule list has 12 rules and lowers to 1157
    # dispatcher nodes (a linear lowering needs 33): rule-list lowering is
    # exponential in the rule count. sigma 0.15 would give about 2.2e6 nodes
    # and 400 datasets about 5e12, which cannot finish, so the leg stays at
    # this size until the lowering is linear.
    "quickstart": (
        Leg(
            "tree",
            QUICKSTART_GEN,
            77,
            False,
            (
                ("select --scenario {scen} --max-versions 4 --out {out}/sel.rep", None),
                ("train --scenario {scen} --selection {out}/sel.rep --algorithm tree "
                 "--prune --seed 7 --out {out}/model.mv", None),
                ("cv --scenario {scen} --selection {out}/sel.rep --algorithm tree "
                 "--prune --seed 7 --k 10 --report-mode human", "cv.txt"),
                ("emit --model {out}/model.mv --out {out}/disp.txt --template "
                 "--rendered-out {out}/disp.c", None),
                ("simulate --scenario {scen}/test --dispatcher {out}/disp.txt "
                 "--selection {out}/sel.rep --train-scenario {scen} --report-mode human", "sim.txt"),
            ),
            readme=True,
        ),
        Leg(
            "rules",
            QUICKSTART_GEN + " --noise-sigma 0.1",
            77,
            False,
            (
                ("select --scenario {scen} --max-versions 4 --out {out}/sel.rep", None),
                ("train --scenario {scen} --selection {out}/sel.rep --algorithm rules "
                 "--out {out}/model.mv", None),
                ("cv --scenario {scen} --selection {out}/sel.rep --algorithm rules "
                 "--seed 7 --k 10 --out {out}/cv.rep", None),
                ("emit --model {out}/model.mv --out {out}/disp.txt --template "
                 "--rendered-out {out}/disp.c", None),
                ("simulate --scenario {scen}/test --dispatcher {out}/disp.txt "
                 "--selection {out}/sel.rep --train-scenario {scen} --out {out}/sim.rep", None),
            ),
        ),
    ),
    # 82k-row runtime tables parsed seven times per pass and an O(D^2)
    # simulate at D = 2000: scenario, simulate and report dominate. Integer
    # features cap split candidates at 31 per feature, so learners stay cheap.
    "wide": (
        Leg(
            "wide",
            "--versions 41 --datasets 2000 --features 4 --regions 16 --feature-range 1,32 "
            "--seed 3 --test-datasets 2000",
            4,
            True,
            (
                ("select --scenario {scen} --max-versions 8 --out {out}/sel.rep", None),
                ("train --scenario {scen} --selection {out}/sel.rep --algorithm tree "
                 "--prune --seed 7 --out {out}/model.mv", None),
                ("cv --scenario {scen} --selection {out}/sel.rep --algorithm linreg "
                 "--seed 7 --out {out}/cv.rep", None),
                ("emit --model {out}/model.mv --out {out}/disp.txt --template "
                 "--rendered-out {out}/disp.c", None),
                ("simulate --scenario {scen}/test --dispatcher {out}/disp.txt "
                 "--selection {out}/sel.rep --train-scenario {scen} --out {out}/sim.rep", None),
                ("train --scenario {scen} --selection {out}/sel.rep --algorithm linreg "
                 "--out {out}/lin.mv", None),
                ("simulate --scenario {scen}/test --model {out}/lin.mv "
                 "--selection {out}/sel.rep --out {out}/ppm.rep", None),
            ),
        ),
    ),
    # About 300 distinct thresholds per feature: split search is
    # O(n^2 * arity) per node and learners take most of the time, while the
    # CSVs are tiny. Rules are trained but not emitted (see quickstart).
    "learn": (
        Leg(
            "learn",
            "--versions 9 --datasets 300 --features 3 --regions 8 --feature-range 1,100000 "
            "--noise-sigma 0.05 --seed 5 --test-datasets 1000",
            6,
            True,
            (
                ("select --scenario {scen} --max-versions 4 --out {out}/sel.rep", None),
                ("train --scenario {scen} --selection {out}/sel.rep --algorithm tree "
                 "--prune --seed 7 --out {out}/model.mv", None),
                ("cv --scenario {scen} --selection {out}/sel.rep --algorithm tree "
                 "--prune --seed 7 --k 10 --out {out}/cv.rep", None),
                ("emit --model {out}/model.mv --out {out}/disp.txt --template "
                 "--rendered-out {out}/disp.c", None),
                ("simulate --scenario {scen}/test --dispatcher {out}/disp.txt "
                 "--selection {out}/sel.rep --out {out}/sim.rep", None),
                ("train --scenario {scen} --selection {out}/sel.rep --algorithm regtree "
                 "--seed 7 --out {out}/reg.mv", None),
                ("simulate --scenario {scen}/test --model {out}/reg.mv "
                 "--selection {out}/sel.rep --out {out}/ppm.rep", None),
                ("train --scenario {scen} --selection {out}/sel.rep --algorithm rules "
                 "--out {out}/rules.mv", None),
            ),
        ),
    ),
}

COMMAND_METRICS = ("select", "train", "cv", "emit", "simulate")

# --- guarded children ----------------------------------------------------------


@dataclass
class Child:
    command: str
    wall: float
    returncode: int
    rss_mb: float
    timed_out: bool


def _limit_child() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_AS_BYTES, CHILD_AS_BYTES))
    resource.setrlimit(resource.RLIMIT_CPU, (CHILD_TIMEOUT_S, CHILD_TIMEOUT_S + 5))


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], stdout: Path | None, stderr: Path) -> Child:
    """Run one child under an address-space cap, a CPU cap and a wall-clock
    timeout; its peak RSS comes from its own ``wait4`` rusage."""
    timed_out = threading.Event()
    with open(stdout or os.devnull, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=_child_env(), preexec_fn=_limit_child)

        def expire() -> None:
            timed_out.set()
            proc.kill()

        timer = threading.Timer(CHILD_TIMEOUT_S, expire)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    label = argv[3] if argv[1:3] == ["-m", "mvkit"] else " ".join(argv[1:])
    return Child(label, wall, proc.returncode, usage.ru_maxrss / 1024.0, timed_out.is_set())


def mvkit_argv(tokens: list[str]) -> list[str]:
    return [sys.executable, "-m", "mvkit", *tokens]


# --- bookkeeping -----------------------------------------------------------------


@dataclass
class Tally:
    err: Path  # the latest child's standard error
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)
        return ok

    def command(self, child: Child) -> bool:
        if child.returncode == 0:
            return self.check(True, "")
        why = "timed out" if child.timed_out else f"exit {child.returncode}"
        tail = self.err.read_text(encoding="utf-8", errors="replace")[-400:].strip()
        return self.check(False, f"{child.command}: {why}: {tail}")


def _opt(tokens: list[str], flag: str) -> str | None:
    return tokens[tokens.index(flag) + 1] if flag in tokens else None


def leg_commands(leg: Leg, scen: Path, out: Path) -> list[tuple[list[str], Path | None]]:
    return [
        ([tok.format(scen=scen, out=out) for tok in template.split()], out / name if name else None)
        for template, name in leg.commands
    ]


def gen_tokens(leg: Leg, seed: int, out_dir: Path) -> list[str]:
    test_seed = leg.test_seed + TEST_SEED_STRIDE * seed if leg.held_out else leg.test_seed
    return ["gen", *leg.gen.split(), "--test-seed", str(test_seed), "--out-dir", str(out_dir)]


@dataclass
class PassResult:
    slots: list[tuple[str, float]]  # (command, wall time) in pass order
    peak_rss_mb: float
    ok: bool

    @property
    def wall(self) -> float:
        return sum(t for _, t in self.slots)

    def command_s(self, command: str) -> float:
        return sum(t for c, t in self.slots if c == command)


def run_setup(legs, seed: int, root: Path, tally: Tally) -> tuple[list[Child], bool]:
    children: list[Child] = []
    for leg in legs:
        children.append(run_child(mvkit_argv(gen_tokens(leg, seed, root / leg.name)), None, tally.err))
        if not tally.command(children[-1]):
            return children, False
    return children, True


def run_pass(legs, scen_root: Path, pass_dir: Path, tally: Tally) -> PassResult:
    """Run every command of a pass, each after the previous one has exited."""
    slots: list[tuple[str, float]] = []
    peak = 0.0
    for leg in legs:
        out = pass_dir / leg.name
        out.mkdir(parents=True)
        for tokens, stdout in leg_commands(leg, scen_root / leg.name, out):
            child = run_child(mvkit_argv(tokens), stdout, tally.err)
            peak = max(peak, child.rss_mb)
            if not tally.command(child):
                return PassResult(slots, peak, False)
            slots.append((tokens[0], child.wall))
    return PassResult(slots, peak, True)


# --- outputs and checks ------------------------------------------------------------


def dispatcher_runs(legs, scen_root: Path, pass_dir: Path):
    """(report, dispatcher, rendered, test datasets.csv) per ``simulate --dispatcher``."""
    runs = []
    for leg in legs:
        out = pass_dir / leg.name
        commands = leg_commands(leg, scen_root / leg.name, out)
        rendered_of = {
            _opt(t, "--out"): _opt(t, "--rendered-out") for t, _ in commands if t[0] == "emit"
        }
        for tokens, stdout in commands:
            dispatcher = _opt(tokens, "--dispatcher")
            if tokens[0] == "simulate" and dispatcher:
                report = stdout or Path(_opt(tokens, "--out"))
                scenario = Path(_opt(tokens, "--scenario"))
                runs.append((report, Path(dispatcher), Path(rendered_of[dispatcher]), scenario / "datasets.csv"))
    return runs


def quality(legs, scen_root: Path, pass_dir: Path) -> dict[str, float]:
    """Selector quality pooled over the pass's dispatcher simulations,
    weighted by test datasets, plus the generated source size."""
    from mvkit.report import parse

    weight = oracle = mispick = comparisons = dispatcher = 0.0
    rendered = 0
    for report, disp, source, _ in dispatcher_runs(legs, scen_root, pass_dir):
        doc = parse(report.read_text(encoding="utf-8"))
        n = int(doc.get("n_test_datasets"))
        weight += n
        oracle += n * float(doc.get("fraction_of_full_oracle"))
        mispick += n * float(doc.get("mispick_rate"))
        comparisons += n * float(doc.get("mean_comparisons"))
        dispatcher += n * disp.stat().st_size
        rendered += source.stat().st_size
    return {
        "fraction_of_full_oracle": oracle / weight,
        "correct_pick_rate": 1.0 - mispick / weight,
        "mean_comparisons": comparisons / weight,
        "dispatcher_bytes": dispatcher / weight,
        "rendered_bytes": float(rendered),
    }


def readme_reference() -> tuple[dict[str, str], str]:
    """The quick-start simulation fields and rendered C block from README.md."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    report = text.split("```\nMVREPORT v1; kind=simulation\n", 1)[1].split("```", 1)[0]
    fields = dict(line.split("=", 1) for line in report.splitlines() if "=" in line)
    c_block = text.split("```c\n", 1)[1].split("```", 1)[0]
    return fields, c_block


def check_readme(legs, pass_dir: Path, tally: Tally) -> None:
    from mvkit.report import parse

    try:
        fields, c_block = readme_reference()
    except IndexError:
        tally.check(False, "README.md lacks the quick-start simulation report or C block")
        return
    for leg in legs:
        if not leg.readme:
            continue
        got = dict(parse((pass_dir / leg.name / "sim.txt").read_text(encoding="utf-8")).fields)
        differ = {k: (got.get(k), v) for k, v in fields.items() if got.get(k) != v}
        tally.check(not differ, f"README quick-start report differs (got, README): {differ}")
        rendered = (pass_dir / leg.name / "disp.c").read_text(encoding="utf-8")
        tally.check(rendered == c_block, "README quick-start rendered C differs")


def check_rendered(legs, scen_root: Path, pass_dir: Path, tally: Tally) -> None:
    """interpret_rendered must agree with eval_dispatcher on every test dataset."""
    from mvkit.dispatch import deserialize, eval_dispatcher, interpret_rendered

    for _, disp, source, datasets_csv in dispatcher_runs(legs, scen_root, pass_dir):
        spec = deserialize(disp.read_text(encoding="utf-8"))
        text = source.read_text(encoding="utf-8")
        with open(datasets_csv, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        bad = [
            row[0]
            for row in rows
            if interpret_rendered(text, [float(v) for v in row[1:]])
            != eval_dispatcher(spec, [float(v) for v in row[1:]])[0]
        ]
        tally.check(not bad, f"{source.name}: rendered source disagrees with {disp.name} on datasets {bad[:5]}")


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def check_identical(a: Path, b: Path, what: str, tally: Tally) -> None:
    left, right = tree_bytes(a), tree_bytes(b)
    differ = sorted(k for k in left.keys() | right.keys() if left.get(k) != right.get(k))
    tally.check(not differ, f"{what}: files differ: {differ[:5]}")


def source_digest() -> str:
    """A digest of everything the counts depend on: mvkit's source, the
    benchmark's own code and the README that quickstart reproduces."""
    files = [*(SRC / "mvkit").rglob("*.py"), *(ROOT / "bench").glob("*.py"), ROOT / "README.md"]
    digest = hashlib.sha256()
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()[:16]


def check_recorded_counts(key: str, counts: dict[str, float], tally: Tally) -> None:
    """Counts must repeat exactly across runs of the same source with the
    same workload, seed and mode; ``key`` names all four."""
    path = WORK / "counts" / f"{key}.json"
    if path.exists():
        before = json.loads(path.read_text(encoding="utf-8"))
        differ = sorted(k for k in counts.keys() | before.keys() if counts.get(k) != before.get(k))
        tally.check(not differ, f"counts differ from an earlier run of {key}: {differ}")
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(counts, sort_keys=True), encoding="utf-8")
    os.replace(tmp, path)


# --- the two kinds of run ------------------------------------------------------------


def measure(legs, key: str, seed: int, seconds: int, tally: Tally, run_dir: Path, run_start: float) -> dict[str, float]:
    setups = []
    for rep in range(SETUP_REPS):
        if rep:
            shutil.rmtree(run_dir / f"setup{rep - 1}")
        children, ok = run_setup(legs, seed, run_dir / f"setup{rep}", tally)
        if not ok:
            return {}
        setups.append(sum(c.wall for c in children))
    scen_root = run_dir / f"setup{SETUP_REPS - 1}"

    passes: list[PassResult] = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        result = run_pass(legs, scen_root, run_dir / f"pass{len(passes)}", tally)
        passes.append(result)
        if not result.ok:
            return {}
        now = time.perf_counter()
        # Another pass as long as this one would end at 2 * now - pass_start.
        if len(passes) >= MIN_PASSES and (
            2 * now - pass_start - start > seconds or 2 * now - pass_start - run_start > RUN_BUDGET_S
        ):
            break

    first = run_dir / "pass0"
    check_readme(legs, first, tally)
    check_rendered(legs, scen_root, first, tally)
    counts = quality(legs, scen_root, first)
    for i in range(1, len(passes)):
        check_identical(first, run_dir / f"pass{i}", f"pass {i} vs pass 0", tally)
        again = quality(legs, scen_root, run_dir / f"pass{i}")
        tally.check(again == counts, f"pass {i} quality/size counts differ: {again} != {counts}")
    check_recorded_counts(key, counts, tally)

    timings = {
        "setup_s": statistics.median(setups),
        "pipeline_s": statistics.median(p.wall for p in passes),
        **{
            f"{c}_s": statistics.median(p.command_s(c) for p in passes)
            for c in COMMAND_METRICS
        },
    }
    print(f"samples: setup_s median of {len(setups)} set-ups; "
          f"timings and peak_rss_mb medians of {len(passes)} passes")
    for p_i, p in enumerate(passes):
        print(f"pass {p_i}: {p.wall:.3f} s " + " ".join(f"{c}={t:.3f}" for c, t in p.slots))
    return {
        **timings,
        "peak_rss_mb": statistics.median(p.peak_rss_mb for p in passes),
        **counts,
    }


def traced(legs, key: str, seed: int, tally: Tally, run_dir: Path) -> dict[str, float]:
    import mvkit.cli
    import tracing

    gens, ok = run_setup(legs, seed, run_dir / "setup", tally)
    if not ok:
        return {}
    cli_pass = run_pass(legs, run_dir / "setup", run_dir / "pass0", tally)
    if not cli_pass.ok:
        return {}

    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        for leg in legs:
            scen = run_dir / "tsetup" / leg.name
            out = run_dir / "tpass" / leg.name
            out.mkdir(parents=True)
            steps = [(gen_tokens(leg, seed, scen), None), *leg_commands(leg, scen, out)]
            for tokens, stdout in steps:
                with open(stdout or os.devnull, "w", encoding="utf-8") as sink, redirect_stdout(sink):
                    with tracer.span(f"cli.{tokens[0]}"):
                        try:
                            rc = mvkit.cli.main(tokens)
                        except SystemExit as exc:
                            rc = exc.code
                tally.check(rc == 0, f"in-process mvkit {tokens[0]} returned {rc}")
    for leg in legs:
        check_identical(run_dir / "setup" / leg.name, run_dir / "tsetup" / leg.name,
                        f"{leg.name}: in-process gen vs CLI gen", tally)
        check_identical(run_dir / "pass0" / leg.name, run_dir / "tpass" / leg.name,
                        f"{leg.name}: in-process pass vs CLI pass", tally)
    check_readme(legs, run_dir / "pass0", tally)
    check_rendered(legs, run_dir / "setup", run_dir / "pass0", tally)

    metrics = tracing.layer_metrics(tracer)
    metrics["dispatch.eval_ns_per_decision"] = tracing.eval_ns_per_decision(tracer.dispatch_inputs)
    check_recorded_counts(key, {k: metrics[k] for k in tracing.COUNT_METRICS}, tally)

    interp = startup_time(["-c", "pass"], tally)
    imported = startup_time(["-c", "import mvkit"], tally)
    cli_wall = sum(c.wall for c in gens) + cli_pass.wall
    metrics["cli.interp_s"] = interp
    metrics["cli.import_s"] = imported - interp
    metrics["cli.overhead_s"] = cli_wall - tracer.root_time()
    metrics["bench.trace_overhead_s"] = tracing.per_span_cost() * len(tracer.spans)

    selfs = tracer.self_times()
    print(f"traced pass: {tracer.root_time():.3f} s in-process, {cli_wall:.3f} s as CLI children, "
          f"{len(tracer.spans)} spans, tracing overhead {metrics['bench.trace_overhead_s'] * 1e3:.3f} ms")
    print(f"{'span':40} {'calls':>6} {'self_s':>10}")
    for name, (self_s, calls) in sorted(selfs.items(), key=lambda kv: -kv[1][0]):
        print(f"{name:40} {calls:6d} {self_s:10.4f}")
    layers: dict[str, float] = defaultdict(float)
    for name, (self_s, _) in selfs.items():
        layers[name.split(".")[0]] += self_s
    layers["cli"] += metrics["cli.overhead_s"]
    total = sum(layers.values())
    print("layer self-time shares (cli includes process start-up): " + ", ".join(
        f"{name}={t / total:.1%}" for name, t in sorted(layers.items(), key=lambda kv: -kv[1])))
    return metrics


def startup_time(args: list[str], tally: Tally) -> float:
    walls = []
    for _ in range(STARTUP_REPS):
        child = run_child([sys.executable, *args], None, tally.err)
        tally.command(child)
        walls.append(child.wall)
    return statistics.median(walls)


def environment(workload: str, seed: int) -> dict[str, object]:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {
        "commit": commit,
        "source": source_digest(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "workload": workload,
        "seed": seed,
        "scenarios": [
            " ".join(gen_tokens(leg, seed, Path(leg.name))[1:]) for leg in WORKLOADS[workload]
        ],
        "src_lines": sum(
            len(p.read_bytes().splitlines()) for p in sorted((SRC / "mvkit").rglob("*.py"))
        ),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    for needed in (SRC / "mvkit" / "__init__.py", ROOT / "README.md", ROOT / "BENCHMARK.json"):
        if not needed.is_file():
            print(f"bench: {needed} is missing; run from a full mvkit checkout", file=sys.stderr)
            return 2
    sys.path.insert(0, str(SRC))
    os.environ.update(SINGLE_THREAD_ENV)  # before numpy is imported here or in a child

    run_start = time.perf_counter()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    legs = WORKLOADS[args.workload]
    key = f"{args.workload}-seed{args.seed}-trace{args.trace}-{source_digest()}"
    run_dir = WORK / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True)
    tally = Tally(run_dir / "child.err")
    print("env: " + json.dumps(environment(args.workload, args.seed)))
    try:
        if args.trace:
            metrics = traced(legs, key, args.seed, tally, run_dir)
        else:
            metrics = measure(legs, key, args.seed, args.seconds, tally, run_dir, run_start)
            metrics["ok_frac"] = 1.0 - tally.failed / tally.attempted
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for note in tally.notes:
        print(f"FAILED: {note}", file=sys.stderr)
    reported = {name: unit for name, unit in units.items() if name in metrics}
    for name, unit in reported.items():
        print(f"{name:40} {metrics[name]:>16.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in reported.items()},
    }))
    if len(reported) < len(units):
        print("bench: the run stopped at a failed command; its other metrics are left out", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
