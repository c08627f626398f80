"""The rendered C compiles under a strict C99 compiler and picks the dispatcher's version on every probe.

One translation unit holds the default template's rendering of every dispatcher below, one function
each: a single leaf, the hand-built rule list with thresholds at ±inf, the README quick start's tree and
its rules leg at noise 0.1, and seeded trees and rule lists from the builders of ``test_dispatch``. A driver reads
rows of "function index, then that function's features" from stdin and prints each pick. Every pick is
compared with ``eval_dispatcher`` at each threshold, one ulp on either side of it, ±inf and NaN.
"""

from __future__ import annotations

import itertools
import math
import random
import shutil
import subprocess
from collections import Counter

import pytest

from mvkit import DEFAULT_TEMPLATE, DispatcherSpec, compile_dispatcher, eval_dispatcher, interpret_rendered, render_template
from mvkit.cli import main
from mvkit.modelio import loads
from mvkit.nodes import Branch, Leaf

from test_dispatch import INFINITE_RULES, QUICK_START_RULES_GEN, random_rules, random_tree, repeated_rules, wide_rules

CC = shutil.which("cc")
pytestmark = pytest.mark.skipif(CC is None, reason="no C compiler: shutil.which('cc') found none")
FLAGS = ["-std=c99", "-Wall", "-Wextra", "-pedantic", "-Werror"]
PROBES = 600  # the most probe rows per dispatcher
CONSTANT = DispatcherSpec(2, (Leaf(5),))  # no branch, so it reads x only through the template's UNUSED fragment


def quick_start_dispatchers(root) -> list[DispatcherSpec]:
    """The README quick start's pruned tree, and its rules leg at noise 0.1, as ``emit`` compiles them."""
    specs = []
    for name, gen, train in [
        ("tree", [a for a in QUICK_START_RULES_GEN if a not in ("--noise-sigma", "0.1")], ["tree", "--prune", "--seed", "7"]),
        ("rules", QUICK_START_RULES_GEN, ["rules"]),
    ]:
        out = root / name
        assert main([*gen, "--out-dir", str(out)]) == 0
        assert main(["select", "--scenario", str(out), "--max-versions", "4", "--out", str(out / "sel.rep")]) == 0
        model = out / "model.mv"
        args = ["--scenario", str(out), "--selection", str(out / "sel.rep"), "--out", str(model)]
        assert main(["train", *args, "--algorithm", *train]) == 0
        specs.append(compile_dispatcher(loads(model.read_text(encoding="utf-8"))))
    return specs


def seeded_dispatchers() -> list[DispatcherSpec]:
    """About 200 seeded trees and rule lists, searched and chained, with at least one branch each."""
    models = [
        *map(repeated_rules, range(120)),
        *map(wide_rules, range(40)),
        *(random_rules(rules, 3, 3, seed=rules) for rules in (5, 12, 40)),
    ]
    specs = [*map(random_tree, range(100)), *map(compile_dispatcher, models)]
    return [spec for spec in specs if len(spec.nodes) > 1]  # single leaves: CONSTANT stands for them


def probes(spec: DispatcherSpec, seed: int) -> list[tuple[float, ...]]:
    """Each branch once, reached with its feature at its threshold and one ulp above; the rest of a
    seeded sample (the whole grid when it is small) of each feature's thresholds, one ulp either side
    of each, ±inf and NaN."""
    arity = spec.feature_arity
    points: list[tuple[float, ...]] = []
    stack = [(0, ((-math.inf, math.inf),) * arity)]  # node, and per feature the interval (lo, hi] that reaches it
    seen = set()
    while stack:
        index, box = stack.pop()
        node = spec.nodes[index]
        if index in seen or isinstance(node, Leaf) or any(lo >= hi for lo, hi in box):
            continue
        seen.add(index)
        lo, hi = box[node.feature]
        t = node.threshold
        for v in (t, math.nextafter(t, math.inf)):
            if lo < v <= hi:
                points.append(tuple(v if f == node.feature else box[f][1] for f in range(arity)))
        stack.append((node.right, box[:node.feature] + ((max(lo, t), hi),) + box[node.feature + 1:]))
        stack.append((node.left, box[:node.feature] + ((lo, min(hi, t)),) + box[node.feature + 1:]))
    axes = [{-math.inf, math.inf} for _ in range(arity)]
    for node in spec.nodes:
        if isinstance(node, Branch):
            axes[node.feature] |= {math.nextafter(node.threshold, -math.inf), node.threshold, math.nextafter(node.threshold, math.inf)}
    axes = [sorted(axis) + [math.nan] for axis in axes]
    if math.prod(map(len, axes)) <= PROBES - len(points):
        return points + list(itertools.product(*axes))
    rng = random.Random(seed)
    return points + [tuple(rng.choice(axis) for axis in axes) for _ in range(PROBES - len(points))]


@pytest.fixture(scope="module")
def dispatchers(tmp_path_factory) -> list[DispatcherSpec]:
    return [CONSTANT, compile_dispatcher(INFINITE_RULES), *quick_start_dispatchers(tmp_path_factory.mktemp("quick")), *seeded_dispatchers()]


def build(directory, renderings: list[str], arities: list[int], flags: list[str] = FLAGS):
    """Compile the renderings, their function renamed to select_<i>, with the stdin driver; the binary's path."""
    unit = "\n".join(text.replace("select_version(", f"select_{i}(", 1) for i, text in enumerate(renderings))
    (directory / "dispatchers.c").write_text(unit, encoding="utf-8")
    count = len(renderings)
    (directory / "driver.c").write_text(
        "#include <stdio.h>\n"
        + "".join(f"int select_{i}(const double *x);\n" for i in range(count))
        + "static int (*const selectors[])(const double *) = {" + ", ".join(f"select_{i}" for i in range(count)) + "};\n"
        + "static const int arities[] = {" + ", ".join(map(str, arities)) + "};\n"
        + f"int main(void) {{\n    int f, i;\n    double x[{max(arities)}];\n"
        + f"    while (scanf(\"%d\", &f) == 1) {{\n        if (f < 0 || f >= {count}) return 2;\n"
        + "        for (i = 0; i < arities[f]; i++) if (scanf(\"%lf\", &x[i]) != 1) return 2;\n"
        + "        printf(\"%d\\n\", selectors[f](x));\n    }\n    return 0;\n}\n",
        encoding="utf-8",
    )
    binary = directory / "dispatchers"
    compiled = subprocess.run(
        [CC, *flags, "-o", str(binary), str(directory / "dispatchers.c"), str(directory / "driver.c")],
        capture_output=True, text=True,
    )
    assert compiled.returncode == 0, compiled.stderr
    return binary


def picks(binary, rows: list[tuple[int, tuple[float, ...]]]) -> list[int]:
    """The binary's pick for each (function, features) row; features go in as exact hex floats."""
    text = "".join(f"{f} {' '.join(v.hex() for v in x)}\n" for f, x in rows)
    ran = subprocess.run([str(binary)], input=text, capture_output=True, text=True, check=True)
    return [int(line) for line in ran.stdout.split()]


def shares_a_branch(spec: DispatcherSpec) -> bool:
    """Whether a branch has several parents, so its rendering falls out of a statement into it."""
    children = Counter(c for n in spec.nodes if isinstance(n, Branch) for c in (n.left, n.right))
    return any(count > 1 and isinstance(spec.nodes[c], Branch) for c, count in children.items())


def test_the_batch_covers_every_kind_of_dispatcher(dispatchers):
    thresholds = {n.threshold for spec in dispatchers for n in spec.nodes if isinstance(n, Branch)}
    assert 190 <= len(dispatchers) <= 230
    assert {math.inf, -math.inf} <= thresholds
    assert max(len(spec.nodes) for spec in dispatchers) > 100
    assert sum(map(shares_a_branch, dispatchers)) >= 5
    assert {spec.feature_arity for spec in dispatchers} == {1, 2, 3, 4}
    assert CONSTANT in dispatchers


def test_rendered_c_compiles_strictly_and_picks_every_dispatchers_version(dispatchers, tmp_path):
    binary = build(tmp_path, [render_template(spec, DEFAULT_TEMPLATE) for spec in dispatchers], [s.feature_arity for s in dispatchers])
    rows = [(f, x) for f, spec in enumerate(dispatchers) for x in probes(spec, f)]
    got = picks(binary, rows)
    assert len(got) == len(rows)
    for (f, x), pick in zip(rows, got):
        assert pick == eval_dispatcher(dispatchers[f], x)[0], f"dispatcher {f} at {x}"


def test_a_constant_dispatcher_marks_its_parameter_used():
    """A single leaf never reads x: ``(void)x;`` before its return keeps -Wextra quiet, and the interpreter skips it."""
    rendered = render_template(CONSTANT)
    assert rendered == "int select_version(const double *x) {\n    (void)x;\n    return 5;\n}\n"
    assert interpret_rendered(rendered, (0.0, 1.0)) == 5
