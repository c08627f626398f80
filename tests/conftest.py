"""Shared fixtures: a tiny hand-checked scenario and a planted synthetic one."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mvkit
from mvkit import Scenario, SynthConfig, generate, speedups
from mvkit.scenario import DatasetRecord, Version

# The directory this process imported mvkit from, absolute so that a child
# started in another working directory still finds the same package.
MVKIT_IMPORT_ROOT = str(Path(mvkit.__file__).resolve().parent.parent)


def run_python(*args, cwd: Path) -> subprocess.CompletedProcess:
    """Run `python ARGS` in `cwd` against the mvkit imported here.

    The child's PYTHONPATH is this process's, prefixed by the absolute
    import root; every other variable is inherited unchanged.
    """
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        MVKIT_IMPORT_ROOT + os.pathsep + inherited if inherited else MVKIT_IMPORT_ROOT
    )
    return subprocess.run(
        [sys.executable, *[str(a) for a in args]],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )


def run_mvkit(*args, cwd: Path) -> subprocess.CompletedProcess:
    """Run `python -m mvkit ARGS` in `cwd` against the mvkit imported here."""
    return run_python("-m", "mvkit", *args, cwd=cwd)


DEEP = 3000  # branches in a deep chain: far past the default recursion limit


def chain_node_lines(branches: int, versions: int = 4) -> list[str]:
    """B/L lines, in pre-order, of a chain of ``branches`` branches on feature 0.

    Branch k sends x <= k to a leaf for version k % versions and the rest
    down the chain; the last leaf holds version branches % versions.
    """
    lines: list[str] = []
    for k in range(branches):
        lines += [f"B 0 {k} {2 * k + 1} {2 * k + 2}", f"L {k % versions}"]
    return lines + [f"L {branches % versions}"]


def diamond_lines(levels: int) -> list[str]:
    """Branch k sends both ways to branch k + 1: 2**levels paths, levels + 1 nodes."""
    return [f"B 0 {k} {k + 1} {k + 1}" for k in range(levels)] + ["L 1"]


MODEL_HEADER = (
    "MVMODEL v1; algorithm=tree; arity=1; nodes={n}; "
    "min_split=2; max_depth=64; prune=0; prune_holdout=0.2; seed=-"
)


def dispatcher_text(node_lines: list[str]) -> str:
    """An arity-1 MVDISPATCH document holding ``node_lines``."""
    return "\n".join([f"MVDISPATCH v1; arity=1; nodes={len(node_lines)}", *node_lines]) + "\n"


def model_text(node_lines: list[str]) -> str:
    """An arity-1 MVMODEL classifier-tree document holding ``node_lines``."""
    return "\n".join([MODEL_HEADER.format(n=len(node_lines)), *node_lines]) + "\n"


TOY_SPEEDUPS = {1: (2.0, 1.0, 1.0), 2: (1.0, 2.0, 1.0), 3: (1.5, 1.5, 1.0)}


def make_toy_scenario() -> Scenario:
    """Three datasets, three candidates with hand-computable speedups.

    v1 doubles d1, v2 doubles d2, v3 gives 1.5x on both d1 and d2;
    nothing helps d3. Runtimes are 1/speedup against a unit baseline.
    """
    versions = (
        Version(0, "baseline", 1000, True),
        Version(1, "v1", 100, False),
        Version(2, "v2", 100, False),
        Version(3, "v3", 100, False),
    )
    datasets = (
        DatasetRecord(1, (1.0,)),
        DatasetRecord(2, (2.0,)),
        DatasetRecord(3, (3.0,)),
    )
    runtimes = np.ones((3, 4))
    for j, v in enumerate(versions):
        if v.is_baseline:
            continue
        for i in range(3):
            runtimes[i, j] = 1.0 / TOY_SPEEDUPS[v.id][i]
    return Scenario(versions=versions, datasets=datasets, runtimes=runtimes)


@pytest.fixture
def toy_scenario() -> Scenario:
    return make_toy_scenario()


@pytest.fixture
def toy_matrix(toy_scenario):
    return speedups(toy_scenario)


@pytest.fixture
def useless_scenario() -> Scenario:
    """One candidate that never beats the baseline (speedups 0.5 and 0.8)."""
    versions = (Version(0, "baseline", 1000, True), Version(1, "slow", 50, False))
    datasets = (DatasetRecord(1, (1.0,)), DatasetRecord(2, (2.0,)))
    runtimes = np.array([[1.0, 2.0], [1.0, 1.25]])
    return Scenario(versions=versions, datasets=datasets, runtimes=runtimes)


PLANTED_CONFIG = SynthConfig(
    n_versions=5,
    n_datasets=320,
    feature_arity=2,
    n_regions=4,
    seed=1001,
    feature_range=(1, 16),
)
PLANTED_TEST_SEED = 10001


@pytest.fixture(scope="session")
def planted():
    """A noiseless planted scenario plus its ground truth, shared per session."""
    scenario, truth = generate(PLANTED_CONFIG)
    return PLANTED_CONFIG, scenario, truth
