"""Command-line front end: gen, select, train, cv, emit, simulate.

Each command reads/writes plain files so any stage's output feeds the
next with no editing: `gen` emits scenario CSVs, `select` a selection
report, `train` a model document, `emit` a dispatcher document (plus an
optional rendered source view), and `cv`/`simulate` structured reports.

Exit codes: 0 success, 2 invalid input or configuration (including
usage errors), 1 unexpected internal failure. A config file given with
--config supplies `key=value` defaults using option dest names
(e.g. `max_versions=3`); explicit command-line flags always win.
Reports default to machine mode, which is byte-identical across runs for
identical inputs and seeds; human mode only rounds the numbers.

Commands return their outputs as (path, text) pairs, path None for
stdout; `main` writes them through `_write_outputs`, all files or none,
and refuses an output path that is one of the command's inputs or is
given twice. Only `gen` creates directories: --out-dir and its test/,
after that check, and a failed `gen` removes the directories it made.

Each command imports the modules it runs inside its own function, so a
command loads no more than it needs: `emit` never imports numpy.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from contextlib import suppress
from dataclasses import fields
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from .report import HUMAN, MACHINE, Report, Table, parse, parse_flag, render
from .rng import mix_seed

if TYPE_CHECKING:
    from .learners.cv import LearnerSpec

SCENARIO_FILES = ("versions.csv", "datasets.csv", "runtimes.csv")
GENERATED_FILES = (*SCENARIO_FILES, "ground_truth.csv")

# A command's output: (path, text), where path None is stdout.
Output = tuple[str | None, str]

MODE_NAMES = {"perf": "perf_priority", "size": "size_priority"}


class CliError(ValueError):
    """User-facing validation failure; maps to exit code 2."""


def _pair(text: str, caster=float) -> tuple:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected lo,hi pair, got {text!r}")
    try:
        return (caster(parts[0]), caster(parts[1]))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected numeric pair, got {text!r}") from None


def _int_pair(text: str) -> tuple[int, int]:
    return _pair(text, int)


def _id_list(text: str) -> tuple[int, ...]:
    if not text.strip():
        return ()
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated ids, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvkit",
        description="Representative-set selection and runtime version dispatch "
        "for adaptive multiversioned binaries.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value file of option defaults (dest names)")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=argparse.ArgumentParser)

    gen = sub.add_parser("gen", parents=[common], help="generate a seeded synthetic scenario")
    gen.add_argument("--versions", type=int, help="version count including the baseline")
    gen.add_argument("--datasets", type=int, help="dataset count")
    gen.add_argument("--features", type=int, help="feature arity")
    gen.add_argument("--regions", type=int, help="planted regions (default versions - 1)")
    gen.add_argument("--seed", type=int, help="generator seed (required)")
    gen.add_argument("--noise-sigma", dest="noise_sigma", type=float)
    gen.add_argument("--winner-range", dest="winner_range", type=_pair)
    gen.add_argument("--loser-range", dest="loser_range", type=_pair)
    gen.add_argument("--base-range", dest="base_range", type=_pair)
    gen.add_argument("--size-range", dest="size_range", type=_int_pair)
    gen.add_argument("--feature-range", dest="feature_range", type=_int_pair)
    gen.add_argument("--test-seed", dest="test_seed", type=int, help="also emit a held-out test scenario under <out-dir>/test")
    gen.add_argument("--test-datasets", dest="test_datasets", type=int)
    gen.add_argument("--out-dir", dest="out_dir", help="output directory (required)")

    sel = sub.add_parser("select", parents=[common], help="pick a representative version set")
    _scenario_arg(sel)
    sel.add_argument("--max-versions", dest="max_versions", type=int)
    sel.add_argument("--size-budget", dest="size_budget", type=float)
    sel.add_argument("--loss-tol", dest="loss_tol", type=float)
    sel.add_argument("--min-gain", dest="min_gain", type=float)
    sel.add_argument("--mode", choices=sorted(MODE_NAMES))
    _report_args(sel)

    train = sub.add_parser("train", parents=[common], help="train a version-mapping model")
    _scenario_arg(train)
    _representative_args(train)
    _learner_args(train)
    train.add_argument("--seed", type=int, help="required when training needs randomness")
    train.add_argument("--out", help="model file to write (required)")

    cv = sub.add_parser("cv", parents=[common], help="cross-validate a learner")
    _scenario_arg(cv)
    _representative_args(cv)
    _learner_args(cv)
    cv.add_argument("--k", type=int, help="fold count (default 10)")
    cv.add_argument("--seed", type=int, help="fold shuffle seed (required)")
    _report_args(cv)

    emit = sub.add_parser("emit", parents=[common], help="compile a model into a dispatcher document")
    emit.add_argument("--model", help="trained model file (from train)")
    emit.add_argument("--out", help="dispatcher file to write (required)")
    emit.add_argument(
        "--template",
        nargs="?",
        const="-",
        help="render source text too; path to a template file, or bare for the built-in C-like template",
    )
    emit.add_argument(
        "--rendered-out", dest="rendered_out", help="rendered text path (needs --template; default <out>.rendered)"
    )

    sim = sub.add_parser("simulate", parents=[common], help="run a selector over a test scenario")
    _scenario_arg(sim)
    _representative_args(sim)
    sim.add_argument("--dispatcher", help="dispatcher document to evaluate")
    sim.add_argument(
        "--model", help="model file to evaluate: a tree or rules model (compiled as `emit` would) or a PPM bundle"
    )
    sim.add_argument("--selector", choices=["oracle", "baseline"], help="built-in reference selector")
    sim.add_argument("--train-scenario", dest="train_scenario", help="training scenario dir, for the id-overlap check")
    _report_args(sim)
    return parser


def _scenario_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", help="directory holding versions.csv, datasets.csv, runtimes.csv")


def _report_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--report-mode", dest="report_mode", choices=[MACHINE, HUMAN])
    p.add_argument("--out", help="report file (default: stdout)")


def _representative_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--selection", help="selection report from `select`")
    p.add_argument("--select-ids", dest="select_ids", type=_id_list, help="explicit representative ids, comma-separated")


def _learner_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--algorithm", choices=["tree", "rules", "regtree", "linreg"])
    p.add_argument("--min-split", dest="min_split", type=int)
    p.add_argument("--max-depth", dest="max_depth", type=int)
    p.add_argument("--prune", action="store_const", const=True)
    p.add_argument("--prune-holdout", dest="prune_holdout", type=float)
    p.add_argument("--min-cover", dest="min_cover", type=int)
    p.add_argument("--min-precision", dest="min_precision", type=float)


def _config_types(parser: argparse.ArgumentParser) -> dict[str, object]:
    """Config-file value converters keyed by dest, read off every subcommand's flags.

    A flag's converter is its ``type`` (text as is when it has none),
    checked against its ``choices`` when it has them; a flag that takes
    no value (``--prune``) is set by the value ``1`` and cleared by ``0``.
    """
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    types: dict[str, object] = {}
    for command in commands.choices.values():
        for action in command._actions:
            if action.dest in ("config", "help"):
                continue
            if action.nargs == 0:
                types[action.dest] = parse_flag
            else:
                types[action.dest] = partial(_convert, action.type or str, action.choices)
    return types


def _convert(convert, choices, text: str):
    """``convert(text)``, refused unless it is among ``choices`` (when there are any)."""
    value = convert(text)
    if choices is not None and value not in choices:
        raise argparse.ArgumentTypeError(
            f"invalid choice {value!r} (choose from {', '.join(map(str, choices))})"
        )
    return value


def _read_text(path: str, what: str) -> str:
    """Read an input file; an unreadable one is an input error (exit 2)."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read {what}: {exc}") from None


def _load_config_file(path: str, types: dict[str, object]) -> dict[str, object]:
    values: dict[str, object] = {}
    text = _read_text(path, "config file")
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, eq, value = stripped.partition("=")
        key = key.strip()
        if not eq or key not in types:
            raise CliError(f"{path}:{lineno}: unknown config entry {stripped!r}")
        if key in values:
            raise CliError(f"{path}:{lineno}: config key {key!r} repeats")
        try:
            values[key] = types[key](value.strip())
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise CliError(f"{path}:{lineno}: {exc}") from None
    return values


def _merge_config(args: argparse.Namespace, config: dict[str, object]) -> argparse.Namespace:
    for key, value in config.items():
        if hasattr(args, key) and getattr(args, key) is None:
            setattr(args, key, value)
    return args


def _require(args: argparse.Namespace, names: list[str]) -> None:
    for name in names:
        if getattr(args, name, None) is None:
            raise CliError(f"missing required option --{name.replace('_', '-')}")


def _load_scenario_dir(path: str, load: Callable | None = None, names: tuple[str, ...] = SCENARIO_FILES):
    """``load`` (default ``load_scenario``) of the tables ``names`` in directory ``path``."""
    from .scenario import load_scenario

    try:
        return (load or load_scenario)(*(Path(path) / name for name in names))
    except OSError as exc:
        raise CliError(f"cannot read scenario: {exc}") from None


def _input_paths(args: argparse.Namespace) -> list[str]:
    """Every file a command reads, for the check that no output overwrites one.

    These are the config file, --selection, --model, --dispatcher, a
    template file, and the CSVs of --scenario and --train-scenario.
    """
    paths = [getattr(args, name, None) for name in ("config", "selection", "model", "dispatcher")]
    if getattr(args, "template", None) != "-":  # "-" is the built-in template
        paths.append(getattr(args, "template", None))
    for name in ("scenario", "train_scenario"):
        base = getattr(args, name, None)
        if base is not None:
            paths.extend(str(Path(base) / n) for n in SCENARIO_FILES)
    return [p for p in paths if p]


def _representative_ids(args: argparse.Namespace) -> tuple[int, ...]:
    if args.select_ids is not None and args.selection is not None:
        raise CliError("give either --selection or --select-ids, not both")
    if args.select_ids is not None:
        return tuple(sorted(set(args.select_ids)))
    if args.selection is not None:
        doc = parse(_read_text(args.selection, "selection report"))
        try:
            return tuple(sorted(set(_id_list(doc.get("selected")))))
        except argparse.ArgumentTypeError as exc:
            raise CliError(f"bad selection report {args.selection}: {exc}") from None
    raise CliError("missing required option --selection or --select-ids")


def _write_outputs(args: argparse.Namespace, outputs: list[Output]) -> None:
    """Write a command's output files, all or none, then print its stdout texts.

    Paths that resolve to an input of ``args`` or to another output are
    refused first. Then, for `gen` (the command with --out-dir) only, the
    missing directories of its files are made. Each text goes to a
    temporary file beside its target, and all are renamed into place only
    once all are written; on failure the temporary files and the made
    directories are removed. A path that cannot be written is a bad flag
    (exit 2).
    """
    files = [(path, text) for path, text in outputs if path is not None]
    taken = {Path(p).resolve(): "an input path" for p in _input_paths(args)}
    for path, _ in files:
        resolved = Path(path).resolve()
        if resolved in taken:
            raise CliError(f"output path {path} collides with {taken[resolved]}")
        taken[resolved] = "another output path"
    directories = sorted({Path(path).parent for path, _ in files}) if getattr(args, "out_dir", None) else []
    made: list[Path] = []
    temps: list[Path] = []
    try:
        for directory in directories:
            for path in reversed((directory, *directory.parents)):
                if not path.is_dir():
                    path.mkdir()
                    made.append(path)
        for i, (path, text) in enumerate(files):
            target = Path(path)
            if target.is_dir():  # os.replace would fail only after earlier renames
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            temp = target.with_name(f".{target.name}.{os.getpid()}-{i}.tmp")
            with open(temp, "x", encoding="utf-8", newline="\n") as fh:
                temps.append(temp)
                fh.write(text)
        for (path, _), temp in zip(files, temps):
            os.replace(temp, path)
    except OSError as exc:
        for temp in temps:
            temp.unlink(missing_ok=True)
        for directory in reversed(made):
            with suppress(OSError):
                directory.rmdir()
        raise CliError(f"cannot write {path}: {exc.strerror or exc}") from None
    for path, text in outputs:
        if path is None:
            sys.stdout.write(text)


def _report_output(args: argparse.Namespace, report: Report) -> list[Output]:
    """A report command's one output: ``report`` rendered in --report-mode, to --out or stdout."""
    return [(args.out or None, render(report, args.report_mode or MACHINE))]


def _given(args: argparse.Namespace, config_type: type, **dests: str) -> dict[str, object]:
    """The options given in ``args``, keyed by the ``config_type`` field each sets; the rest keep their defaults.

    A field's option has the field's name as its dest unless ``dests`` names another.
    """
    values = {f.name: getattr(args, dests.get(f.name, f.name), None) for f in fields(config_type)}
    return {name: value for name, value in values.items() if value is not None}


def _learner_spec(args: argparse.Namespace) -> LearnerSpec:
    from .learners.cv import LearnerSpec

    _require(args, ["algorithm"])
    return LearnerSpec(**_given(args, LearnerSpec))


# --- commands ----------------------------------------------------------------


def cmd_gen(args: argparse.Namespace) -> list[Output]:
    from .scenario import scenario_tables
    from .synthgen import SynthConfig, generate, generate_test, ground_truth_table

    _require(args, ["versions", "datasets", "features", "seed", "out_dir"])
    if args.test_datasets is not None and args.test_seed is None:
        raise CliError("--test-datasets needs --test-seed")
    kwargs = _given(
        args, SynthConfig, n_versions="versions", n_datasets="datasets", feature_arity="features",
        n_regions="regions", winner_speedup_range="winner_range", loser_speedup_range="loser_range",
        base_runtime_range="base_range", code_size_range="size_range",
    )
    kwargs.setdefault("n_regions", max(args.versions - 1, 1))
    config = SynthConfig(**kwargs)
    train = generate(config)
    test = None if args.test_seed is None else generate_test(config, args.test_seed, args.test_datasets)

    out = Path(args.out_dir)
    generated = [(out, train)] if test is None else [(out, train), (out / "test", test)]
    outputs: list[Output] = []
    for directory, (scenario, truth) in generated:
        texts = (*scenario_tables(scenario), ground_truth_table(truth, scenario))
        outputs.extend((str(directory / name), text) for name, text in zip(GENERATED_FILES, texts))
    return outputs


def cmd_select(args: argparse.Namespace) -> list[Output]:
    from .scenario import speedups
    from .selection import Constraints, evaluate_set, greedy_select

    _require(args, ["scenario", "max_versions"])
    scenario = _load_scenario_dir(args.scenario)
    given = _given(args, Constraints, loss_tolerance="loss_tol")
    if "mode" in given:
        given["mode"] = MODE_NAMES[given["mode"]]
    constraints = Constraints(**given)
    matrix = speedups(scenario)
    result = greedy_select(matrix, scenario.code_sizes(), scenario.baseline_binary_size, constraints)
    metrics = evaluate_set(matrix, set(result.selected))

    values = dict(
        mode=constraints.mode,
        max_versions=constraints.max_versions,
        size_budget=constraints.size_budget,
        loss_tolerance=constraints.loss_tolerance,
        min_gain=constraints.min_gain,
        baseline_id=matrix.baseline_id,
        baseline_binary_size=scenario.baseline_binary_size,
        n_candidates=len(matrix.candidate_ids),
        n_datasets=matrix.n_datasets,
        selected=",".join(str(v) for v in result.selected),
        n_selected=len(result.selected),
        n_selected_with_baseline=len(result.selected) + 1,
        objective_value=result.objective_value,
        geomean_speedup=result.geomean_speedup,
        oracle_geomean=metrics.oracle_geomean,
        max_dataset_loss=result.max_dataset_loss,
        size_used=result.size_used,
        covered_count=metrics.covered_count,
    )
    tables = (
        Table(
            "trace",
            ("step", "picked", "gain", "objective_after"),
            tuple((i + 1, s.picked, s.gain, s.objective_after) for i, s in enumerate(result.trace)),
        ),
        Table(
            "prune",
            ("step", "removed", "decrease", "objective_after"),
            tuple((i + 1, s.removed, s.decrease, s.objective_after) for i, s in enumerate(result.pruned)),
        ),
        Table("losses", ("dataset_id", "loss"), tuple(zip(matrix.dataset_ids, metrics.per_dataset_loss))),
    )
    return _report_output(args, Report("selection", tuple(values.items()), tables))


def cmd_train(args: argparse.Namespace) -> list[Output]:
    from .learners.cv import train_model
    from .learners.ppm import train_ppm_models
    from .learners.samples import make_dc_labels
    from .modelio import dumps
    from .scenario import speedups

    _require(args, ["scenario", "out"])
    spec = _learner_spec(args)
    scenario = _load_scenario_dir(args.scenario)
    representative = _representative_ids(args)
    matrix = speedups(scenario)
    if spec.is_dc:
        model = train_model(spec, make_dc_labels(scenario, matrix, representative), seed=args.seed)
    else:
        model = train_ppm_models(spec, scenario, matrix, representative, args.seed)
    return [(args.out, dumps(model))]


def cmd_cv(args: argparse.Namespace) -> list[Output]:
    from .learners.cv import FOLDS, cross_validate
    from .learners.samples import LearnError, make_dc_labels, make_ppm_samples
    from .scenario import speedups

    _require(args, ["scenario", "seed"])
    spec = _learner_spec(args)
    k = FOLDS if args.k is None else args.k
    scenario = _load_scenario_dir(args.scenario)
    representative = _representative_ids(args)
    matrix = speedups(scenario)

    values = dict(
        algorithm=spec.algorithm,
        k=k,
        seed=args.seed,
        representative=",".join(str(v) for v in representative),
    )
    if spec.is_dc:
        samples = make_dc_labels(scenario, matrix, representative)
        result = cross_validate(spec, samples, k=k, seed=args.seed)
        values.update(n_samples=len(samples), metric=result.metric_name, aggregate=result.aggregate)
        tables = (
            Table("folds", ("fold", "size", "metric"), tuple(zip(range(k), result.fold_sizes, result.per_fold))),
            Table("confusion", ("actual", "predicted", "count"), tuple(result.confusion)),
        )
    else:
        if not representative:
            raise CliError("PPM cross-validation needs a non-empty representative set")
        results = {
            v: cross_validate(spec, make_ppm_samples(scenario, matrix, v), k=k, seed=mix_seed(args.seed, v))
            for v in matrix.representative(representative, LearnError)
        }
        values.update(
            n_samples=matrix.n_datasets,
            metric="rrse_percent",
            aggregate=sum(r.aggregate for r in results.values()) / len(results),
        )
        tables = (
            Table("versions", ("version", "rrse_percent"), tuple((v, r.aggregate) for v, r in results.items())),
            Table(
                "folds",
                ("version", "fold", "size", "metric"),
                tuple((v, i, r.fold_sizes[i], r.per_fold[i]) for v, r in results.items() for i in range(k)),
            ),
        )
    return _report_output(args, Report("cv", tuple(values.items()), tables))


def cmd_emit(args: argparse.Namespace) -> list[Output]:
    from .dispatch import DEFAULT_TEMPLATE, compile_dispatcher, render_template, serialize
    from .modelio import loads

    _require(args, ["model", "out"])
    if args.rendered_out is not None and args.template is None:
        raise CliError("--rendered-out needs --template")
    spec = compile_dispatcher(loads(_read_text(args.model, "model")))
    outputs: list[Output] = [(args.out, serialize(spec))]
    if args.template is not None:
        template = DEFAULT_TEMPLATE if args.template == "-" else _read_text(args.template, "template")
        outputs.append((args.rendered_out or f"{args.out}.rendered", render_template(spec, template)))
    return outputs


def cmd_simulate(args: argparse.Namespace) -> list[Output]:
    from .dispatch import deserialize
    from .scenario import load_datasets
    from .simulate import simulate

    _require(args, ["scenario"])
    chosen = [name for name in ("dispatcher", "model", "selector") if getattr(args, name) is not None]
    if len(chosen) != 1:
        raise CliError("give exactly one of --dispatcher, --model, --selector")
    scenario = _load_scenario_dir(args.scenario)
    representative = _representative_ids(args)

    if args.dispatcher is not None:
        selector = deserialize(_read_text(args.dispatcher, "dispatcher"))
    elif args.model is not None:
        from .dispatch import compile_dispatcher
        from .modelio import loads

        selector = loads(_read_text(args.model, "model"))
        if not isinstance(selector, dict):  # a PPM bundle drives simulate itself
            selector = compile_dispatcher(selector)
    else:
        selector = args.selector

    train_ids: set[int] | None = None
    if args.train_scenario is not None:  # the overlap check needs only the training dataset ids
        datasets = _load_scenario_dir(args.train_scenario, load_datasets, ("datasets.csv",))
        train_ids = {d.id for d in datasets}

    result = simulate(scenario, selector, representative, train_dataset_ids=train_ids)

    values = dict(
        selector_kind=result.selector_kind,
        representative=",".join(str(v) for v in representative),
        n_test_datasets=len(result.outcomes),
        geomean_realized=result.geomean_realized,
        representative_geomean=result.representative_geomean,
        full_oracle_geomean=result.full_oracle_geomean,
        fraction_of_representative_oracle=result.fraction_of_representative_oracle,
        fraction_of_full_oracle=result.fraction_of_full_oracle,
        mispick_rate=result.mispick_rate,
        mean_comparisons=result.mean_comparisons,
        selector_growth=result.selector_growth,
        multiversioning_growth=result.multiversioning_growth,
        train_overlap_count=len(result.train_overlap),
        train_overlap_ids=",".join(str(i) for i in result.train_overlap),
    )
    outcomes = Table(
        "outcomes",
        ("dataset_id", "chosen", "realized_speedup", "comparisons"),
        tuple((o.dataset_id, o.chosen, o.realized_speedup, o.comparisons) for o in result.outcomes),
    )
    return _report_output(args, Report("simulation", tuple(values.items()), (outcomes,)))


_COMMANDS = {
    "gen": cmd_gen,
    "select": cmd_select,
    "train": cmd_train,
    "cv": cmd_cv,
    "emit": cmd_emit,
    "simulate": cmd_simulate,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            _merge_config(args, _load_config_file(args.config, _config_types(parser)))
        _write_outputs(args, _COMMANDS[args.command](args))
        return 0
    except CliError as exc:
        print(f"mvkit {args.command}: error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"mvkit {args.command}: invalid input: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - internal failures
        print(f"mvkit {args.command}: internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
