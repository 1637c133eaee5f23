"""Command-line entry point.

Subcommands: gen (synthetic fixtures), compress (run the samplers and emit a
report), train (fit the scale selector), gradcheck (analytic vs numeric
gradients), evolution (per-layer importance heatmaps), report (re-profile an
existing report under a different insertion layer, through
``report.reprofile``). The commands only read, write and convert; the token
accounting and its checks belong to ``vtcompress.report``.

Every failure exits nonzero with one JSON line on stderr of the form
{"error": <class>, "message": <text>}; exit codes are 2 usage, 3 missing
file, 4 tensor-file format, 5 invalid input or inconsistent dimensions
(error "out-of-memory" when an array is too large to allocate), 6 training
divergence, 7 gradient check failure (error "gradcheck-failed", after the
check's report on stdout). A command line argparse
rejects (a missing required flag, a value of the wrong type, an unknown
flag) exits 2 with error "usage"; only ``-h``/``--help`` prints argparse
text, and exits 0. A file that cannot be read or written for any other
reason (a directory, no permission, a path that the file-system encoding
cannot encode or that holds a NUL byte) also exits 3.

The parser is built on the first ``main`` call and reused by every later
one, also from several threads at once: nothing changes it. A command line
that starts with a subcommand is parsed by that subcommand's parser alone
(``vtcompress compress: unrecognized arguments: ...``); one that starts
with ``--config`` or is no command goes through the top-level parser.
``--config`` goes before the subcommand. Its file is read only once the
command line parses, so a usage error wins over a bad config. Its values
seed a re-parse of the subcommand's own tokens, so flags win over them and
they apply to their own call only.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import numeric, textsampler
from .formats import (
    MAGIC_ATTENTION,
    MAGIC_FEATURE_MAP,
    MAGIC_SELECTOR,
    STRUCTURES,
    SyntheticConfig,
    TensorFileError,
    export_heatmap,
    gen_synthetic,
    read_tensor,
    write_bytes,
    write_tensor,
)
from .heuristic import heuristic_importance, heuristic_topk
from .report import build_report, report_to_json, reprofile
from .textsampler import attention_scores, cumulative_topk, importance, per_layer_importance
from .training import (
    SCALE_INDIFFERENT_LEARNING_RATE,
    MeanTokenTarget,
    TrainConfig,
    TrainingDiverged,
    gradient_check,
    make_scale_indifferent_task,
    prepare_batch,
    random_gradcheck_instance,
    train_selector,
)
from .vision import (
    RegionRouting,
    compress_inference,
    default_menu,
    init_selector_params,
    params_from_array,
    params_to_array,
    selection_heatmap,
    seven_branch_menu,
    upsample_regions,
)

EXIT_USAGE = 2
EXIT_MISSING_FILE = 3
EXIT_FORMAT = 4
EXIT_INVALID = 5
EXIT_DIVERGED = 6
EXIT_GRADCHECK = 7

# the scale menus that --menu names, each built from --window
MENUS = {"3branch": default_menu, "7branch": seven_branch_menu}


def _fail(code: int, kind: str, message: str) -> int:
    print(json.dumps({"error": kind, "message": message}), file=sys.stderr)
    return code


def _emit(payload: dict, out: str | None) -> None:
    text = report_to_json(payload)
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        write_bytes(out, text.encode())


def _read_checked(path: str, expected_magic: str) -> np.ndarray:
    tensor, magic = read_tensor(path)
    if magic != expected_magic:
        raise TensorFileError(f"{path}: expected magic {expected_magic!r}, found {magic!r}")
    return tensor


def _read_json(path: str):
    """The JSON value in the UTF-8 file ``path``; a BOM or deep nesting is a ``ValueError``."""
    try:
        return json.loads(Path(path).read_bytes().decode("utf-8"))
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply to parse") from None


def _numbers(flag: str, text: str, finite: bool = True) -> list[float]:
    """Comma-separated numbers in ``text``, finite if ``finite``, or an error naming ``flag``."""
    try:
        values = [float(v) for v in text.split(",")]
        if finite and not all(map(math.isfinite, values)):
            raise ValueError
    except ValueError:
        raise ValueError(f"{flag} must be comma-separated finite numbers, got {text!r}") from None
    return values


def _project_keys(tokens: np.ndarray, heads: int, head_dim: int, seed: int) -> np.ndarray:
    """The combined strategy's keys: the vision stage emits pooled tokens that have
    no precomputed keys, so they get :func:`textsampler.project_keys` seeded by ``seed``."""
    return textsampler.project_keys(tokens, heads, head_dim, np.random.default_rng(seed))


def _region_importance_grid(routing: RegionRouting, scores: np.ndarray) -> np.ndarray:
    """Mean emitted-token importance per region, upsampled to the map grid."""
    counts = routing.counts
    starts = np.cumsum(counts) - counts
    means = np.zeros(counts.size)
    for n in set(routing.menu.token_counts) - {0}:  # one gather per token count
        regions = np.flatnonzero(counts == n)
        means[regions] = scores[starts[regions, None] + np.arange(n)].mean(axis=1)
    return upsample_regions(means.reshape(routing.grid), routing.menu.window)


def _train_log(summary: dict, run) -> bytes | bytearray:
    """The bytes of ``report_to_json(log)`` for the summary plus a ``history``
    entry ``{"step", "loss", "f", "p"}`` per step, raising its ``ValueError``
    on a non-finite value. With the kernel, only the head goes through
    ``report_to_json``: the ~3,500 floats of a finite history are laid out by
    one C call (:meth:`Kernel.history`)."""
    kernel, values = numeric._product_kernel(), (run.losses, run.f_history, run.p_history)
    if kernel is not None and all(np.isfinite(v).all() for v in values):
        return kernel.history(report_to_json(summary)[:-3].encode(), *values)
    history = [{"step": i, "loss": loss, "f": f, "p": p}
               for i, (loss, f, p) in enumerate(zip(*(v.tolist() for v in values)))]
    return report_to_json({**summary, "history": history}).encode()


def cmd_gen(args) -> int:
    cfg = SyntheticConfig(**{f.name: getattr(args, f.name)
                             for f in dataclasses.fields(SyntheticConfig)})
    _emit(gen_synthetic(cfg, args.out), "-")
    return 0


def cmd_compress(args) -> int:
    feature_map = _read_checked(args.map, MAGIC_FEATURE_MAP)
    height, width, _ = feature_map.shape
    input_tokens = height * width

    if args.strategy != "text":
        if args.global_map is None:
            raise ValueError(f"strategy {args.strategy!r} needs --global")
        global_map = _read_checked(args.global_map, MAGIC_FEATURE_MAP)

    routing = None
    vision_tokens = None
    if args.strategy in ("vision", "both"):
        menu = MENUS[args.menu](args.window)
        if args.params is not None:
            params = params_from_array(_read_checked(args.params, MAGIC_SELECTOR))
        else:
            num_global = global_map.shape[0] * global_map.shape[1]  # FMAP files are 3-d
            params = init_selector_params(len(menu), num_global, seed=args.seed)
        vision_tokens, routing = compress_inference(
            feature_map, global_map, params, menu, pool=args.pool
        )

    text_selection = None
    text_scores = None
    if args.strategy in ("text", "both"):
        if args.strategy == "text" and (args.q is None or args.k is None):
            raise ValueError("strategy 'text' needs --q and --k")
        if args.strategy == "both" and args.q is None:
            raise ValueError("strategy 'both' needs --q")
        if args.strategy == "both" and args.k is not None:
            raise ValueError("strategy 'both' projects keys from the vision tokens; drop --k")
        q = _read_checked(args.q, MAGIC_ATTENTION)
        keys = _read_checked(args.k, MAGIC_ATTENTION) if args.strategy == "text" else None
        for flag, tensor in (("--q", q), ("--k", keys)):
            if tensor is not None and tensor.ndim != 3:
                raise ValueError(f"{flag} must be a 3-d (heads, tokens, head dim) tensor")
        if keys is None:
            if vision_tokens.shape[0] == 0:
                raise ValueError("vision stage emitted no tokens; nothing for the text stage")
            keys = _project_keys(vision_tokens, q.shape[0], q.shape[2], args.seed)
        elif keys.shape[1] != input_tokens:
            raise ValueError(
                f"key file covers {keys.shape[1]} visual tokens but the map has {input_tokens}"
            )
        text_scores = importance(attention_scores(q, keys))
        text_selection = cumulative_topk(text_scores, args.gamma)

    heuristic_kept = None
    heuristic_scores = None
    if args.strategy == "heuristic":
        heuristic_scores = heuristic_importance(feature_map, global_map)
        heuristic_kept = int(heuristic_topk(heuristic_scores, args.keep_fraction).size)

    report = build_report(
        strategy=args.strategy,
        input_tokens=input_tokens,
        selections=routing,
        text_selection=text_selection,
        text_layer=args.layer,
        total_layers=args.total_layers,
        heuristic_kept=heuristic_kept,
        heuristic_keep_fraction=args.keep_fraction,
    )
    _emit(report, args.out)

    if args.heatmap_prefix:
        grids = {}
        if routing is not None:
            grids["vision"] = selection_heatmap(routing)
            if text_scores is not None:
                grids["text"] = _region_importance_grid(routing, text_scores)
        elif text_scores is not None:
            grids["text"] = text_scores.reshape(height, width)
        if heuristic_scores is not None:
            grids["heuristic"] = heuristic_scores.reshape(height, width)
        for name, grid in grids.items():
            export_heatmap(grid, "pgm", f"{args.heatmap_prefix}{name}.pgm")
    return 0


def cmd_train(args) -> int:
    menu = MENUS[args.menu](args.window)
    if args.task == "scale-indifferent":
        for flag, value in (("--map", args.map), ("--global", args.global_map),
                            ("--target", args.target)):
            if value is not None:
                raise ValueError(f"{flag} conflicts with --task scale-indifferent")
        dataset, downstream = make_scale_indifferent_task(args.seed, window=args.window)
    else:
        if not args.map or args.global_map is None:
            raise ValueError("train needs --task scale-indifferent or --map/--global files")
        global_map = _read_checked(args.global_map, MAGIC_FEATURE_MAP)
        dataset = [(_read_checked(path, MAGIC_FEATURE_MAP), global_map) for path in args.map]
        downstream = None
        if args.target is not None:
            downstream = MeanTokenTarget(np.array(_numbers("--target", args.target)))

    weights = None
    if args.imbalance is not None:
        weights = tuple(_numbers("--imbalance", args.imbalance, finite=False))

    init_params = None
    if args.resume is not None:
        init_params = params_from_array(_read_checked(args.resume, MAGIC_SELECTOR))

    config = TrainConfig(
        steps=args.steps,
        learning_rate=args.lr,
        alpha=args.alpha,
        seed=args.seed,
        imbalance_weights=weights,
        pool=args.pool,
    )
    run = train_selector(
        dataset, config, menu=menu, downstream=downstream, init_params=init_params
    )

    if args.out_params:
        write_tensor(args.out_params, params_to_array(run.params), MAGIC_SELECTOR)

    summary = {
        "steps": config.steps,
        "learningRate": config.learning_rate,
        "alpha": config.alpha,
        "seed": config.seed,
        "finalLoss": float(run.losses[-1]),
        "finalF": run.final_f.tolist(),
        "finalP": run.final_p.tolist(),
        "collapsed": run.collapsed,
    }
    if args.log:
        write_bytes(args.log, _train_log(summary, run))
    summary["paramsFile"] = args.out_params
    _emit(summary, "-")
    return 0


def cmd_gradcheck(args) -> int:
    if args.instances < 1:
        raise ValueError(f"--instances must be >= 1, got {args.instances}")
    if not (math.isfinite(args.tolerance) and args.tolerance > 0):
        raise ValueError(f"--tolerance must be a finite number > 0, got {args.tolerance}")
    if not (math.isfinite(args.margin) and args.margin >= 0):
        raise ValueError(f"--margin must be a finite number >= 0, got {args.margin}")
    menu = MENUS[args.menu](args.window)
    checked = []
    skipped = 0
    seed = args.seed
    attempts = 0
    max_attempts = max(50, args.instances * 50)
    while len(checked) < args.instances:
        if attempts >= max_attempts:
            raise ValueError(
                f"could not find {args.instances} tie-free instances in {max_attempts} attempts"
            )
        attempts += 1
        dataset, params, downstream = random_gradcheck_instance(
            seed, num_scales=len(menu), window=args.window
        )
        seed += 1
        margin = prepare_batch(dataset, menu).argmax_margin(params)
        if margin <= args.margin:
            skipped += 1
            print(
                f"notice: skipped tie-adjacent instance seed={seed - 1} "
                f"(margin {margin:.2e} <= {args.margin:.2e})"
            )
            continue
        chk = gradient_check(dataset, params, menu, downstream=downstream, alpha=args.alpha)
        checked.append(chk.rel_error)

    worst = max(checked)
    passed = worst <= args.tolerance
    _emit(
        {
            "instances": len(checked),
            "skipped": skipped,
            "tolerance": args.tolerance,
            "worstRelError": worst,
            "passed": passed,
        },
        "-",
    )
    if passed:
        return 0
    return _fail(EXIT_GRADCHECK, "gradcheck-failed",
                 f"worst relative error {worst!r} exceeds the tolerance {args.tolerance!r}")


def cmd_evolution(args) -> int:
    stack = _read_checked(args.attn, MAGIC_ATTENTION)
    if stack.ndim != 4:
        raise ValueError(
            f"evolution needs a layer-major 4-d attention stack, got {stack.ndim} dims"
        )
    layers, _, _, n = stack.shape
    if args.grid:
        dims = args.grid.lower().split("x")
        if len(dims) != 2 or not all(d.isdecimal() and int(d) > 0 for d in dims):
            raise ValueError(f"--grid must be HxW with positive integers, got {args.grid!r}")
        rows, cols = (int(d) for d in dims)
    else:
        side = math.isqrt(n)
        if side * side != n:
            raise ValueError(f"{n} tokens is not square; pass --grid HxW")
        rows = cols = side
    if rows * cols != n:
        raise ValueError(f"grid {rows}x{cols} does not hold {n} tokens")

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    maps = per_layer_importance(stack)
    files = []
    for layer in range(layers):
        path = out_dir / f"layer_{layer:02d}.{args.format}"
        export_heatmap(maps[layer].reshape(rows, cols), args.format, path)
        files.append(str(path))
    _emit({"layers": layers, "grid": f"{rows}x{cols}", "files": files}, "-")
    return 0


def cmd_report(args) -> int:
    report = _read_json(args.infile)
    _emit(reprofile(report, layer=args.layer, total_layers=args.total_layers), args.out)
    return 0


class _UsageError(Exception):
    """A command line the parser rejects."""


class _Parser(argparse.ArgumentParser):
    """Raises usage errors for ``main`` to report instead of printing usage and exiting.

    Subcommand parsers are of this class too: ``add_subparsers`` defaults
    ``parser_class`` to the parent's class.
    """

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")

    def _get_values(self, action, arg_strings):
        """argparse's, except that a flag's value ``--`` (``--out=--``) stays its
        value, as newer argparse keeps it; Python 3.11's drops it and stores an
        empty list, which no command can use."""
        if action.nargs is None and arg_strings == ["--"]:
            value = self._get_value(action, "--")
            self._check_value(action, value)
            return value
        return super()._get_values(action, arg_strings)


class _Subcommands(argparse._SubParsersAction):
    """Also keeps the chosen subcommand's own tokens, for ``main``'s ``--config`` re-parse."""

    def __call__(self, parser, namespace, values, option_string=None):
        namespace.own_tokens = values[1:]
        super().__call__(parser, namespace, values, option_string)


@functools.cache
def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and the subcommand parsers by name, built once per process."""
    parser = _Parser(
        prog="vtcompress",
        description="Coarse-to-fine visual token compression on encoded feature maps.",
        allow_abbrev=False,  # so an abbreviated --config is a usage error
    )
    parser.add_argument("--config", help="JSON file of default flag values (flags override)")
    sub = parser.add_subparsers(dest="command", required=True, action=_Subcommands)

    p = sub.add_parser("gen", help="generate synthetic fixture files")
    p.add_argument("--out", required=True, help="output directory")
    for field in dataclasses.fields(SyntheticConfig):  # one flag per fixture setting
        p.add_argument("--" + field.name.replace("_", "-"), type=type(field.default),
                       default=field.default,
                       choices=STRUCTURES if field.name == "structure" else None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("compress", help="run the samplers and emit a report")
    p.add_argument("--strategy", choices=["vision", "text", "both", "heuristic"], default="both")
    p.add_argument("--map", required=True, help="feature map file (FMAP)")
    p.add_argument("--global", dest="global_map", help="global feature map file (FMAP)")
    p.add_argument("--params", help="selector parameters file (SELW)")
    p.add_argument("--q", help="projected text queries (ATTN, heads x T x d)")
    p.add_argument("--k", help="projected visual keys (ATTN, heads x N x d)")
    p.add_argument("--window", type=int, default=4)
    p.add_argument("--menu", choices=MENUS, default="3branch")
    p.add_argument("--pool", choices=["mean", "max"], default="mean")
    p.add_argument("--gamma", type=float, default=0.85)
    p.add_argument("--layer", type=int, default=8)
    p.add_argument("--total-layers", type=int, default=32)
    p.add_argument("--keep-fraction", type=float, default=0.8)
    p.add_argument("--seed", type=int, default=0,
                   help="seed for fallback params and combined-strategy key projection")
    p.add_argument("--out", default="-", help="report path, '-' for stdout")
    p.add_argument("--heatmap-prefix", help="write PGM heatmaps with this path prefix")
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("train", help="train the scale selector")
    p.add_argument("--task", choices=["scale-indifferent"],
                   help="built-in synthetic task (alternative to --map/--global)")
    p.add_argument("--map", action="append", help="feature map file; repeatable")
    p.add_argument("--global", dest="global_map", help="global feature map file")
    p.add_argument("--target", help="comma-separated downstream target vector")
    p.add_argument("--steps", type=int, default=500)
    p.add_argument("--lr", type=float, default=SCALE_INDIFFERENT_LEARNING_RATE)
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--imbalance", help="comma-separated per-scale penalty weights")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--window", type=int, default=4)
    p.add_argument("--menu", choices=MENUS, default="3branch")
    p.add_argument("--pool", choices=["mean", "max"], default="mean")
    p.add_argument("--resume", help="SELW file to continue from")
    p.add_argument("--out-params", help="write final parameters to this SELW file")
    p.add_argument("--log", help="write the full JSON training log here")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("gradcheck", help="verify analytic gradients against finite differences")
    p.add_argument("--instances", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.add_argument("--margin", type=float, default=1e-3,
                   help="skip instances whose argmax margin is at most this")
    p.add_argument("--window", type=int, default=4)
    p.add_argument("--menu", choices=MENUS, default="3branch")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("evolution", help="per-layer importance heatmaps from an attention stack")
    p.add_argument("--attn", required=True, help="layer-major 4-d ATTN file")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--grid", help="HxW token grid (default: square root of N)")
    p.add_argument("--format", choices=["pgm", "csv"], default="pgm")
    p.set_defaults(func=cmd_evolution)

    p = sub.add_parser("report", help="re-profile an existing report")
    p.add_argument("--in", dest="infile", required=True, help="report JSON file")
    p.add_argument("--layer", type=int, help="what-if text insertion layer")
    p.add_argument("--total-layers", type=int)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_report)

    return parser, sub.choices


def _config_overrides(path: str, command: argparse.ArgumentParser) -> dict[str, object]:
    """The ``--config`` file at ``path``, checked against the subcommand parser
    ``command`` and keyed by argparse dest.

    A key is a flag's long name without the leading ``--`` (``global``,
    ``out-params``) or its argparse dest (``global_map``); ``-`` and ``_``
    are interchangeable. ``help`` names no flag: ``-h`` takes no value.
    """
    overrides = _read_json(path)
    if not isinstance(overrides, dict):
        raise ValueError("config file must hold a JSON object")
    names = {}
    for action in command._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        for name in [action.dest] + [o[2:] for o in action.option_strings if o.startswith("--")]:
            names[name.replace("-", "_")] = action
    mapped = {}
    for key, value in overrides.items():
        action = names.get(key.replace("-", "_"))
        if action is None:
            raise ValueError(f"config key {key!r} is not a flag of {command.prog!r}")
        mapped[action.dest] = _config_value(action, key, value)
    return mapped


def _config_value(action: argparse.Action, key: str, value):
    """``value`` converted and checked as argparse treats the flag on the command line."""
    repeated = isinstance(action, argparse._AppendAction)
    items = value if repeated and isinstance(value, list) else [value]
    converted = []
    for item in items:
        if isinstance(item, bool) or not isinstance(item, (str, int, float)):
            raise ValueError(f"config key {key!r} must be a string or a number, got {item!r}")
        try:
            item = action.type(str(item)) if action.type else str(item)
        except ValueError:
            raise ValueError(f"config key {key!r} has an invalid value {item!r}") from None
        if action.choices is not None and item not in action.choices:
            raise ValueError(f"config key {key!r} must be one of {sorted(action.choices)}")
        converted.append(item)
    return converted if repeated else converted[0]


def main(argv=None) -> int:
    parser, commands = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        if argv and argv[0] in commands:  # the subcommand's parser alone: half the parse time
            command, tokens = commands[argv[0]], argv[1:]
            namespace = argparse.Namespace(command=argv[0], config=None)
            args = command.parse_args(tokens, namespace)
        else:
            args = parser.parse_args(argv)
        if args.config:  # flags overwrite config values; defaults fill only the rest
            command = commands[args.command]
            namespace = argparse.Namespace(command=args.command,
                                           **_config_overrides(args.config, command))
            tokens = args.own_tokens
            args = command.parse_args(tokens, namespace)
        return args.func(args)
    except _UsageError as exc:
        return _fail(EXIT_USAGE, "usage", str(exc))
    except FileNotFoundError as exc:
        return _fail(EXIT_MISSING_FILE, "file-not-found", str(exc))
    except OSError as exc:
        return _fail(EXIT_MISSING_FILE, "file-error", str(exc))
    except UnicodeEncodeError as exc:  # only a path is encoded: all other text is ASCII JSON
        return _fail(EXIT_MISSING_FILE, "file-error", f"path {exc.object!r}: {exc}")
    except TensorFileError as exc:
        return _fail(EXIT_FORMAT, "format-error", str(exc))
    except TrainingDiverged as exc:
        return _fail(EXIT_DIVERGED, "training-diverged", str(exc))
    except ValueError as exc:
        if str(exc).startswith("embedded null"):  # os refuses a path holding a NUL byte
            return _fail(EXIT_MISSING_FILE, "file-error", f"a path cannot hold a NUL byte: {exc}")
        return _fail(EXIT_INVALID, "invalid-input", str(exc))
    except MemoryError as exc:
        return _fail(EXIT_INVALID, "out-of-memory", str(exc) or "out of memory")


if __name__ == "__main__":
    sys.exit(main())
