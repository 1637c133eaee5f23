"""Command-line entry point.

Subcommands: gen (synthetic fixtures), compress (run the samplers and emit a
report), train (fit the scale selector), gradcheck (analytic vs numeric
gradients), evolution (per-layer importance heatmaps), report (re-profile an
existing report under a different insertion layer, through
``report.reprofile``). The commands only read, write and convert; the token
accounting and its checks belong to ``vtcompress.report``.

Every failure exits nonzero with one JSON line on stderr of the form
{"error": <class>, "message": <text>}; exit codes are 2 usage, 3 missing
file, 4 tensor-file format, 5 invalid input or inconsistent dimensions,
6 training divergence, 7 gradient check failure. A command line argparse
rejects (a missing required flag, a value of the wrong type, an unknown
flag) exits 2 with error "usage"; only ``-h``/``--help`` prints argparse
text, and exits 0. A file that cannot be read or written for any other
reason (a directory, no permission) also exits 3.

The parser is built on the first ``main`` call and reused by every later
call in the process, which matters to callers that run ``main`` many times.
``--config`` sets the subcommand's defaults for its own call only: the
shared parser's defaults are restored when the call has parsed its
arguments or failed. Calls from several threads parse one at a time, so one
call's ``--config`` values never reach another.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import threading
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .formats import (
    MAGIC_ATTENTION,
    MAGIC_FEATURE_MAP,
    MAGIC_SELECTOR,
    SyntheticConfig,
    TensorFileError,
    export_heatmap,
    gen_synthetic,
    read_tensor,
    write_tensor,
)
from .heuristic import heuristic_importance, heuristic_topk
from .numeric import matmul
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
    RegionSelection,
    compress_inference,
    default_menu,
    flatten_grid,
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


def _fail(code: int, kind: str, message: str) -> int:
    print(json.dumps({"error": kind, "message": message}), file=sys.stderr)
    return code


def _emit(payload: dict, out: str | None) -> None:
    text = report_to_json(payload)
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _read_checked(path: str, expected_magic: str) -> np.ndarray:
    tensor, magic = read_tensor(path)
    if magic != expected_magic:
        raise TensorFileError(f"{path}: expected magic {expected_magic!r}, found {magic!r}")
    return tensor


def _read_json(path: str):
    """The JSON value in ``path``; nesting too deep to parse is a ``ValueError``."""
    try:
        return json.loads(Path(path).read_text())
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply to parse") from None


def _build_menu(name: str, window: int):
    return {"3branch": default_menu, "7branch": seven_branch_menu}[name](window)


def _project_keys(tokens: np.ndarray, heads: int, head_dim: int, seed: int) -> np.ndarray:
    """Seeded per-head projection of emitted tokens to (h, N, d) keys.

    Stands in for the key projection the tokens would receive inside a model;
    used by the combined strategy, where the vision stage emits pooled tokens
    that have no precomputed keys.
    """
    channels = tokens.shape[1]
    rng = np.random.default_rng(seed)
    proj = rng.standard_normal((heads, channels, head_dim)) / math.sqrt(channels)
    return np.stack([matmul(tokens, proj[h]) for h in range(heads)])


def _region_importance_grid(
    selections: list[RegionSelection], scores: np.ndarray, menu, region_grid
) -> np.ndarray:
    """Mean emitted-token importance per region, upsampled to the map grid."""
    counts = np.array([sel.token_count for sel in selections])
    starts = np.cumsum(counts) - counts
    means = np.zeros(counts.size)
    for n in set(menu.token_counts) - {0}:  # one gather per token count
        regions = np.flatnonzero(counts == n)
        means[regions] = scores[starts[regions, None] + np.arange(n)].mean(axis=1)
    return upsample_regions(means.reshape(region_grid), menu.window)


def _train_log(summary: dict, run) -> str:
    """``json.dumps(log, indent=2) + "\\n"`` for the summary plus a ``history``
    entry ``{"step", "loss", "f", "p"}`` per step, byte for byte.

    json's indented encoder is pure Python and slow, so the history is one
    template filled with reprs, as json writes finite floats. Each distinct
    value (f only holds k/M) is formatted once, told apart by its bits, since
    under ``==`` ``-0.0`` would be written as ``0.0``.
    """
    head = json.dumps(summary, indent=2)
    values = np.column_stack([run.losses, run.f_history, run.p_history])
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    reprs = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
    cells = np.column_stack([np.arange(len(values)), reprs[inverse.reshape(values.shape)]])
    vector = "[\n        " + ",\n        ".join(["%s"] * run.f_history.shape[1]) + "\n      ]"
    entry = ('    {\n      "step": %d,\n      "loss": %s,\n      "f": ' + vector
             + ',\n      "p": ' + vector + "\n    }")
    history = ",\n".join([entry] * len(values)) % tuple(cells.ravel().tolist())
    return f'{head[:-2]},\n  "history": [\n{history}\n  ]\n}}\n'


def cmd_gen(args) -> int:
    cfg = SyntheticConfig(
        height=args.height,
        width=args.width,
        channels=args.channels,
        global_height=args.global_height,
        global_width=args.global_width,
        heads=args.heads,
        text_tokens=args.text_tokens,
        head_dim=args.head_dim,
        seed=args.seed,
        structure=args.structure,
    )
    meta = gen_synthetic(cfg, args.out)
    _emit(meta, "-")
    return 0


def cmd_compress(args) -> int:
    feature_map = _read_checked(args.map, MAGIC_FEATURE_MAP)
    height, width, _ = feature_map.shape
    input_tokens = height * width

    if args.strategy != "text":
        if args.global_map is None:
            raise ValueError(f"strategy {args.strategy!r} needs --global")
        global_tokens = flatten_grid(_read_checked(args.global_map, MAGIC_FEATURE_MAP))

    selections = None
    menu = None
    vision_tokens = None
    if args.strategy in ("vision", "both"):
        menu = _build_menu(args.menu, args.window)
        if args.params is not None:
            params = params_from_array(_read_checked(args.params, MAGIC_SELECTOR))
        else:
            params = init_selector_params(len(menu), global_tokens.shape[0], seed=args.seed)
        vision_tokens, selections = compress_inference(
            feature_map, global_tokens, params, menu, pool=args.pool
        )

    text_selection = None
    text_scores = None
    if args.strategy == "text":
        if args.q is None or args.k is None:
            raise ValueError("strategy 'text' needs --q and --k")
        q = _read_checked(args.q, MAGIC_ATTENTION)
        k = _read_checked(args.k, MAGIC_ATTENTION)
        if k.ndim != 3 or q.ndim != 3:
            raise ValueError("--q and --k must be 3-d (heads, tokens, head dim) tensors")
        if k.shape[1] != input_tokens:
            raise ValueError(
                f"key file covers {k.shape[1]} visual tokens but the map has {input_tokens}"
            )
        text_scores = importance(attention_scores(q, k))
        text_selection = cumulative_topk(text_scores, args.gamma)
    elif args.strategy == "both":
        if args.q is None:
            raise ValueError("strategy 'both' needs --q")
        if args.k is not None:
            raise ValueError("strategy 'both' projects keys from the vision tokens; drop --k")
        q = _read_checked(args.q, MAGIC_ATTENTION)
        if q.ndim != 3:
            raise ValueError("--q must be a 3-d (heads, tokens, head dim) tensor")
        if vision_tokens.shape[0] == 0:
            raise ValueError("vision stage emitted no tokens; nothing for the text stage")
        keys = _project_keys(vision_tokens, q.shape[0], q.shape[2], args.seed)
        text_scores = importance(attention_scores(q, keys))
        text_selection = cumulative_topk(text_scores, args.gamma)

    heuristic_kept = None
    heuristic_scores = None
    if args.strategy == "heuristic":
        heuristic_scores = heuristic_importance(feature_map, global_tokens)
        heuristic_kept = int(heuristic_topk(heuristic_scores, args.keep_fraction).size)

    report = build_report(
        strategy=args.strategy,
        input_tokens=input_tokens,
        menu=menu,
        selections=selections,
        text_selection=text_selection,
        text_layer=args.layer if text_selection is not None else None,
        total_layers=args.total_layers,
        heuristic_kept=heuristic_kept,
        heuristic_keep_fraction=args.keep_fraction if args.strategy == "heuristic" else None,
    )
    _emit(report, args.out)

    if args.heatmap_prefix:
        prefix = args.heatmap_prefix
        if selections is not None:
            region_grid = (height // menu.window, width // menu.window)
            export_heatmap(
                selection_heatmap(selections, menu, region_grid), "pgm", f"{prefix}vision.pgm"
            )
            if text_scores is not None:
                export_heatmap(
                    _region_importance_grid(selections, text_scores, menu, region_grid),
                    "pgm",
                    f"{prefix}text.pgm",
                )
        elif text_scores is not None:
            export_heatmap(text_scores.reshape(height, width), "pgm", f"{prefix}text.pgm")
        if heuristic_scores is not None:
            export_heatmap(
                heuristic_scores.reshape(height, width), "pgm", f"{prefix}heuristic.pgm"
            )
    return 0


def cmd_train(args) -> int:
    menu = _build_menu(args.menu, args.window)
    if args.task == "scale-indifferent":
        dataset, downstream = make_scale_indifferent_task(args.seed, window=args.window)
    else:
        if not args.map or args.global_map is None:
            raise ValueError("train needs --task scale-indifferent or --map/--global files")
        global_tokens = flatten_grid(_read_checked(args.global_map, MAGIC_FEATURE_MAP))
        dataset = [
            (_read_checked(path, MAGIC_FEATURE_MAP), global_tokens) for path in args.map
        ]
        downstream = None
        if args.target is not None:
            downstream = MeanTokenTarget(np.array([float(v) for v in args.target.split(",")]))

    weights = None
    if args.imbalance is not None:
        weights = tuple(float(v) for v in args.imbalance.split(","))

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
        Path(args.log).write_text(_train_log(summary, run))
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
    menu = _build_menu(args.menu, args.window)
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
        dataset, params, downstream = random_gradcheck_instance(seed)
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
    return 0 if passed else EXIT_GRADCHECK


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


@functools.cache
def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and the subcommand parsers by name, built once per process."""
    parser = _Parser(
        prog="vtcompress",
        description="Coarse-to-fine visual token compression on encoded feature maps.",
        allow_abbrev=False,  # as in _config_parser, so an abbreviated --config is a usage error
    )
    parser.add_argument("--config", help="JSON file of default flag values (flags override)")
    sub = parser.add_subparsers(dest="command", required=True)
    commands: dict[str, argparse.ArgumentParser] = {}

    p = sub.add_parser("gen", help="generate synthetic fixture files")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--height", type=int, default=24)
    p.add_argument("--width", type=int, default=24)
    p.add_argument("--channels", type=int, default=8)
    p.add_argument("--global-height", type=int, default=6)
    p.add_argument("--global-width", type=int, default=6)
    p.add_argument("--heads", type=int, default=4)
    p.add_argument("--text-tokens", type=int, default=8)
    p.add_argument("--head-dim", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--structure", choices=["uniform-noise", "block-structured"],
                   default="uniform-noise")
    p.set_defaults(func=cmd_gen)
    commands["gen"] = p

    p = sub.add_parser("compress", help="run the samplers and emit a report")
    p.add_argument("--strategy", choices=["vision", "text", "both", "heuristic"], default="both")
    p.add_argument("--map", required=True, help="feature map file (FMAP)")
    p.add_argument("--global", dest="global_map", help="global feature map file (FMAP)")
    p.add_argument("--params", help="selector parameters file (SELW)")
    p.add_argument("--q", help="projected text queries (ATTN, heads x T x d)")
    p.add_argument("--k", help="projected visual keys (ATTN, heads x N x d)")
    p.add_argument("--window", type=int, default=4)
    p.add_argument("--menu", choices=["3branch", "7branch"], default="3branch")
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
    commands["compress"] = p

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
    p.add_argument("--menu", choices=["3branch", "7branch"], default="3branch")
    p.add_argument("--pool", choices=["mean", "max"], default="mean")
    p.add_argument("--resume", help="SELW file to continue from")
    p.add_argument("--out-params", help="write final parameters to this SELW file")
    p.add_argument("--log", help="write the full JSON training log here")
    p.set_defaults(func=cmd_train)
    commands["train"] = p

    p = sub.add_parser("gradcheck", help="verify analytic gradients against finite differences")
    p.add_argument("--instances", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.add_argument("--margin", type=float, default=1e-3,
                   help="skip instances whose argmax margin is at most this")
    p.add_argument("--window", type=int, default=4)
    p.add_argument("--menu", choices=["3branch", "7branch"], default="3branch")
    p.set_defaults(func=cmd_gradcheck)
    commands["gradcheck"] = p

    p = sub.add_parser("evolution", help="per-layer importance heatmaps from an attention stack")
    p.add_argument("--attn", required=True, help="layer-major 4-d ATTN file")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--grid", help="HxW token grid (default: square root of N)")
    p.add_argument("--format", choices=["pgm", "csv"], default="pgm")
    p.set_defaults(func=cmd_evolution)
    commands["evolution"] = p

    p = sub.add_parser("report", help="re-profile an existing report")
    p.add_argument("--in", dest="infile", required=True, help="report JSON file")
    p.add_argument("--layer", type=int, help="what-if text insertion layer")
    p.add_argument("--total-layers", type=int)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_report)
    commands["report"] = p

    return parser, commands


@functools.cache
def _config_parser() -> argparse.ArgumentParser:
    """Finds ``--config`` before the full parse, which needs the file's defaults.

    Abbreviations are off: otherwise a subcommand's abbreviated flag such as
    ``gen --c 4`` (``--channels``) would be read here as ``--config 4``.
    """
    pre = _Parser(prog="vtcompress", add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    return pre


def _config_overrides(argv: list[str], commands) -> dict[argparse.Action, object]:
    """``--config`` values, checked and converted, keyed by the flag they set.

    A key is a flag's long name without the leading ``--`` (``global``,
    ``out-params``) or its argparse dest (``global_map``); ``-`` and ``_``
    are interchangeable.
    """
    known, rest = _config_parser().parse_known_args(argv)
    if not known.config:
        return {}
    overrides = _read_json(known.config)
    if not isinstance(overrides, dict):
        raise ValueError("config file must hold a JSON object")
    command = next((tok for tok in rest if not tok.startswith("-")), None)
    target = commands.get(command)
    if target is None:
        return {}
    names = {}
    for action in target._actions:
        names[action.dest] = action
        for option in action.option_strings:
            if option.startswith("--"):
                names[option[2:].replace("-", "_")] = action
    mapped = {}
    for key, value in overrides.items():
        action = names.get(key.replace("-", "_"))
        if action is None:
            raise ValueError(f"config key {key!r} is not a flag of {command!r}")
        mapped[action] = _config_value(action, key, value)
    return mapped


@contextmanager
def _config_defaults(argv: list[str], commands):
    """Within the block, ``--config`` values are the subcommand's flag defaults.

    The parsers are shared by every call in the process, so the defaults
    this call replaced are put back on leaving the block, also when parsing
    fails.
    """
    overrides = _config_overrides(argv, commands)
    saved = {action: action.default for action in overrides}
    try:
        for action, value in overrides.items():
            action.default = value
        yield
    finally:
        for action, default in saved.items():
            action.default = default


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


# Held while a call's ``--config`` defaults are set on the shared parser, so
# calls from other threads neither see them nor restore over them.
_PARSE_LOCK = threading.Lock()


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = build_parser()
    try:
        with _PARSE_LOCK, _config_defaults(argv, commands):
            args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        return _fail(EXIT_USAGE, "usage", str(exc))
    except FileNotFoundError as exc:
        return _fail(EXIT_MISSING_FILE, "file-not-found", str(exc))
    except OSError as exc:
        return _fail(EXIT_MISSING_FILE, "file-error", str(exc))
    except TensorFileError as exc:
        return _fail(EXIT_FORMAT, "format-error", str(exc))
    except TrainingDiverged as exc:
        return _fail(EXIT_DIVERGED, "training-diverged", str(exc))
    except ValueError as exc:
        return _fail(EXIT_INVALID, "invalid-input", str(exc))


if __name__ == "__main__":
    sys.exit(main())
