"""Bit-exact tensor file format, heatmap export, and synthetic fixtures.

File layout (all integers little-endian, no padding):

    magic    4 ASCII bytes   "FMAP" feature maps | "ATTN" attention tensors
                             | "SELW" selector parameters
    version  u32             always 1
    ndims    u32
    dims     ndims x u32     each >= 1
    payload  f32 x prod(dims), row-major

Dim-count conventions per magic: FMAP is (H, W, C); ATTN is (h, T, N) for
projected query/key dumps or a single attention tensor, or layer-major
(L, h, T, N) for per-layer stacks; SELW is (S, Ng + 1) with the bias in the
last column. Values are stored as f32 and widened to f64 in memory, so a
read of a written file reproduces the in-memory values exactly whenever they
are f32-representable (everything this package writes is).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .numeric import as_tensor
from .textsampler import project_keys

__all__ = [
    "MAGIC_FEATURE_MAP",
    "MAGIC_ATTENTION",
    "MAGIC_SELECTOR",
    "TensorFileError",
    "BadMagicError",
    "UnsupportedVersionError",
    "TruncatedPayloadError",
    "DimsMismatchError",
    "NonFiniteDataError",
    "read_tensor",
    "write_tensor",
    "export_heatmap",
    "STRUCTURES",
    "SyntheticConfig",
    "gen_synthetic",
]

MAGIC_FEATURE_MAP = "FMAP"
MAGIC_ATTENTION = "ATTN"
MAGIC_SELECTOR = "SELW"

_VERSION = 1
_HEADER = struct.Struct("<4sII")

# allowed dim counts per magic
_NDIMS = {MAGIC_FEATURE_MAP: (3,), MAGIC_ATTENTION: (3, 4), MAGIC_SELECTOR: (2,)}


class TensorFileError(ValueError):
    """Base class for tensor-file format violations."""


class BadMagicError(TensorFileError):
    pass


class UnsupportedVersionError(TensorFileError):
    pass


class TruncatedPayloadError(TensorFileError):
    pass


class DimsMismatchError(TensorFileError):
    """Dim count inconsistent with the magic, or a non-positive dim."""


class NonFiniteDataError(TensorFileError):
    pass


def _check_dims(magic: str, dims: tuple[int, ...]) -> None:
    allowed = _NDIMS.get(magic)
    if allowed is None:
        raise BadMagicError(f"unknown magic {magic!r}")
    if len(dims) not in allowed:
        raise DimsMismatchError(
            f"magic {magic!r} expects {' or '.join(map(str, allowed))} dims, got {len(dims)}"
        )
    if any(d < 1 for d in dims):
        raise DimsMismatchError(f"dims must be positive, got {dims}")


def write_tensor(path, tensor, magic: str) -> None:
    """Write ``tensor`` to ``path`` in the binary format above.

    The dim count must match the magic's convention; values are stored as
    little-endian f32. A value that f32 rounds to infinity is refused with a
    ``ValueError`` before the file is opened: no reader would accept the file.
    """
    arr = as_tensor(tensor)
    _check_dims(magic, arr.shape)
    with np.errstate(over="ignore"):  # the finite check below reports it
        payload = arr.astype("<f4")
    if not np.isfinite(payload).all():
        raise ValueError(f"tensor holds values beyond float32's range (largest magnitude "
                         f"{float(np.abs(arr).max())!r}), which cannot be written")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(magic.encode("ascii"), _VERSION, arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        fh.write(payload.tobytes())


def read_tensor(path) -> tuple[np.ndarray, str]:
    """Read a tensor file; returns (float64 array, magic string).

    Raises a distinct :class:`TensorFileError` subclass per failure mode.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise TruncatedPayloadError(f"file too short for header ({len(raw)} bytes)")
    magic_bytes, version, ndims = _HEADER.unpack_from(raw)
    try:
        magic = magic_bytes.decode("ascii")
    except UnicodeDecodeError:
        raise BadMagicError(f"unreadable magic {magic_bytes!r}") from None
    if magic not in _NDIMS:
        raise BadMagicError(f"unknown magic {magic!r}")
    if version != _VERSION:
        raise UnsupportedVersionError(f"unsupported version {version}")
    dims_end = _HEADER.size + 4 * ndims
    if len(raw) < dims_end:
        raise TruncatedPayloadError("file too short for dim list")
    dims = struct.unpack_from(f"<{ndims}I", raw, _HEADER.size)
    _check_dims(magic, dims)
    count = math.prod(dims)
    expected = dims_end + 4 * count
    if len(raw) < expected:
        raise TruncatedPayloadError(
            f"payload holds {(len(raw) - dims_end) // 4} of {count} values"
        )
    if len(raw) > expected:
        raise TensorFileError(f"{len(raw) - expected} trailing bytes after payload")
    values = np.frombuffer(raw, dtype="<f4", count=count, offset=dims_end)
    if not np.isfinite(values).all():  # before the cast, which warns on a signaling NaN
        raise NonFiniteDataError("payload contains non-finite values")
    return values.astype(np.float64).reshape(dims), magic


def export_heatmap(values, fmt: str, path) -> None:
    """Write an (H, W) value grid as a plain-text PGM ("P2") or CSV file.

    PGM output is min-max normalized to 0..255 (a constant map becomes all
    zeros; a range wider than the largest float is halved first); CSV rows
    carry the raw values with full round-trip precision.
    """
    grid = as_tensor(values)
    if grid.ndim != 2:
        raise ValueError(f"heatmap expects an (H, W) grid, got shape {grid.shape}")
    fmt = fmt.lower()
    h, w = grid.shape
    if fmt == "pgm":
        lo, hi = float(grid.min()), float(grid.max())
        if not math.isfinite(hi - lo):  # halved, no difference overflows
            grid, lo, hi = grid / 2.0, lo / 2.0, hi / 2.0
        if hi > lo:
            pixels = np.floor((grid - lo) / (hi - lo) * 255.0 + 0.5).astype(int)
        else:
            pixels = np.zeros((h, w), dtype=int)
        body = ((" ".join(["%d"] * w) + "\n") * h) % tuple(pixels.ravel().tolist())
        Path(path).write_text(f"P2\n{w} {h}\n255\n" + body)
    elif fmt == "csv":
        Path(path).write_text("".join(",".join(map(repr, row)) + "\n" for row in grid.tolist()))
    else:
        raise ValueError(f"unknown heatmap format {fmt!r} (use 'pgm' or 'csv')")


# the fixture generator's recipes, the values of SyntheticConfig.structure
STRUCTURES = ("uniform-noise", "block-structured")


@dataclass(frozen=True)
class SyntheticConfig:
    """Shapes, seed, and structure for the fixture generator.

    ``structure`` is ``"uniform-noise"`` or ``"block-structured"``. The
    block-structured recipe draws a low-variance background (0.5 + 0.05 * N(0,1))
    and overwrites a few random rectangles with high-variance foreground
    (0.5 + 0.6 * N(0,1)); query rows are anchored to visual tokens inside the
    rectangles so that attention fixtures concentrate where the "content" is.
    """

    height: int = 24
    width: int = 24
    channels: int = 8
    global_height: int = 6
    global_width: int = 6
    heads: int = 4
    text_tokens: int = 8
    head_dim: int = 16
    seed: int = 0
    structure: str = "uniform-noise"

    def __post_init__(self):
        for name in ("height", "width", "channels", "global_height", "global_width",
                     "heads", "text_tokens", "head_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.structure not in STRUCTURES:
            raise ValueError(f"unknown structure {self.structure!r}")


def _block_structured_map(rng: np.random.Generator, cfg: SyntheticConfig):
    fm = 0.5 + 0.05 * rng.standard_normal((cfg.height, cfg.width, cfg.channels))
    n_rect = max(1, min(3, cfg.height // 8))
    rects = []
    for _ in range(n_rect):
        rh = int(rng.integers(max(2, cfg.height // 4), max(3, cfg.height // 2) + 1))
        rw = int(rng.integers(max(2, cfg.width // 4), max(3, cfg.width // 2) + 1))
        rh, rw = min(rh, cfg.height), min(rw, cfg.width)
        top = int(rng.integers(0, cfg.height - rh + 1))
        left = int(rng.integers(0, cfg.width - rw + 1))
        fm[top : top + rh, left : left + rw, :] = 0.5 + 0.6 * rng.standard_normal(
            (rh, rw, cfg.channels)
        )
        rects.append((top, left, rh, rw))
    return fm, rects


def gen_synthetic(cfg: SyntheticConfig, out_dir) -> dict:
    """Generate the four fixture files the pipeline consumes.

    Writes ``x.fmap`` (H, W, C), ``xg.fmap`` (Hg, Wg, C), ``q.attn``
    (h, T, d), and ``k.attn`` (h, N=H*W, d) under ``out_dir``; byte-identical
    for identical configs. The global map is the area mean-pool of the detail
    map when (Hg, Wg) divides (H, W), otherwise an independent draw. Keys are
    per-head random projections of the visual tokens; queries are projections
    of anchor tokens (inside rectangles in block-structured mode) plus noise.

    Returns a metadata dict with the file paths and generator details.
    """
    rng = np.random.default_rng(cfg.seed)

    rects: list[tuple[int, int, int, int]] = []
    if cfg.structure == "block-structured":
        fm, rects = _block_structured_map(rng, cfg)
    else:
        fm = rng.random((cfg.height, cfg.width, cfg.channels))

    if cfg.height % cfg.global_height == 0 and cfg.width % cfg.global_width == 0:
        ph = cfg.height // cfg.global_height
        pw = cfg.width // cfg.global_width
        xg = fm.reshape(cfg.global_height, ph, cfg.global_width, pw, cfg.channels).mean(
            axis=(1, 3)
        )
        global_source = "mean-pooled"
    else:
        xg = rng.random((cfg.global_height, cfg.global_width, cfg.channels))
        global_source = "independent"

    tokens = fm.reshape(cfg.height * cfg.width, cfg.channels)
    k = project_keys(tokens, cfg.heads, cfg.head_dim, rng)  # (h, N, d)

    # queries anchored to visual tokens (inside the rectangles, if any) so
    # attention has somewhere to look
    anchor_pool = np.full((cfg.height, cfg.width), not rects)
    for top, left, rh, rw in rects:
        anchor_pool[top : top + rh, left : left + rw] = True
    anchors = rng.choice(np.flatnonzero(anchor_pool), size=cfg.text_tokens, replace=True)
    q = k[:, anchors] + 0.25 * rng.standard_normal((cfg.heads, cfg.text_tokens, cfg.head_dim))

    # made only now, so that a config too large to allocate leaves no directory
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # round-trip through f32 so in-memory values match the files exactly
    files = {
        "x": (out / "x.fmap", fm, MAGIC_FEATURE_MAP),
        "xg": (out / "xg.fmap", xg, MAGIC_FEATURE_MAP),
        "q": (out / "q.attn", q, MAGIC_ATTENTION),
        "k": (out / "k.attn", k, MAGIC_ATTENTION),
    }
    paths = {}
    for name, (path, arr, magic) in files.items():
        write_tensor(path, arr.astype(np.float32).astype(np.float64), magic)
        paths[name] = str(path)

    return {
        "paths": paths,
        "structure": cfg.structure,
        "seed": cfg.seed,
        "rectangles": rects,
        "global_source": global_source,
        "anchors": [int(a) for a in anchors],
    }
