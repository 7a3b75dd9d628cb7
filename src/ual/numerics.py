"""Dense float64 arithmetic, a replayable RNG, manual-backprop units, and input readers.

Everything downstream is built on these pieces:

* shape-checked float64 vectors (plain ``numpy`` arrays; any
  dimension mismatch raises :class:`~ual.errors.ShapeError`, nothing is
  broadcast silently),
* :class:`SeededRng`, a splitmix64 counter generator with Box-Muller
  normals whose exact algorithm is documented below so the stream can be
  replayed by an independent implementation,
* small differentiable units (affine map, softmax cross-entropy) with
  hand-written backward passes, a :class:`ParameterStore` for their
  weights, and a central-finite-difference :func:`gradient_check`,
* one rule for each step of reading an input file (:func:`open_data_file`,
  :func:`read_text` or :func:`text_lines`, :func:`parse_json`,
  :func:`check_dims`); each failure is a :class:`~ual.errors.DataError`
  naming the file, and its line if known.

The model here is tiny, so float64 is used throughout; gradient checking
needs the precision anyway.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

import numpy as np

from .errors import DataError, NumericError, ShapeError

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

# ---------------------------------------------------------------------------
# shape-checked dense storage


def as_f64(a, name: str = "array") -> np.ndarray:
    """Return ``a`` as a contiguous float64 array, rejecting non-finite input."""
    arr = np.ascontiguousarray(a, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"{name} contains non-finite values")
    return arr


# ---------------------------------------------------------------------------
# seeded RNG


_U11, _U27, _U30, _U31 = (np.uint64(v) for v in (11, 27, 30, 31))
_GAMMA_U = np.uint64(_GAMMA)
_MIX_A_U = np.uint64(_MIX_A)
_MIX_B_U = np.uint64(_MIX_B)


def _mix64(z):
    """splitmix64 finalizer on uint64 arrays or scalars (wraps mod 2^64).

    Callers silence numpy's overflow warning for scalars; the wrap-around
    is the algorithm.
    """
    z = (z ^ (z >> _U30)) * _MIX_A_U
    z = (z ^ (z >> _U27)) * _MIX_B_U
    return z ^ (z >> _U31)


def fnv1a64(data: bytes) -> int:
    """FNV-1a 64-bit hash; used to fold string keys into RNG stream seeds."""
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


@functools.lru_cache(maxsize=1 << 16)
def _str_token(part: str) -> np.uint64:
    # group ids and stream names repeat every epoch: hash each one once
    return np.uint64(fnv1a64(part.encode("utf-8")))


def _words(seeds, start: int, k: int) -> np.ndarray:
    """Raw words ``start .. start+k-1`` (0-based) of the stream(s) ``seeds``.

    ``seeds`` is one uint64 seed, or an array with a trailing length-1 axis
    for one row of words per stream.
    """
    idx = np.arange(start + 1, start + k + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return _mix64(seeds + idx * _GAMMA_U)


def _fold(seed, token):
    """One ``derive`` step: ``mix(seed ^ (token + GAMMA))``."""
    return _mix64(seed ^ (token + _GAMMA_U))


def _shape(shape: int | tuple[int, ...]) -> tuple[int, ...]:
    return (int(shape),) if isinstance(shape, (int, np.integer)) else tuple(shape)


def _normal_words(k: int) -> int:
    """Raw words a draw of ``k`` normals consumes: Box-Muller works in pairs."""
    return 2 * ((k + 1) // 2)


def _uniforms(words: np.ndarray) -> np.ndarray:
    """The uniform in [0, 1) of each raw word."""
    return (words >> _U11).astype(np.float64) * 2.0**-53


def _box_muller(words: np.ndarray, k: int) -> np.ndarray:
    """The first ``k`` normals of each row of raw words (pairs along the last axis)."""
    u1 = ((words[..., 0::2] >> _U11).astype(np.float64) + 1.0) * 2.0**-53
    u2 = (words[..., 1::2] >> _U11).astype(np.float64) * 2.0**-53
    r = np.sqrt(-2.0 * np.log(u1))
    theta = (2.0 * np.pi) * u2
    out = np.empty(words.shape, dtype=np.float64)
    even, odd = out[..., 0::2], out[..., 1::2]  # r * cos and r * sin, written in place
    np.multiply(r, np.cos(theta, out=even), out=even)
    np.multiply(r, np.sin(theta, out=odd), out=odd)
    return out[..., :k]


class SeededRng:
    """Deterministic splitmix64 generator with Box-Muller normals.

    Algorithm (fixed; replayable from the seed alone):

    * raw 64-bit word ``i`` (0-based) is ``mix(seed + (i+1) * GAMMA) mod 2^64``
      where ``GAMMA = 0x9E3779B97F4A7C15`` and ``mix`` is the splitmix64
      finalizer (xor-shift 30, mul 0xBF58476D1CE4E5B9, xor-shift 27,
      mul 0x94D049BB133111EB, xor-shift 31);
    * a uniform in ``[0, 1)`` is ``(word >> 11) * 2**-53``;
    * normals come in Box-Muller pairs: with ``u1 = ((w1 >> 11) + 1) * 2**-53``
      (so ``u1 in (0, 1]``) and ``u2 = (w2 >> 11) * 2**-53``,
      ``z0 = sqrt(-2 ln u1) cos(2 pi u2)`` and ``z1 = ... sin(...)``.
      A request for ``k`` normals consumes ``2 * ceil(k / 2)`` raw words;
      no spare value is cached across calls.
    * ``permutation(n)`` is Fisher-Yates: for ``i = n-1 .. 1`` it takes the
      next uniform ``u`` and swaps ``i`` with ``j = min(floor(u * (i+1)), i)``,
      so it consumes ``n - 1`` raw words.

    ``derive`` folds extra key material into the seed (not the state), so
    child streams are independent of how much the parent has consumed:
    ``child = mix(seed ^ (token + GAMMA))`` applied per part, where ``token``
    is ``mix(part)`` for ints and FNV-1a64 of the UTF-8 bytes for strings.

    Because a stream is a pure function of its seed and word index, many
    streams can be drawn at once: :func:`derive_seeds` applies one ``derive``
    part to an array of parents or an array of int parts, and
    :func:`block_normals` draws row ``i`` exactly as
    ``SeededRng(seeds[i]).normals(shape)`` on a fresh stream would. A block
    is thus bit-identical to the per-stream calls it replaces. Normals are
    laid out in word order, so a shorter draw is a prefix of a longer one.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self._count = 0  # raw words consumed

    def derive(self, *parts: int | str) -> "SeededRng":
        s = np.uint64(self.seed)
        with np.errstate(over="ignore"):
            for part in parts:
                if isinstance(part, str):
                    token = _str_token(part)
                elif isinstance(part, (int, np.integer)):
                    token = _mix64(np.uint64(int(part) & _MASK64))
                else:
                    raise TypeError(f"rng stream key parts must be int or str, got {type(part)!r}")
                s = _fold(s, token)
        return SeededRng(int(s))

    def _raw(self, k: int) -> np.ndarray:
        """Next ``k`` raw uint64 words, vectorized."""
        start = self._count
        self._count += k
        return _words(np.uint64(self.seed), start, k)

    def uniforms(self, k: int) -> np.ndarray:
        """``k`` i.i.d. uniforms in [0, 1)."""
        return _uniforms(self._raw(k))

    def uniform(self) -> float:
        return float(self.uniforms(1)[0])

    def normals(self, shape: int | tuple[int, ...]) -> np.ndarray:
        """Standard normal draws with the given shape (Box-Muller)."""
        shape = _shape(shape)
        k = math.prod(shape)
        return _box_muller(self._raw(_normal_words(k)), k).reshape(shape)

    def integer(self, n: int) -> int:
        """Uniform integer in ``[0, n)``."""
        if n <= 0:
            raise ValueError("integer() needs n >= 1")
        return min(int(self.uniform() * n), n - 1)

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of ``range(n)``."""
        idx = list(range(n))
        span = np.arange(n, 1, -1)  # i + 1 for i = n-1 .. 1
        picks = np.minimum((self.uniforms(span.size) * span).astype(np.int_), span - 1)
        for i, j in zip(range(n - 1, 0, -1), picks.tolist()):
            idx[i], idx[j] = idx[j], idx[i]
        return np.array(idx, dtype=np.int_)


def derive_seeds(parent: SeededRng | np.ndarray, part) -> np.ndarray:
    """uint64 seeds of ``SeededRng(p).derive(q)`` over arrays of streams.

    ``parent`` is one stream or an array of uint64 seeds; ``part`` is one
    str suffix (such as ``"fiqe"``), an array of ints, or an array of strs
    (such as a batch's group ids). The two broadcast, so one call derives a
    child per group of a batch or per face of a group.
    """
    seeds = np.asarray(parent.seed if isinstance(parent, SeededRng) else parent, dtype=np.uint64)
    with np.errstate(over="ignore"):
        if isinstance(part, str):
            token = _str_token(part)
        else:
            parts = np.asarray(part)
            if parts.dtype.kind == "U":
                token = np.array([_str_token(p) for p in parts.ravel().tolist()], dtype=np.uint64)
                token = token.reshape(parts.shape)
            elif parts.size and parts.dtype.kind not in "iu":
                raise TypeError(
                    f"rng stream key parts must be ints or strs, got dtype {parts.dtype}"
                )
            else:
                token = _mix64(parts.astype(np.uint64))
        return np.asarray(_fold(seeds, token), dtype=np.uint64)


def block_normals(seeds, shape: int | tuple[int, ...]) -> np.ndarray:
    """Normals of shape ``seeds.shape + shape``, one fresh stream per seed.

    Row ``i`` equals ``SeededRng(seeds[i]).normals(shape)`` bit for bit, and
    ``block_normals(seeds, (n, d))`` equals ``block_normals(seeds, (m, d))[:, :n]``
    bit for bit for every ``n <= m``: one draw at the largest count serves
    every smaller one.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    shape = _shape(shape)
    k = math.prod(shape)
    words = _words(seeds[..., None], 0, _normal_words(k))
    return np.ascontiguousarray(_box_muller(words, k)).reshape(seeds.shape + shape)


# ---------------------------------------------------------------------------
# reading input files, and parameter storage

PARAM_FORMAT_VERSION = 1


def open_data_file(path, mode: str = "r"):
    """``open(path, mode)``, with a failure (a missing file, a missing
    directory, no permission, a NUL byte in the path) raised as a
    :class:`DataError` naming ``path``."""
    try:
        if "b" in mode:
            return open(path, mode)
        return open(path, mode, encoding="utf-8")
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte
        raise DataError(f"{path}: cannot open: {getattr(exc, 'strerror', None) or exc}") from exc


def _decode(raw: bytes, path, lineno: int = 1) -> str:
    """``raw``, which starts on line ``lineno`` of the file ``path``, decoded
    as UTF-8; bytes that are not UTF-8 are a :class:`DataError` naming their line."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = lineno + raw.count(b"\n", 0, exc.start)
        raise DataError(f"{path}: line {line}: not UTF-8 text: {exc}") from exc


def read_text(path) -> str:
    """The whole text of the file ``path``, read and decoded at once."""
    with open_data_file(path, "rb") as fh:
        return _decode(fh.read(), path)


def text_lines(path):
    """The lines of the file ``path``, read and decoded one at a time: split
    on ``\\n`` only, so line ``i`` is the ``i``-th, as :func:`_decode` counts
    them, and without their ``\\n`` or ``\\r\\n`` ending."""
    with open_data_file(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            yield _decode(raw, path, lineno).removesuffix("\n").removesuffix("\r")


def parse_json(text: str, path, lineno: int = 1):
    """``json.loads(text)``, where ``text`` starts on line ``lineno`` of the
    file ``path``; a syntax error is a :class:`DataError` naming its line."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: line {lineno + exc.lineno - 1}: not JSON: {exc.msg} "
                        f"(column {exc.colno})") from exc
    except (ValueError, RecursionError) as exc:  # past Python's integer digits or nesting
        where = f"{path}: line {lineno}" if "\n" not in text.rstrip() else f"{path}"
        raise DataError(f"{where}: not JSON: {exc}") from exc


def check_dims(dims: dict, expected: dict, where: str, of: str) -> None:
    """A :class:`DataError` at ``where`` naming each key whose ``dims`` and ``expected`` differ."""
    differ = [f"{key} {value} != {expected[key]}" for key, value in dims.items()
              if value != expected[key]]
    if differ:
        raise DataError(f"{where}: {', '.join(differ)} of {of}")


def _format_float(v: float) -> str:
    # 17 significant digits: lossless for IEEE754 doubles. Force a decimal
    # point so json round-trips -0.0 (a bare "-0" parses as int 0).
    s = format(float(v), ".17g")
    if not any(c in s for c in ".eE"):
        s += ".0"
    return s


class ParameterStore:
    """Named, versioned flat collection of trainable float64 arrays.

    Names are hierarchical strings such as ``face.embed.mu.weight``. The
    on-disk format is a single JSON document
    ``{"version": 1, "params": {name: {"shape": [...], "data": [...]}}}``
    with floats written at 17 significant digits, which makes a
    save -> restore round trip bit-exact.
    """

    def __init__(self):
        self._params: dict[str, np.ndarray] = {}

    def register(self, name: str, value) -> np.ndarray:
        if name in self._params:
            raise ValueError(f"parameter {name!r} already registered")
        arr = np.array(value, dtype=np.float64)
        self._params[name] = arr
        return arr

    def names(self) -> list[str]:
        return sorted(self._params)

    def get(self, name: str) -> np.ndarray:
        try:
            return self._params[name]
        except KeyError:
            raise KeyError(f"unknown parameter {name!r}") from None

    def set(self, name: str, value) -> None:
        cur = self.get(name)
        arr = np.asarray(value, dtype=np.float64)
        if arr.shape != cur.shape:
            raise ShapeError(
                f"parameter {name!r} has shape {cur.shape}, cannot assign {arr.shape}"
            )
        cur[...] = arr

    def subset(self, prefix: str) -> "ParameterStore":
        """New store holding only parameters whose name starts with ``prefix``."""
        sub = ParameterStore()
        for name in self.names():
            if name.startswith(prefix):
                sub.register(name, self._params[name].copy())
        return sub

    def clone(self) -> "ParameterStore":
        return self.subset("")

    def save(self, path) -> None:
        lines = ['{"version": %d, "params": {' % PARAM_FORMAT_VERSION]
        entries = []
        for name in self.names():
            arr = self._params[name]
            if not np.all(np.isfinite(arr)):
                raise NumericError(f"parameter {name!r} contains non-finite values")
            shape = ", ".join(str(int(d)) for d in arr.shape)
            data = ", ".join(_format_float(v) for v in arr.reshape(-1))
            entries.append('"%s": {"shape": [%s], "data": [%s]}' % (name, shape, data))
        lines.append(",\n".join(entries))
        lines.append("}}")
        with open_data_file(path, "w") as fh:
            fh.write("\n".join(lines))
            fh.write("\n")

    def restore(self, path) -> None:
        """Load values from ``path`` into already-registered parameters.

        The file must carry exactly the registered names with matching
        shapes and finite values; anything else is a :class:`DataError`
        naming the file (and the parameter).
        """
        doc = parse_json(read_text(path), path)
        if not isinstance(doc, dict) or doc.get("version") != PARAM_FORMAT_VERSION:
            raise DataError(f"{path}: unsupported parameter file version")
        params = doc.get("params")
        if not isinstance(params, dict):
            raise DataError(f"{path}: missing 'params' object")
        unknown = sorted(set(params) - set(self._params))
        if unknown:
            raise DataError(f"{path}: unknown parameter names on load: {unknown}")
        missing = sorted(set(self._params) - set(params))
        if missing:
            raise DataError(f"{path}: parameter names missing from file: {missing}")
        for name, entry in params.items():
            try:
                arr = np.array(entry["data"], dtype=np.float64).reshape(tuple(entry["shape"]))
                if not np.all(np.isfinite(arr)):
                    raise ValueError("non-finite values")
                self.set(name, arr)
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise DataError(
                    f"{path}: parameter {name!r}: bad entry ({type(exc).__name__}: {exc})"
                ) from exc


# ---------------------------------------------------------------------------
# differentiable units

# A differentiable unit follows the convention: forward(...) returns the
# output plus whatever tape it needs, backward(tape, d_output) accumulates
# parameter gradients into a dict and returns the input gradient.


class AffineMap:
    """y = W x + b on stacks of rows, with a manual backward pass.

    ``W`` has shape ``(out_dim, in_dim)``; the input is ``(..., n, in_dim)``,
    at least 2-D, or :class:`~ual.errors.ShapeError` is raised. A stack goes
    through one ``np.matmul``, which multiplies each ``(n, in_dim)`` item
    exactly as a 2-D call on it would; the parameter gradients keep the
    leading stack axes, one per item. Gradients are accumulated into a plain
    ``{name: array}`` dict so several units can share one backward sweep.
    """

    def __init__(self, name: str, in_dim: int, out_dim: int):
        self.name = name
        self.in_dim = int(in_dim)
        self.out_dim = int(out_dim)
        self.weight_name = f"{name}.weight"
        self.bias_name = f"{name}.bias"

    def register(self, store: ParameterStore, rng: SeededRng, weight_scale: float | None = None):
        scale = weight_scale if weight_scale is not None else self.in_dim**-0.5
        store.register(self.weight_name, scale * rng.normals((self.out_dim, self.in_dim)))
        store.register(self.bias_name, np.zeros(self.out_dim))

    def _check(self, x: np.ndarray) -> None:
        if x.ndim < 2 or x.shape[-1] != self.in_dim:
            raise ShapeError(f"{self.name}: input of shape {x.shape}, need (..., n, {self.in_dim})")

    def forward(self, store: ParameterStore, x: np.ndarray) -> np.ndarray:
        self._check(x)
        return x @ store.get(self.weight_name).T + store.get(self.bias_name)

    def param_grads(
        self,
        store: ParameterStore,
        x: np.ndarray,
        d_out: np.ndarray,
        grads: dict[str, np.ndarray],
    ) -> None:
        """Accumulate the weight and bias gradients of ``d_out`` at input ``x``."""
        self._check(x)
        _accumulate(grads, self.weight_name, np.matmul(d_out.swapaxes(-1, -2), x))
        _accumulate(grads, self.bias_name, d_out.sum(axis=-2))

    def backward(
        self,
        store: ParameterStore,
        x: np.ndarray,
        d_out: np.ndarray,
        grads: dict[str, np.ndarray],
    ) -> np.ndarray:
        """:meth:`param_grads`, and the gradient with respect to the input."""
        self.param_grads(store, x, d_out, grads)
        return np.matmul(d_out, store.get(self.weight_name))


def _accumulate(grads: dict[str, np.ndarray], name: str, value: np.ndarray) -> None:
    # ``value`` is always a freshly computed array, so it is stored, not copied
    if name in grads:
        grads[name] += value
    else:
        grads[name] = value


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``."""
    z = np.asarray(logits, dtype=np.float64)
    m = z.max(axis=axis, keepdims=True)
    e = np.exp(z - m)
    return e / e.sum(axis=axis, keepdims=True)


def softmax_cross_entropy(logits, label) -> tuple[np.ndarray, np.ndarray]:
    """Losses ``-log p[label]`` and the probability vectors, via max-subtraction.

    ``logits`` is a ``(..., C)`` stack of ndim >= 2 and ``label`` an int
    array that broadcasts against ``logits.shape[:-1]``; the loss has one
    entry per vector. Stable for any finite logits; non-finite logits or a
    label outside ``[0, C)`` raise.
    """
    z = as_f64(logits, "logits")
    if z.ndim < 2 or z.shape[-1] < 2:
        raise ShapeError(f"need a (..., C >= 2) stack of logits, got shape {z.shape}")
    c = z.shape[-1]
    labels = np.asarray(label)
    if not np.all((labels >= 0) & (labels < c)):
        raise DataError(f"label {label} out of range for {c} classes")
    m = z.max(axis=-1, keepdims=True)
    e = np.exp(z - m)
    total = e.sum(axis=-1, keepdims=True)
    probs = e / total
    picked = z.reshape(-1, c)[_label_index(labels, z.shape)].reshape(z.shape[:-1] + (1,))
    return (np.log(total) + m - picked)[..., 0], probs


def softmax_cross_entropy_grad(probs: np.ndarray, label) -> np.ndarray:
    """d loss / d logits for :func:`softmax_cross_entropy`, of its stack of ``probs``."""
    g = probs.copy()
    g.reshape(-1, g.shape[-1])[_label_index(np.asarray(label), g.shape)] -= 1.0
    return g


def _label_index(labels: np.ndarray, shape: tuple[int, ...]):
    """Index of each vector's label entry in the ``(-1, C)`` view of a ``shape`` stack."""
    flat = labels if labels.shape == shape[:-1] else np.broadcast_to(labels, shape[:-1])
    flat = flat.reshape(-1)
    return np.arange(flat.size), flat


# ---------------------------------------------------------------------------
# gradient checking

# Callable contract: loss_fn(store) -> (scalar loss, {param name: gradient}).
LossWithGrads = Callable[[ParameterStore], tuple[float, Mapping[str, np.ndarray]]]


@dataclass
class GradCheckResult:
    """Outcome of one finite-difference sweep."""

    max_rel_error: dict[str, float] = field(default_factory=dict)
    tolerance: float = 1e-4
    failure: str | None = None  # parameter with a non-finite gradient, if any

    @property
    def worst(self) -> float:
        return max(self.max_rel_error.values(), default=0.0)

    @property
    def passed(self) -> bool:
        return self.failure is None and self.worst < self.tolerance


def gradient_check(
    loss_fn: LossWithGrads,
    store: ParameterStore,
    names: Iterable[str] | None = None,
    tolerance: float = 1e-4,
    step: float = 1e-5,
) -> GradCheckResult:
    """Compare analytic gradients with central finite differences.

    Per element: ``fd = (loss(p + h) - loss(p - h)) / (2 h)`` at ``h = step``;
    the relative error is ``|fd - g| / max(|fd|, |g|, 1e-8)``. The result
    records the max relative error per parameter.
    """
    result = GradCheckResult(tolerance=tolerance)
    _, grads = loss_fn(store)
    check_names = list(names) if names is not None else sorted(grads)
    for name in check_names:
        g = np.asarray(grads.get(name, np.zeros_like(store.get(name))), dtype=np.float64)
        if not np.all(np.isfinite(g)):
            result.failure = name
            return result
        arr = store.get(name)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        worst = 0.0
        for i in range(flat.shape[0]):
            orig = flat[i]
            flat[i] = orig + step
            lo_hi, _ = loss_fn(store)
            flat[i] = orig - step
            lo_lo, _ = loss_fn(store)
            flat[i] = orig
            fd = (lo_hi - lo_lo) / (2.0 * step)
            denom = max(abs(fd), abs(gflat[i]), 1e-8)
            worst = max(worst, abs(fd - gflat[i]) / denom)
        result.max_rel_error[name] = worst
    return result
