"""Loss oracles the measurement pipeline runs against.

Two implementations of one interface: an ordered list of layers plus
``evaluate(perturbations)``, where ``perturbations`` maps layer index to
an additive weight perturbation and the result is the mean loss over
the oracle's fixed evaluation set.  Evaluation is pure: stored weights
are never mutated and repeated calls return identical values.  That
holds through ``ToyClassifierOracle``'s private cache of activations,
which changes where a forward pass starts but never a result.

* ``QuadraticOracle``: analytic loss ``baseline + 0.5 d' H d`` around a
  known optimum, so second-order behavior is exact and measured
  sensitivities can be checked against the curvature blocks directly.
  An evaluation reads only the perturbed layers' rows of ``H``, so it
  costs ``O(sum_k n_k * dim)`` over perturbed layers of ``n_k`` weights.
* ``ToyClassifierOracle``: a small fully-connected tanh classifier on a
  deterministic two-moons dataset, trained here; the cheapest oracle
  whose curvature has genuine cross-layer structure.  An evaluation
  resumes from the longest layer prefix it shares with the previous
  call, so it recomputes only the layers from the first one that changed.

Oracles round-trip through a little binary container: an 8-byte magic,
a little-endian uint32 header length, a JSON header, and a float32
little-endian payload.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import struct
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from ._files import write_atomic
from .quantizer import LayerSpec, _read_only
from .sensitivity import _mask_couplings
from .spectra import _require_finite

__all__ = [
    "LossOracle",
    "QuadraticOracle",
    "ToyModel",
    "ToyClassifierOracle",
    "FileFormatError",
    "random_quadratic",
    "make_moons",
    "train_toy",
    "toy_training_accuracy",
    "save_oracle",
    "load_oracle",
]

MAGIC = b"MIXPREC1"
CONTAINER_VERSION = 1
# float32 values read from a container at a time.
_PAYLOAD_CHUNK = 2 ** 16

# Fixed per-purpose seed-stream tags keep the data, init, and evaluation
# streams independent of one another while staying reproducible.
_TAG_TRAIN_DATA = 77
_TAG_INIT = 13
_TAG_EVAL_DATA = 101
_TAG_QUADRATIC = 29


class FileFormatError(ValueError):
    """Raised when a container or cache file does not parse."""


class LossOracle(ABC):
    """Mean loss under additive per-layer weight perturbations."""

    layers: list[LayerSpec]

    @property
    def sample_count(self) -> int:
        """Number of samples in the evaluation set (weighting for merges)."""
        return 1

    @abstractmethod
    def evaluate(self, perturbations) -> float:
        """Mean loss with ``perturbations[i]`` added to layer ``i``'s weights."""

    def _check_perturbations(self, perturbations) -> dict[int, np.ndarray]:
        layers = self.layers
        checked = {}
        for idx, vec in perturbations.items():
            if not 0 <= idx < len(layers):
                raise ValueError(f"layer index {idx} out of range")
            arr = np.asarray(vec, dtype=np.float64)
            if arr.ndim != 1 or not arr.flags.c_contiguous:
                arr = arr.ravel()  # flat, and copied if strided
            want = layers[idx].weights.size
            if arr.size != want:
                raise ValueError(
                    f"perturbation for layer {idx} has {arr.size} elements, expected {want}")
            checked[idx] = arr
        return checked


class QuadraticOracle(LossOracle):
    """Exact quadratic loss around an optimum with known curvature blocks.

    ``evaluate`` touches only the rows of ``H`` that belong to perturbed
    layers: ``O(sum_k n_k * dim)`` a call, so measuring a single layer or
    a pair does not stream the whole ``dim x dim`` matrix.

    The oracle takes ``h`` and ``optimum`` over without copying them: a
    caller's float64 arrays, and any arrays they are views of, become
    read-only, so a later write cannot change ``evaluate`` or the layers.
    """

    def __init__(self, h, optimum, layer_sizes, *, baseline: float = 0.0,
                 sample_count: int = 1):
        sizes = tuple(int(s) for s in layer_sizes)
        dim = sum(sizes)
        h = np.asarray(h, dtype=np.float64)
        if h.shape != (dim, dim):
            raise ValueError(f"curvature must have shape {(dim, dim)}, got {h.shape}")
        optimum = np.asarray(optimum, dtype=np.float64)
        if optimum.size != dim:
            raise ValueError(f"optimum must have {dim} elements, got {optimum.size}")
        _require_finite(h, "curvature")
        _require_finite(optimum.ravel(), "optimum")
        if not np.array_equal(h, h.T):
            raise ValueError("curvature matrix must be exactly symmetric")
        h, optimum = _read_only(h), _read_only(optimum).ravel()
        self._h = h
        ends = itertools.accumulate(sizes)
        self._rows = [slice(end - size, end) for size, end in zip(sizes, ends)]
        # Views, not copies: each layer's rows of ``h`` across every column.
        self._row_blocks = [h[rows] for rows in self._rows]
        self._baseline = float(baseline)
        self._samples = int(sample_count)
        # The optimum is checked and read-only already; its slices need
        # no second check.
        self.layers = [LayerSpec._of_checked(f"layer{i}", optimum[rows])
                       for i, rows in enumerate(self._rows)]

    @property
    def sample_count(self) -> int:
        return self._samples

    @property
    def curvature(self) -> np.ndarray:
        return self._h

    def block(self, i: int, j: int) -> np.ndarray:
        """Curvature block coupling layers ``i`` and ``j``."""
        return self._h[self._rows[i], self._rows[j]]

    def evaluate(self, perturbations) -> float:
        """``baseline + 0.5 d'Hd`` from the perturbed layers' rows of ``H``.

        Only the rows of perturbed layers meet a nonzero entry of ``d``, so
        the form is ``sum_k d_k . (H[rows_k, :] . d)`` over the perturbed
        layers ``k``, summed in the order ``perturbations`` lists them: a
        call costs ``O(sum_k n_k * dim)``, not ``O(dim^2)``.
        """
        checked = self._check_perturbations(perturbations)
        delta = np.zeros(self._h.shape[0])
        for idx, vec in checked.items():
            delta[self._rows[idx]] = vec
        form = 0.0
        for idx, vec in checked.items():
            form += float(vec.dot(self._row_blocks[idx].dot(delta)))
        return self._baseline + 0.5 * form


def random_quadratic(seed: int, layer_sizes, rho: float, *,
                     weight_scale: float = 1.0, sample_count: int = 1,
                     sample_ratio: float = 2.0) -> QuadraticOracle:
    """Seeded quadratic oracle with tunable cross-layer coupling.

    ``rho`` interpolates between the block-diagonal part of a random PSD
    curvature (rho=0, layers independent) and the full matrix (rho=1).
    Off-diagonal blocks scale exactly linearly in ``rho`` and the result
    is PSD for any ``rho`` in [0, 1] because both endpoints are.

    The curvature is a Wishart matrix built from ``sample_ratio * dim``
    gaussian rows; lowering the ratio toward 1 makes the curvature more
    anisotropic, which strengthens cross-layer correlations.
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [0, 1], got {rho}")
    if sample_ratio <= 0.0:
        raise ValueError(f"sample_ratio must be positive, got {sample_ratio}")
    sizes = tuple(int(s) for s in layer_sizes)
    dim = sum(sizes)
    rng = np.random.default_rng(np.random.SeedSequence([seed, _TAG_QUADRATIC]))
    rows = max(1, round(sample_ratio * dim))
    samples = rng.normal(size=(rows, dim))
    full = samples.T @ samples / float(rows)
    blocky = _mask_couplings(full, np.repeat(np.arange(len(sizes)), sizes))
    h = blocky + rho * (full - blocky)
    optimum = rng.normal(size=dim) * weight_scale
    return QuadraticOracle(h, optimum, sizes, sample_count=sample_count)


# ---------------------------------------------------------------------------
# toy classifier

@dataclass(frozen=True, eq=False)
class ToyModel:
    """Trained fully-connected classifier weights plus dataset provenance.

    Models compare and hash by identity, as their arrays cannot be
    compared with ``==``.
    """

    dims: tuple[int, ...]
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    seed: int
    noise: float
    train_count: int

    def __post_init__(self):
        for name in ("weights", "biases"):
            arrays = tuple(_read_only(np.asarray(a, dtype=np.float64))
                           for a in getattr(self, name))
            object.__setattr__(self, name, arrays)
        # The oracle checks the weights as it builds its layers.
        for i, bias in enumerate(self.biases):
            _require_finite(bias, f"bias {i}")


def _moons_stream(seed: int, tag: int, start: int, count: int, noise: float):
    if count < 0 or start < 0:
        raise ValueError("start and count must be non-negative")
    # One child stream per variable keeps sample i's draws at a stream
    # position that depends only on i, never on the requested total, so
    # windows over the same stream tile exactly.
    angle_rng, label_rng, noise_rng = (
        np.random.default_rng(child)
        for child in np.random.SeedSequence([seed, tag]).spawn(3)
    )
    total = start + count
    t = angle_rng.uniform(0.0, np.pi, size=total)
    labels = label_rng.integers(0, 2, size=total)
    eps = noise_rng.normal(0.0, noise, size=(total, 2))
    upper = np.stack([np.cos(t), np.sin(t)], axis=1)
    lower = np.stack([1.0 - np.cos(t), 0.5 - np.sin(t)], axis=1)
    points = np.where(labels[:, None] == 0, upper, lower) + eps
    return points[start:], labels[start:]


def make_moons(seed: int, count: int, *, start: int = 0, noise: float = 0.15):
    """Two interleaved half-circle classes from a seeded stream.

    The stream is generated from index 0 and sliced at ``start``, so
    consecutive windows tile exactly: the samples of ``(start=0, count=2n)``
    are the concatenation of ``(0, n)`` and ``(n, n)``.
    """
    return _moons_stream(seed, _TAG_TRAIN_DATA, start, count, noise)


def _forward(weights, biases, h, start=0):
    """Outputs of layers ``start`` on, given ``h``, the input to ``start``.

    Returns the activation after each hidden layer from ``start`` on, then
    the logits.  This is the only forward pass, so a pass resumed from a
    stored activation runs exactly the operations of a full one.  Each
    hidden step works in the one array its product makes, with the IEEE
    operations of ``np.tanh(h @ w + b)``; ``h`` itself is never written.
    """
    outputs = []
    for w, b in zip(weights[start:-1], biases[start:-1]):
        h = h @ w
        h += b
        np.tanh(h, out=h)
        outputs.append(h)
    outputs.append(h @ weights[-1] + biases[-1])
    return outputs


def _shared_prefix(weights, traced) -> int:
    """Number of leading layers whose effective weights are the same.

    Two layers match when they are the same array or bitwise equal,
    compared as ``uint64`` so that ``-0.0`` against ``0.0`` and NaNs stay
    exact.
    """
    for k, (a, b) in enumerate(zip(weights, traced)):
        if a is not b and not np.array_equal(a.view(np.uint64), b.view(np.uint64)):
            return k
    return len(weights)


def _cross_entropy(logits, labels):
    """Mean cross-entropy, with the exponentials of the row-max-shifted
    logits and their row sums, whose quotient is the softmax."""
    z = logits - logits.max(axis=1, keepdims=True)
    exps = np.exp(z)
    sums = np.sum(exps, axis=1)
    picked = z[np.arange(len(labels)), labels]
    return float(np.mean(np.log(sums) - picked)), exps, sums


class ToyClassifierOracle(LossOracle):
    """Mean cross-entropy of a trained classifier on a fixed evaluation window.

    The evaluation set is a contiguous window of a held-out seeded stream
    from the same distribution the model was trained on, so per-batch
    measurements over adjacent windows average to the one-shot result.
    Only the weight matrices are exposed as quantizable layers; biases
    stay at full precision.

    ``evaluate`` keeps one trace, of the latest call: every layer's
    effective weights and the input to every layer.  A call starts its
    forward pass at the first layer whose effective weights differ from
    the trace's, from the trace's stored input, so it recomputes only the
    layers from the first one that changed.  The trace decides where a
    pass starts, never its result: every call returns what a fresh oracle
    would, in any call order.

    ``build_matrix`` orders its calls for this trace: singles run from the
    last layer to the first, each followed by its pairs over later layers,
    latest layer first.  A single then shares with the call before it
    every layer before its own, as the baseline call would, and a pair
    every layer before its second one.
    """

    def __init__(self, model: ToyModel, *, eval_start: int = 0, eval_count: int = 256):
        if eval_count < 1:
            raise ValueError("evaluation window must contain at least one sample")
        self.model = model
        self._eval_x, self._eval_y = _moons_stream(
            model.seed, _TAG_EVAL_DATA, eval_start, eval_count, model.noise)
        self.layers = [LayerSpec(f"fc{i}", w.ravel()) for i, w in enumerate(model.weights)]
        self._trace = None

    @property
    def sample_count(self) -> int:
        return len(self._eval_y)

    def evaluate(self, perturbations) -> float:
        checked = self._check_perturbations(perturbations)
        weights = list(self.model.weights)
        for idx, vec in checked.items():
            weights[idx] = weights[idx] + vec.reshape(weights[idx].shape)
        # The output layer always runs: a trace stores inputs, not logits.
        start, inputs = 0, [self._eval_x]
        if self._trace is not None:
            start = min(_shared_prefix(weights, self._trace[0]), len(weights) - 1)
            inputs = self._trace[1][:start + 1]
            self._trace = None  # frees the activations this pass replaces
        *hidden, logits = _forward(weights, self.model.biases, inputs[-1], start)
        self._trace = (weights, inputs + hidden)
        return _cross_entropy(logits, self._eval_y)[0]


def toy_training_accuracy(model: ToyModel) -> float:
    """Fraction of the model's own training set it classifies correctly."""
    x, y = make_moons(model.seed, model.train_count, noise=model.noise)
    logits = _forward(model.weights, model.biases, x)[-1]
    return float(np.mean(np.argmax(logits, axis=1) == y))


def _param_shapes(dims) -> list[tuple[int, ...]]:
    """Shapes of the weights, then the biases, of a classifier of ``dims``."""
    return list(zip(dims[:-1], dims[1:])) + [(b,) for b in dims[1:]]


def _flat_views(buf: np.ndarray, shapes) -> list[np.ndarray]:
    """Views of consecutive slices of ``buf``, one reshaped to each shape."""
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(buf[start:start + size].reshape(shape))
        start += size
    return views


def train_toy(seed: int, epochs: int = 2000, *, depth: int = 8, hidden: int = 16,
              train_count: int = 256, noise: float = 0.15, lr: float = 0.01,
              loss_target: float = 1e-4, eval_start: int = 0,
              eval_count: int = 256) -> ToyClassifierOracle:
    """Train the toy classifier with full-batch Adam; deterministic per seed.

    Training stops once the mean cross-entropy drops below ``loss_target``
    or after ``epochs`` updates, whichever comes first.  With the default
    settings the model separates the two classes completely, comfortably
    above the 95% training-accuracy bar.

    Every weight and bias is a view into one flat float64 ``params``
    vector, laid out as the container stores it (weights, then biases),
    and every gradient a view into one flat ``grads`` vector of the same
    layout.  The backward pass writes into the gradient views, and each
    Adam step is one fixed sequence of in-place operations over the whole
    buffer, with two scratch vectors for temporaries.  They run, in order,
    the IEEE operations of the textbook update of each parameter ``p``
    with gradient ``g`` at step ``t``:

        first = b1 * first + (1 - b1) * g
        second = b2 * second + (1 - b2) * g ** 2
        p -= lr * (first / (1 - b1 ** t)) / (sqrt(second / (1 - b2 ** t)) + eps)

    so the result is bit for bit that of one array per parameter.
    """
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    if depth < 2:
        raise ValueError("need at least an input and an output layer")
    x, y = make_moons(seed, train_count, noise=noise)
    dims = (2,) + (hidden,) * (depth - 1) + (2,)
    shapes = _param_shapes(dims)
    size = sum(math.prod(shape) for shape in shapes)
    params, first, second = np.zeros(size), np.zeros(size), np.zeros(size)
    grads, s1, s2 = np.empty(size), np.empty(size), np.empty(size)
    views = _flat_views(params, shapes)
    weights, biases = views[:depth], views[depth:]
    views = _flat_views(grads, shapes)
    grad_w, grad_b = views[:depth], views[depth:]
    rng = np.random.default_rng(np.random.SeedSequence([seed, _TAG_INIT]))
    for w in weights:
        np.multiply(rng.normal(0.0, 1.0, size=w.shape), np.sqrt(2.0 / sum(w.shape)), out=w)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    onehot = np.eye(2)[y]
    n = len(y)
    for step in range(1, epochs + 1):
        *hidden, logits = _forward(weights, biases, x)
        acts = [x] + hidden
        loss, d, sums = _cross_entropy(logits, y)
        if loss <= loss_target:
            break
        d /= sums[:, None]
        d -= onehot
        d /= n
        for i in range(depth - 1, -1, -1):
            np.matmul(acts[i].T, d, out=grad_w[i])
            np.sum(d, axis=0, out=grad_b[i])
            if i > 0:
                slope = np.square(acts[i])
                np.subtract(1.0, slope, out=slope)
                d = d @ weights[i].T
                d *= slope
        first *= beta1
        np.multiply(1.0 - beta1, grads, out=s1)
        first += s1
        second *= beta2
        np.square(grads, out=s2)
        s2 *= 1.0 - beta2
        second += s2
        np.divide(first, 1.0 - beta1 ** step, out=s1)
        np.divide(second, 1.0 - beta2 ** step, out=s2)
        np.sqrt(s2, out=s2)
        s2 += eps
        s1 *= lr
        s1 /= s2
        params -= s1
    model = ToyModel(dims=dims, weights=tuple(weights), biases=tuple(biases),
                     seed=int(seed), noise=float(noise), train_count=int(train_count))
    return ToyClassifierOracle(model, eval_start=eval_start, eval_count=eval_count)


# ---------------------------------------------------------------------------
# container I/O

def _write_container(path, header: dict, payload: np.ndarray) -> None:
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    write_atomic(path, b"".join([MAGIC, struct.pack("<I", len(blob)), blob,
                                 np.asarray(payload, dtype="<f4").tobytes()]))


def _read_container(path) -> tuple[dict, np.ndarray]:
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise FileFormatError(f"{path!r} is not a model container")
        raw_len = fh.read(4)
        if len(raw_len) != 4:
            raise FileFormatError(f"{path!r}: truncated header length")
        (hlen,) = struct.unpack("<I", raw_len)
        blob = fh.read(hlen)
        if len(blob) != hlen:
            raise FileFormatError(f"{path!r}: truncated header")
        try:
            header = json.loads(blob.decode("utf-8"))
        except ValueError as exc:
            raise FileFormatError(f"{path!r}: bad header JSON: {exc}") from None
        if header.get("format") != CONTAINER_VERSION:
            raise FileFormatError(f"{path!r}: unsupported container version")
        return header, _read_payload(fh, path)


def _read_payload(fh, path) -> np.ndarray:
    """The rest of ``fh``, float32 values upcast (exactly) to one float64 array.

    The values are read a bounded chunk at a time into the preallocated
    result, so the raw bytes are never held whole beside their upcast copy.
    """
    nbytes = os.fstat(fh.fileno()).st_size - fh.tell()
    if nbytes % 4:
        raise FileFormatError(
            f"{path!r}: payload of {nbytes} bytes is not a whole number of float32 values")
    payload = np.empty(nbytes // 4)
    raw = np.empty(min(payload.size, _PAYLOAD_CHUNK), dtype="<f4")
    for start in range(0, payload.size, _PAYLOAD_CHUNK):
        out = payload[start:start + _PAYLOAD_CHUNK]
        if fh.readinto(raw[:out.size]) != 4 * out.size:
            raise FileFormatError(f"{path!r}: truncated payload")
        out[...] = raw[:out.size]
    return payload


def save_oracle(oracle, path) -> None:
    """Serialize a toy classifier or quadratic oracle to a container file."""
    if isinstance(oracle, ToyClassifierOracle):
        model = oracle.model
        header = {
            "format": CONTAINER_VERSION,
            "kind": "toy_classifier",
            "dims": list(model.dims),
            "names": [layer.name for layer in oracle.layers],
            "seed": model.seed,
            "noise": model.noise,
            "train_count": model.train_count,
        }
        payload = np.concatenate([w.ravel() for w in model.weights]
                                 + [b.ravel() for b in model.biases])
        _write_container(path, header, payload)
    elif isinstance(oracle, QuadraticOracle):
        sizes = [layer.count for layer in oracle.layers]
        header = {
            "format": CONTAINER_VERSION,
            "kind": "quadratic",
            "layer_sizes": sizes,
            "baseline": oracle.evaluate({}),
        }
        optimum = np.concatenate([layer.weights for layer in oracle.layers])
        payload = np.concatenate([oracle.curvature.ravel(), optimum])
        _write_container(path, header, payload)
    else:
        raise TypeError(f"cannot serialize oracle of type {type(oracle).__name__}")


def load_oracle(path, *, eval_start: int = 0, eval_count: int | None = None) -> LossOracle:
    """Load a container file; the evaluation window is a load-time choice."""
    header, payload = _read_container(path)
    kind = header.get("kind")
    if kind == "toy_classifier":
        dims = tuple(int(d) for d in header["dims"])
        shapes = _param_shapes(dims)
        if sum(math.prod(shape) for shape in shapes) != payload.size:
            raise FileFormatError(f"{path!r}: payload size does not match dims")
        views = _flat_views(payload, shapes)
        depth = len(dims) - 1
        model = ToyModel(dims=dims, weights=tuple(views[:depth]), biases=tuple(views[depth:]),
                         seed=int(header["seed"]), noise=float(header["noise"]),
                         train_count=int(header["train_count"]))
        return ToyClassifierOracle(model, eval_start=eval_start,
                                   eval_count=256 if eval_count is None else eval_count)
    if kind == "quadratic":
        sizes = tuple(int(s) for s in header["layer_sizes"])
        dim = sum(sizes)
        if payload.size != dim * dim + dim:
            raise FileFormatError(f"{path!r}: payload size does not match layer sizes")
        h = payload[:dim * dim].reshape(dim, dim)
        optimum = payload[dim * dim:]
        return QuadraticOracle(h, optimum, sizes, baseline=float(header["baseline"]),
                               sample_count=1 if eval_count is None else int(eval_count))
    raise FileFormatError(f"{path!r}: unknown oracle kind {kind!r}")
