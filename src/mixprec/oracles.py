"""Loss oracles the measurement pipeline runs against.

Two implementations of one interface: an ordered list of layers,
``evaluate(perturbations)``, where ``perturbations`` maps layer index to
an additive weight perturbation and the result is the mean loss over
the oracle's fixed evaluation set, and ``with_window(eval_start,
eval_count)``, the same model over another evaluation set.  Evaluation
is pure: stored weights are never mutated and repeated calls return
identical values.  That
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

import copy
import functools
import io
import itertools
import json
import math
import os
import struct
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from ._files import write_atomic
from .quantizer import LayerSpec, _immutable
from .sensitivity import _mask_couplings
from .spectra import _require_finite, _require_symmetric

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
        num_layers = len(layers)
        checked = {}
        for idx, vec in perturbations.items():
            if not 0 <= idx < num_layers:
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

    ``h`` and ``optimum`` are immutable, as ``quantizer._immutable`` makes
    them: a loaded container's views of ``bytes`` are kept, any other array
    is copied, so no name can change what the oracle evaluates.
    """

    def __init__(self, h, optimum, layer_sizes, *, baseline: float = 0.0,
                 sample_count: int = 1):
        if int(sample_count) < 1:
            raise ValueError(f"sample_count must be >= 1, got {sample_count}")
        sizes = tuple(int(s) for s in layer_sizes)
        dim = sum(sizes)
        h = _require_symmetric(_immutable(h), "curvature", dim, exact=True)
        optimum = _immutable(np.ravel(optimum))
        if optimum.size != dim:
            raise ValueError(f"optimum must have {dim} elements, got {optimum.size}")
        _require_finite(optimum, "optimum")
        self._h = h
        self._dim = dim
        ends = itertools.accumulate(sizes)
        self._rows = [slice(end - size, end) for size, end in zip(sizes, ends)]
        # Views, not copies: each layer's rows of ``h`` across every column.
        self._row_blocks = [h[rows] for rows in self._rows]
        self._baseline = float(baseline)
        self._samples = int(sample_count)
        # The optimum is checked and immutable already; its slices need
        # no second check.
        self.layers = [LayerSpec._of_checked(f"layer{i}", optimum[rows])
                       for i, rows in enumerate(self._rows)]

    @property
    def sample_count(self) -> int:
        return self._samples

    def with_window(self, eval_start: int, eval_count: int | None) -> "QuadraticOracle":
        """The same loss weighted as ``eval_count`` samples; ``eval_start``
        must be >= 0 but does not matter otherwise, as the loss has no data,
        and ``None`` keeps the count.  A new oracle that shares this one's
        arrays."""
        if eval_start < 0:
            raise ValueError(f"eval_start must be >= 0, got {eval_start}")
        count = self._samples if eval_count is None else int(eval_count)
        if count < 1:
            raise ValueError(f"sample_count must be >= 1, got {eval_count}")
        oracle = copy.copy(self)
        oracle._samples = count
        return oracle

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
        rows, row_blocks = self._rows, self._row_blocks
        delta = np.zeros(self._dim)
        for idx, vec in checked.items():
            delta[rows[idx]] = vec
        form = 0.0
        for idx, vec in checked.items():
            form += vec.dot(row_blocks[idx].dot(delta))
        return self._baseline + 0.5 * float(form)


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
    if not 0.0 < sample_ratio < math.inf:
        raise ValueError(f"sample_ratio must be a positive finite number, got {sample_ratio}")
    sizes = tuple(int(s) for s in layer_sizes)
    dim = sum(sizes)
    rng = np.random.default_rng(np.random.SeedSequence([seed, _TAG_QUADRATIC]))
    rows = max(1, round(sample_ratio * dim))
    samples = rng.normal(size=(rows, dim))
    full = samples.T @ samples / float(rows)
    del samples  # the largest array here; freed before the oracle copies ``h``
    blocky = _mask_couplings(full, np.repeat(np.arange(len(sizes)), sizes))
    h = blocky + rho * (full - blocky)
    optimum = rng.normal(size=dim) * weight_scale
    return QuadraticOracle(h, optimum, sizes, sample_count=sample_count)


# ---------------------------------------------------------------------------
# toy classifier

@dataclass(frozen=True, eq=False)
class ToyModel:
    """Trained fully-connected classifier weights plus dataset provenance.

    The weights and biases are immutable, as ``quantizer._immutable``
    makes them: arrays that already view a ``bytes`` object are kept, any
    other is copied into one, so no name can change what a model computes.
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
            arrays = tuple(_immutable(a) for a in getattr(self, name))
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


def _forward(weights, biases, h, start=0, out=None):
    """Outputs of layers ``start`` on, given ``h``, the input to ``start``.

    Returns the activation after each hidden layer from ``start`` on, then
    the logits.  This is the only forward pass, so a pass resumed from a
    stored activation runs exactly the operations of a full one.  Each
    layer's output is ``np.matmul(h, w)``, then ``+= b``, then, for a
    hidden layer, ``np.tanh`` in place: the IEEE operations of
    ``np.tanh(h @ w + b)`` and ``h @ w + b``.  ``h`` itself is never
    written.

    ``out``, when given, holds one buffer per layer, each of the shape
    that layer's output has; layer ``k`` then writes into ``out[k]``
    instead of a new array, and the buffers are returned.  Only the
    destination changes, never a byte of the result.  The input to
    ``start`` may be ``out[start - 1]``, as it is when a pass resumes.
    """
    if out is None:
        out = [None] * len(weights)
    outputs = []
    for k in range(start, len(weights)):
        h = np.matmul(h, weights[k], out=out[k])
        h += biases[k]
        if k < len(weights) - 1:
            np.tanh(h, out=h)
        outputs.append(h)
    return outputs


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

    ``evaluate`` keeps one trace, the latest call's checked perturbations.
    The activations live in buffers allocated once per oracle, by its
    first evaluation: one per hidden layer plus the logits, which each
    pass overwrites from the layer it starts at.

    A layer is shared with the trace when both calls leave it unperturbed,
    or both perturb it with the same immutable array, a view of ``bytes``
    as ``layer_perturbations`` hands out.  A pass starts at the first
    layer that is not shared, from the buffer holding its input, and
    always runs the output layer.  It builds effective weights only for
    the perturbed layers from its start on, and drops them when it ends.
    The model's weights are immutable too, so the trace decides where a
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
        self._window = (eval_start, eval_count)
        self._eval_x, self._eval_y = _moons_stream(
            model.seed, _TAG_EVAL_DATA, eval_start, eval_count, model.noise)
        self.layers = [LayerSpec(f"fc{i}", w.ravel()) for i, w in enumerate(model.weights)]
        self._trace = None

    @property
    def sample_count(self) -> int:
        return len(self._eval_y)

    def with_window(self, eval_start: int, eval_count: int | None) -> "ToyClassifierOracle":
        """The same model over samples ``eval_start`` on of the evaluation
        stream, ``eval_count`` of them, or as many as here for ``None``: a
        new oracle, with buffers and a trace of its own, over this model."""
        count = self.sample_count if eval_count is None else eval_count
        return ToyClassifierOracle(self.model, eval_start=eval_start, eval_count=count)

    @functools.cached_property
    def _outputs(self) -> list[np.ndarray]:
        """One buffer per layer's output, allocated by the first evaluation,
        when an oracle measured before this one has usually been freed."""
        return [np.empty((self.sample_count, w.shape[1])) for w in self.model.weights]

    def evaluate(self, perturbations) -> float:
        checked = self._check_perturbations(perturbations)
        weights = list(self.model.weights)
        trace = self._trace
        # The output layer always runs: the trace vouches for inputs only.
        start = 0
        if trace is not None:
            while start < len(weights) - 1:
                vec = checked.get(start)
                if vec is not trace.get(start) or (vec is not None and _immutable(vec) is not vec):
                    break
                start += 1
        for idx, vec in checked.items():
            if idx >= start:
                weights[idx] = weights[idx] + vec.reshape(weights[idx].shape)
        h = self._outputs[start - 1] if start else self._eval_x
        self._trace = None  # the buffers are not a trace until the pass completes
        logits = _forward(weights, self.model.biases, h, start, self._outputs)[-1]
        self._trace = checked
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

    The activations, the tanh slopes ``1 - a ** 2`` and the deltas the
    backward pass carries down are buffers allocated once per call, one
    per layer, which every step overwrites through ``out=``.  The trained
    ``params`` are frozen into immutable memory once, and the model's
    arrays are views of that one buffer.
    """
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    if depth < 2:
        raise ValueError("need at least an input and an output layer")
    if hidden < 1:
        raise ValueError(f"hidden must be >= 1, got {hidden}")
    if train_count < 1:
        raise ValueError(f"train_count must be >= 1, got {train_count}")
    # Written so that NaN fails the comparison, as load_oracle requires of a noise.
    if not 0 <= noise < math.inf:
        raise ValueError(f"noise must be a finite number >= 0, got {noise}")
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
    outputs = [np.empty((n, w.shape[1])) for w in weights]
    acts = [x] + outputs[:-1]
    slopes = [np.empty_like(a) for a in outputs[:-1]]
    deltas = [np.empty_like(a) for a in outputs[:-1]]
    for step in range(1, epochs + 1):
        logits = _forward(weights, biases, x, out=outputs)[-1]
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
                slope = np.square(acts[i], out=slopes[i - 1])
                np.subtract(1.0, slope, out=slope)
                d = np.matmul(d, weights[i].T, out=deltas[i - 1])
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
    views = _flat_views(_immutable(params), shapes)
    model = ToyModel(dims=dims, weights=tuple(views[:depth]), biases=tuple(views[depth:]),
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
        if not isinstance(header, dict):
            raise FileFormatError(f"{path!r}: header is not a JSON object")
        if header.get("format") != CONTAINER_VERSION:
            raise FileFormatError(f"{path!r}: unsupported container version")
        return header, _read_payload(fh, path)


def _read_payload(fh, path) -> np.ndarray:
    """The rest of ``fh``, float32 values upcast (exactly) to one immutable
    float64 array, as ``quantizer._immutable`` makes them.

    The values are upcast a bounded chunk at a time into a buffer sized up
    front, which then becomes the ``bytes`` object the result views without
    a copy, so the payload is never held twice.
    """
    nbytes = os.fstat(fh.fileno()).st_size - fh.tell()
    if nbytes % 4:
        raise FileFormatError(
            f"{path!r}: payload of {nbytes} bytes is not a whole number of float32 values")
    count = nbytes // 4
    buf = io.BytesIO()
    if count:
        buf.seek(8 * count - 1)
        buf.write(b"\0")
        buf.seek(0)
    raw = np.empty(min(count, _PAYLOAD_CHUNK), dtype="<f4")
    wide = np.empty(raw.size)  # reused: a new chunk per write raised peak RSS 0.7 MiB
    for start in range(0, count, _PAYLOAD_CHUNK):
        size = min(count - start, _PAYLOAD_CHUNK)
        if fh.readinto(raw[:size]) != 4 * size:
            raise FileFormatError(f"{path!r}: truncated payload")
        wide[:size] = raw[:size]
        buf.write(wide[:size])
    # With no view of it open, BytesIO hands its buffer over as it is.
    return np.frombuffer(buf.getvalue(), dtype=np.float64)


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


def _finite(v) -> bool:
    return type(v) in (int, float) and math.isfinite(v)


def _positive_ints(v) -> bool:
    return type(v) is list and all(type(d) is int and d > 0 for d in v)


# What each kind of header field must hold.
_FIELD_KINDS = {
    # numpy seeds must be >= 0, and accuracy needs a training sample.
    "an integer >= 0": lambda v: type(v) is int and v >= 0,
    "an integer >= 1": lambda v: type(v) is int and v >= 1,
    "a finite number": _finite,
    "a finite number >= 0": lambda v: _finite(v) and v >= 0,
    "a list of positive integers": _positive_ints,
    # The toy's two input features, then its layer widths, then 2 or more classes.
    "a list of layer widths from 2 inputs to 2 or more classes":
        lambda v: _positive_ints(v) and len(v) >= 2 and v[0] == 2 and v[-1] >= 2,
}


def _header_field(header: dict, path, name: str, kind: str):
    """``header[name]``; ``FileFormatError`` unless it is ``kind``, a key of
    ``_FIELD_KINDS``."""
    value = header.get(name)
    if not _FIELD_KINDS[kind](value):
        raise FileFormatError(f"{path!r}: header field {name!r} is missing or not {kind}")
    return value


def load_oracle(path, *, eval_start: int = 0, eval_count: int | None = None) -> LossOracle:
    """Load a container file over the evaluation window ``with_window``
    sets: with ``eval_count=None``, 256 samples for a toy classifier and
    one for a quadratic.  Every array the oracle keeps views the one
    immutable payload ``_read_payload`` reads, so none is copied."""
    header, payload = _read_container(path)
    kind = header.get("kind")
    if kind == "toy_classifier":
        dims = tuple(_header_field(header, path, "dims",
                                   "a list of layer widths from 2 inputs to 2 or more classes"))
        shapes = _param_shapes(dims)
        if sum(math.prod(shape) for shape in shapes) != payload.size:
            raise FileFormatError(f"{path!r}: payload size does not match dims")
        views = _flat_views(payload, shapes)
        depth = len(dims) - 1
        model = ToyModel(dims=dims, weights=tuple(views[:depth]), biases=tuple(views[depth:]),
                         seed=_header_field(header, path, "seed", "an integer >= 0"),
                         noise=float(_header_field(header, path, "noise", "a finite number >= 0")),
                         train_count=_header_field(header, path, "train_count",
                                                   "an integer >= 1"))
        # Built over the window at once; ``None`` keeps the constructor's count.
        count = {} if eval_count is None else {"eval_count": eval_count}
        return ToyClassifierOracle(model, eval_start=eval_start, **count)
    if kind == "quadratic":
        sizes = tuple(_header_field(header, path, "layer_sizes", "a list of positive integers"))
        dim = sum(sizes)
        if payload.size != dim * dim + dim:
            raise FileFormatError(f"{path!r}: payload size does not match layer sizes")
        h = payload[:dim * dim].reshape(dim, dim)
        optimum = payload[dim * dim:]
        baseline = _header_field(header, path, "baseline", "a finite number")
        oracle = QuadraticOracle(h, optimum, sizes, baseline=baseline)
        return oracle.with_window(eval_start, eval_count)
    raise FileFormatError(f"{path!r}: unknown oracle kind {kind!r}")
