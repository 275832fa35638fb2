"""Feed-forward ReLU/identity networks: representation, NNet file IO,
evaluation, and gradients of linear output functionals."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, ParseError


class Activation(Enum):
    RELU = "relu"
    IDENTITY = "identity"


class NodeId(NamedTuple):
    """Index of a ReLU node: (position among ReLU layers, node within layer)."""

    layer: int
    node: int


@dataclass(frozen=True)
class Normalization:
    """NNet normalization metadata. Stored on load; only applied when
    evaluate() is called with normalize=True."""

    input_mins: np.ndarray
    input_maxes: np.ndarray
    means: np.ndarray  # length n+1, last entry is the output mean
    ranges: np.ndarray  # length n+1, last entry is the output range


@dataclass(frozen=True)
class Layer:
    weights: np.ndarray  # (out_width, in_width)
    biases: np.ndarray  # (out_width,)
    activation: Activation

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        b = np.asarray(self.biases, dtype=np.float64)
        if w.ndim != 2 or b.ndim != 1:
            raise DimensionMismatch("weights must be 2-d and biases 1-d")
        if b.shape[0] != w.shape[0]:
            raise DimensionMismatch(
                f"bias length {b.shape[0]} != weight row count {w.shape[0]}"
            )
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "biases", b)

    @property
    def in_width(self) -> int:
        return self.weights.shape[1]

    @property
    def out_width(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class Network:
    """Immutable layered network. The final layer must be an identity layer,
    so the output is affine in the last hidden activations."""

    layers: tuple[Layer, ...]
    normalization: Optional[Normalization] = None
    relu_layers: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        layers = tuple(self.layers)
        if not layers:
            raise DimensionMismatch("network needs at least one layer")
        for k in range(1, len(layers)):
            if layers[k].in_width != layers[k - 1].out_width:
                raise DimensionMismatch(
                    f"layer {k} expects {layers[k].in_width} inputs, "
                    f"layer {k - 1} produces {layers[k - 1].out_width}"
                )
        if layers[-1].activation is not Activation.IDENTITY:
            raise DimensionMismatch("final layer must be an identity layer")
        object.__setattr__(self, "layers", layers)
        object.__setattr__(
            self,
            "relu_layers",
            tuple(k for k, l in enumerate(layers) if l.activation is Activation.RELU),
        )

    @property
    def input_dim(self) -> int:
        return self.layers[0].in_width

    @property
    def output_dim(self) -> int:
        return self.layers[-1].out_width

    def relu_layer_widths(self) -> list[int]:
        return [self.layers[k].out_width for k in self.relu_layers]

    @property
    def num_relu_nodes(self) -> int:
        return sum(self.relu_layer_widths())

    def relu_node_ids(self) -> list[NodeId]:
        return [
            NodeId(i, j)
            for i, k in enumerate(self.relu_layers)
            for j in range(self.layers[k].out_width)
        ]


@dataclass(frozen=True)
class ForwardTrace:
    """All intermediate values of one forward pass: pre[k] and post[k]
    per layer k, in network layer order."""

    pre: tuple[np.ndarray, ...]
    post: tuple[np.ndarray, ...]

    @property
    def output(self) -> np.ndarray:
        return self.post[-1]


def _check_input(net: Network, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (net.input_dim,):
        raise DimensionMismatch(
            f"expected input of length {net.input_dim}, got shape {x.shape}"
        )
    return x


def forward_trace(net: Network, x, normalize: bool = False) -> ForwardTrace:
    """Forward pass exposing every pre/post activation vector."""
    x = _check_input(net, x)
    if normalize:
        if net.normalization is None:
            raise DimensionMismatch("network carries no normalization metadata")
        nz = net.normalization
        x = (x - nz.means[:-1]) / nz.ranges[:-1]
    pre, post = [], []
    a = x
    for layer in net.layers:
        zhat = layer.weights @ a + layer.biases
        z = np.maximum(0.0, zhat) if layer.activation is Activation.RELU else zhat
        pre.append(zhat)
        post.append(z)
        a = z
    if normalize and net.normalization is not None:
        nz = net.normalization
        post[-1] = post[-1] * nz.ranges[-1] + nz.means[-1]
    return ForwardTrace(tuple(pre), tuple(post))


def evaluate(net: Network, x, normalize: bool = False) -> np.ndarray:
    return forward_trace(net, x, normalize=normalize).output


def gradient(net: Network, x, c) -> np.ndarray:
    """Gradient of c.f(x) w.r.t. x by reverse accumulation. At a kink
    (zhat == 0) the inactive branch is used, i.e. derivative 0."""
    x = _check_input(net, x)
    c = np.asarray(c, dtype=np.float64)
    if c.shape != (net.output_dim,):
        raise DimensionMismatch(
            f"expected objective of length {net.output_dim}, got shape {c.shape}"
        )
    trace = forward_trace(net, x)
    g = c
    for layer, zhat in zip(reversed(net.layers), reversed(trace.pre)):
        if layer.activation is Activation.RELU:
            g = g * (zhat > 0.0)
        g = layer.weights.T @ g
    return g


def activation_pattern(net: Network, x, tol: float = 0.0) -> list[np.ndarray]:
    """Boolean active-mask per ReLU layer at input x (active iff zhat >= -tol)."""
    trace = forward_trace(net, x)
    return [trace.pre[k] >= -tol for k in net.relu_layers]


# ---------------------------------------------------------------------------
# NNet text format


def _data_lines(path: str):
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            stripped = raw.strip()
            if not stripped or stripped.startswith("//"):
                continue
            yield lineno, stripped


def _parse_floats(lineno: int, line: str, expect: Optional[int] = None) -> np.ndarray:
    parts = [p for p in line.split(",") if p.strip() != ""]
    try:
        values = np.array([float(p) for p in parts], dtype=np.float64)
    except ValueError as exc:
        raise ParseError(lineno, f"bad numeric literal: {exc}") from None
    if expect is not None and values.size != expect:
        raise ParseError(lineno, f"expected {expect} values, found {values.size}")
    return values


def load_nnet(path: str) -> Network:
    """Load a network in the ACAS-community NNet text format."""
    lines = _data_lines(path)

    def next_line(what: str):
        try:
            return next(lines)
        except StopIteration:
            raise ParseError(0, f"unexpected end of file, expected {what}") from None

    lineno, header = next_line("header counts")
    counts = _parse_floats(lineno, header)
    if counts.size < 4:
        raise ParseError(lineno, "header needs numLayers,inputSize,outputSize,maxLayerSize")
    if not np.isfinite(counts).all():
        raise ParseError(lineno, "NaN or infinite value")
    num_layers, input_size, output_size = int(counts[0]), int(counts[1]), int(counts[2])
    if num_layers < 1 or input_size < 1 or output_size < 1:
        raise ParseError(lineno, "layer counts and sizes must be positive")

    lineno, sizes_line = next_line("layer sizes")
    sizes = _parse_floats(lineno, sizes_line, expect=num_layers + 1)
    if not np.isfinite(sizes).all():
        raise ParseError(lineno, "NaN or infinite value")
    sizes = sizes.astype(int).tolist()
    if min(sizes) < 1:
        raise ParseError(lineno, "layer sizes must be positive")
    if sizes[0] != input_size:
        raise ParseError(lineno, f"first layer size {sizes[0]} != inputSize {input_size}")
    if sizes[-1] != output_size:
        raise ParseError(lineno, f"last layer size {sizes[-1]} != outputSize {output_size}")

    next_line("legacy flag")  # ignored

    n = input_size
    sized = (("input minimums", n), ("input maximums", n), ("means", n + 1), ("ranges", n + 1))
    input_mins, input_maxes, means, ranges = (
        _parse_floats(*next_line(what), expect=size) for what, size in sized
    )

    # The weight and bias lines, converted with one call when every line has
    # its count of values; otherwise line by line, which names a bad line.
    expect = [c for k in range(num_layers) for c in [sizes[k]] * sizes[k + 1] + [1] * sizes[k + 1]]
    block = [line for _, line in zip(expect, lines)]
    if len(block) < len(expect):
        raise ParseError(0, f"unexpected end of file, expected {len(expect)} weight and bias lines")
    texts = [line.rstrip(",") for _, line in block]
    try:
        if [text.count(",") + 1 for text in texts] != expect:
            raise ValueError
        values = np.array(list(map(float, ",".join(texts).split(","))))
    except ValueError:
        values = np.concatenate([_parse_floats(*line, expect=c) for line, c in zip(block, expect)])
    layers, at = [], 0
    for k in range(num_layers):
        weights = values[at : at + sizes[k] * sizes[k + 1]].reshape(sizes[k + 1], sizes[k])
        at += weights.size + sizes[k + 1]
        activation = Activation.IDENTITY if k == num_layers - 1 else Activation.RELU
        layers.append(Layer(weights, values[at - sizes[k + 1] : at], activation))

    # NaN nowhere, and +-inf only in the input limits, which write_nnet
    # writes for a network without normalization. One check covers the
    # file; only a file that fails it is read again, to name the line.
    limits = np.concatenate((input_mins, input_maxes))
    if np.isnan(limits).any() or not np.isfinite(np.concatenate((means, ranges, values))).all():
        for index, (lineno, line) in enumerate(_data_lines(path)):
            if index == 2:  # the legacy flag, ignored
                continue
            v = _parse_floats(lineno, line)
            if np.isnan(v).any() or (index > 4 and np.isinf(v).any()):
                raise ParseError(lineno, "NaN or infinite value")

    return Network(
        tuple(layers),
        normalization=Normalization(input_mins, input_maxes, means, ranges),
    )


def write_nnet(net: Network, path: str, comment: str = "") -> None:
    """Serialize a network in the NNet text format, 17 significant digits."""

    def fmt(values: Sequence[float]) -> str:
        return ",".join([f"{v:.17g}" for v in values]) + ",\n"

    n = net.input_dim
    sizes = [n] + [layer.out_width for layer in net.layers]
    limits = np.full(n, np.inf)
    nz = net.normalization or Normalization(-limits, limits, np.zeros(n + 1), np.ones(n + 1))
    lines = [f"// {line}\n" for line in comment.splitlines()]
    lines += [fmt([len(net.layers), n, net.output_dim, max(sizes)]), fmt(sizes), "0,\n"]
    lines += [fmt(v.tolist()) for v in (nz.input_mins, nz.input_maxes, nz.means, nz.ranges)]
    for layer in net.layers:
        lines += [fmt(row) for row in layer.weights.tolist()]
        lines += [fmt([b]) for b in layer.biases.tolist()]
    with open(path, "w") as fh:
        fh.write("".join(lines))
