import numpy as np
import pytest

from reluopt import (
    Activation,
    DimensionMismatch,
    Layer,
    Network,
    NodeId,
    ParseError,
    activation_pattern,
    evaluate,
    forward_trace,
    gradient,
    load_nnet,
    write_nnet,
)
from reluopt.model import Normalization

from conftest import fd_gradient, kink_free, naive_forward, random_net


def test_evaluate_matches_naive_oracle():
    rng = np.random.default_rng(7)
    for _ in range(30):
        net = random_net(rng, n_in=3, hidden=(5, 4), n_out=2)
        for x in rng.uniform(-2, 2, (10, 3)):
            np.testing.assert_allclose(evaluate(net, x), naive_forward(net, x), atol=1e-12)


def test_abs_net_values(abs_net):
    for x in (-3.0, -0.5, 0.0, 0.5, 3.0):
        assert evaluate(abs_net, [x])[0] == pytest.approx(abs(x), abs=1e-12)


def test_hat_net_peak(hat_net):
    assert evaluate(hat_net, [1.0])[0] == pytest.approx(1.0)
    assert evaluate(hat_net, [-1.0])[0] == pytest.approx(0.0)
    assert evaluate(hat_net, [3.0])[0] == pytest.approx(-1.0)


def test_forward_trace_exposes_all_layers(abs_net):
    trace = forward_trace(abs_net, [-2.0])
    np.testing.assert_allclose(trace.pre[0], [-2.0, 2.0])
    np.testing.assert_allclose(trace.post[0], [0.0, 2.0])
    np.testing.assert_allclose(trace.output, [2.0])


def test_network_validation():
    with pytest.raises(DimensionMismatch):
        Network(())
    relu = Layer(np.eye(2), np.zeros(2), Activation.RELU)
    with pytest.raises(DimensionMismatch):
        Network((relu,))  # final layer must be identity
    with pytest.raises(DimensionMismatch):
        Layer(np.eye(2), np.zeros(3), Activation.RELU)
    bad = Layer(np.ones((2, 3)), np.zeros(2), Activation.IDENTITY)
    with pytest.raises(DimensionMismatch):
        Network((relu, bad, bad))


def test_input_dimension_checked(abs_net):
    with pytest.raises(DimensionMismatch):
        evaluate(abs_net, [1.0, 2.0])


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 60:
        net = random_net(rng, n_in=3, hidden=(6,), n_out=2)
        x = rng.uniform(-2, 2, 3)
        if not kink_free(net, x):
            continue
        c = rng.normal(size=2)
        g = gradient(net, x, c)
        fd = fd_gradient(net, x, c)
        scale = max(1.0, float(np.linalg.norm(fd)))
        assert np.linalg.norm(g - fd) / scale < 1e-4
        checked += 1


def test_gradient_kink_uses_inactive_branch(abs_net):
    # At x = 0 both pre-activations sit at a kink; the inactive branch gives 0.
    assert gradient(abs_net, [0.0], [1.0])[0] == 0.0


def test_activation_pattern(abs_net):
    (mask,) = activation_pattern(abs_net, [2.0])
    assert mask.tolist() == [True, False]
    (mask,) = activation_pattern(abs_net, [-2.0])
    assert mask.tolist() == [False, True]


def test_relu_node_ids(abs_net):
    assert abs_net.relu_node_ids() == [NodeId(0, 0), NodeId(0, 1)]
    assert abs_net.num_relu_nodes == 2


# ---------------------------------------------------------------------------
# NNet file IO


def test_nnet_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    net = random_net(rng, n_in=3, hidden=(4, 5), n_out=2)
    path = tmp_path / "net.nnet"
    write_nnet(net, str(path), comment="round trip")
    loaded = load_nnet(str(path))
    assert len(loaded.layers) == len(net.layers)
    for a, b in zip(loaded.layers, net.layers):
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.biases, b.biases)
        assert a.activation is b.activation
    # Second write is byte-identical.
    path2 = tmp_path / "net2.nnet"
    write_nnet(loaded, str(path2), comment="round trip")
    assert path.read_bytes() == path2.read_bytes()


def test_nnet_tolerates_comments_and_trailing_commas(tmp_path):
    text = (
        "// a comment\n"
        "1,1,1,1,\n"
        "1,1,\n"
        "0,\n"
        "-1,\n"
        "1,\n"
        "0,0,\n"
        "1,1,\n"
        "// weights\n"
        "2.5,\n"
        "0.5,\n"
    )
    path = tmp_path / "tiny.nnet"
    path.write_text(text)
    net = load_nnet(str(path))
    assert evaluate(net, [2.0])[0] == pytest.approx(5.5)
    assert net.layers[0].activation is Activation.IDENTITY


def test_nnet_parse_error_reports_line(tmp_path):
    path = tmp_path / "bad.nnet"
    path.write_text("// c\n1,1,1,1,\n1,oops,\n")
    with pytest.raises(ParseError) as err:
        load_nnet(str(path))
    assert err.value.line == 3


# 1 -> 1, identity: header, sizes, flag, min, max, means, ranges, weight, bias
_TINY_NNET = ["1,1,1,1,", "1,1,", "0,", "-1,", "1,", "0,0,", "1,1,", "2.5,", "0.5,"]


@pytest.mark.parametrize(
    "line, bad",
    [
        (1, "nan,1,1,1,"),  # header counts
        (4, "nan,"),  # input minimums
        (5, "nan,"),  # input maximums
        (6, "0,nan,"),  # means
        (7, "1,inf,"),  # ranges
        (8, "nan,"),  # weight
        (8, "inf,"),
        (8, "-inf,"),
        (9, "inf,"),  # bias
        (9, "nan,"),
    ],
)
def test_nnet_rejects_nan_and_infinite_values(tmp_path, line, bad):
    """NaN anywhere and +-inf in a weight, bias, mean or range fail at their
    line; input limits may be infinite, as write_nnet writes them for a
    network without normalization."""
    text = list(_TINY_NNET)
    text[line - 1] = bad
    path = tmp_path / "bad.nnet"
    path.write_text("\n".join(text) + "\n")
    with pytest.raises(ParseError) as err:
        load_nnet(str(path))
    assert err.value.line == line


def test_nnet_truncated_file(tmp_path):
    path = tmp_path / "short.nnet"
    path.write_text("1,1,1,1,\n1,1,\n0,\n")
    with pytest.raises(ParseError):
        load_nnet(str(path))


def test_normalization_only_applied_on_request(tmp_path):
    net = Network(
        (Layer(np.array([[2.0]]), np.array([1.0]), Activation.IDENTITY),),
        normalization=Normalization(
            np.array([-1.0]), np.array([1.0]), np.array([0.5, 0.0]), np.array([2.0, 3.0])
        ),
    )
    # Raw: 2*4 + 1 = 9. Normalized: x' = (4 - 0.5)/2 = 1.75 -> 2*1.75+1 = 4.5 -> *3 + 0 = 13.5
    assert evaluate(net, [4.0])[0] == pytest.approx(9.0)
    assert evaluate(net, [4.0], normalize=True)[0] == pytest.approx(13.5)


def test_normalize_without_metadata_raises(abs_net):
    with pytest.raises(DimensionMismatch):
        evaluate(abs_net, [1.0], normalize=True)


def test_nnet_weight_lines_parse_line_by_line_when_irregular(tmp_path):
    """Weight and bias lines with blank or spaced values load as they did
    line by line, and a weight line with a wrong count fails at its line."""
    text = list(_TINY_NNET)
    text[7], text[8] = " 2.5 , ,", "0.5,,"
    path = tmp_path / "spaced.nnet"
    path.write_text("\n".join(text) + "\n")
    net = load_nnet(str(path))
    assert net.layers[0].weights.tolist() == [[2.5]] and net.layers[0].biases.tolist() == [0.5]
    text[7] = "2.5,1.0,"
    path.write_text("\n".join(text) + "\n")
    with pytest.raises(ParseError) as err:
        load_nnet(str(path))
    assert err.value.line == 8 and "expected 1 values, found 2" in str(err.value)


def test_nnet_layer_sizes_must_be_positive(tmp_path):
    text = list(_TINY_NNET)
    text[0], text[1] = "2,1,1,1,", "1,0,1,"
    path = tmp_path / "empty_layer.nnet"
    path.write_text("\n".join(text) + "\n")
    with pytest.raises(ParseError) as err:
        load_nnet(str(path))
    assert err.value.line == 2
