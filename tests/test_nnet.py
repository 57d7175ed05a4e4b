import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from approxrate.exceptions import (
    ApproxRateError,
    CompositionError,
    FormatError,
    InputShapeError,
)
from approxrate.nnet import (
    ActivationSpec,
    AffineStep,
    Network,
    connectivity,
    evaluate_batch,
    identity_extend,
    logistic_power,
    network_from_json,
    network_to_json,
    parallel_compose,
    relu_power,
    serial_compose,
)


def chain(weights, spec):
    steps = tuple(AffineStep(1, 1, ((0, 0, w),)) for w in weights)
    return Network(steps, spec)


@pytest.fixture
def relu():
    return relu_power(1)


def evaluate(net, x):
    """The net's outputs at one input vector x."""
    return evaluate_batch(net, np.asarray(x, dtype=float)[:, None])[:, 0]


@pytest.fixture
def relu_net(relu):
    return chain([1.0, 1.0], relu)


def test_relu_kills_negatives(relu_net):
    assert evaluate(relu_net, [-3.0])[0] == 0.0


def test_identity_fixed_point(relu_net):
    assert evaluate(relu_net, [2.0])[0] == 2.0


def test_zero_weights_dropped():
    step = AffineStep(2, 2, ((0, 0, 1.0), (1, 1, 0.0)), ((0, 0.0), (1, 2.0)))
    assert step.edge_weights == ((0, 0, 1.0),)
    assert step.node_weights == ((1, 2.0),)


def test_affine_step_validation():
    with pytest.raises(InputShapeError):
        AffineStep(1, 1, ((0, 3, 1.0),))
    with pytest.raises(FormatError):
        AffineStep(1, 1, ((0, 0, 1.0), (0, 0, 2.0)))
    with pytest.raises(FormatError):
        AffineStep(1, 1, (), ((0, float("nan")),))


def test_dimension_chain_enforced(relu):
    good = AffineStep(1, 2, ((0, 0, 1.0), (1, 0, 1.0)))
    bad = AffineStep(3, 1, ((0, 0, 1.0),))
    with pytest.raises(InputShapeError):
        Network((good, bad), relu)


def test_connectivity_counts(relu, relu_net):
    assert connectivity(relu_net) == 2
    step = AffineStep(1, 2, ((0, 0, 1.0), (1, 0, -1.0)), ((1, 0.5),))
    out = AffineStep(2, 1, ((0, 0, 1.0), (0, 1, 1.0)))
    assert connectivity(Network((step, out), relu)) == 5


def test_evaluate_shape_errors(relu_net):
    with pytest.raises(InputShapeError):
        evaluate(relu_net, [1.0, 2.0])
    with pytest.raises(InputShapeError):
        evaluate(relu_net, [float("inf")])


def test_serial_compose_depth_and_values(relu, relu_net):
    composed = serial_compose(relu_net, relu_net)
    assert composed.depth == 3
    xs = np.linspace(-2, 2, 101)
    got = evaluate_batch(composed, xs[None, :])[0]
    want = np.maximum(xs, 0.0)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_serial_compose_fused_junction_matches_matrix_product(relu):
    a2 = AffineStep(1, 2, ((0, 0, 2.0), (1, 0, -1.0)), ((0, 0.5),))
    a_last = AffineStep(2, 2, ((0, 0, 1.0), (0, 1, 3.0), (1, 1, 2.0)), ((1, 1.0),))
    b_first = AffineStep(2, 2, ((0, 0, 4.0), (1, 0, 1.0), (1, 1, -2.0)), ((0, 2.0),))
    b_last = AffineStep(2, 1, ((0, 0, 1.0), (0, 1, 1.0)))
    first = Network((a2, a_last), relu)
    second = Network((b_first, b_last), relu)
    fused = serial_compose(first, second)
    junction = fused.steps[1]
    want_a = b_first.matrix() @ a_last.matrix()
    want_b = b_first.matrix() @ a_last.bias() + b_first.bias()
    assert np.allclose(junction.matrix(), want_a)
    assert np.allclose(junction.bias(), want_b)
    # dropped exact zeros keep connectivity honest
    assert all(v != 0.0 for _, _, v in junction.edge_weights)


def test_serial_compose_requires_matching_activation(relu_net):
    other = chain([1.0, 1.0], relu_power(2))
    with pytest.raises(CompositionError):
        serial_compose(relu_net, other)


def test_parallel_compose_single(relu_net):
    net = parallel_compose([relu_net], [1.0], [0.0])
    xs = np.linspace(-1, 1, 51)
    assert np.allclose(evaluate_batch(net, xs[None, :]),
                       evaluate_batch(relu_net, xs[None, :]))


def test_parallel_compose_mirror_gives_identity(relu, relu_net):
    mirrored = chain([-1.0, 1.0], relu)
    net = parallel_compose([relu_net, mirrored], [1.0, -1.0])
    xs = np.linspace(-2, 2, 101)
    got = evaluate_batch(net, xs[None, :])[0]
    assert np.max(np.abs(got - xs)) <= 1e-14


def test_parallel_compose_hat(relu, relu_net):
    nets = [relu_net, chain([1.0, 1.0], relu), chain([1.0, 1.0], relu)]
    net = parallel_compose(nets, [1.0, -2.0, 1.0], [0.0, -1.0, -2.0])
    xs = np.linspace(-1, 3, 201)
    want = np.maximum(xs, 0) - 2 * np.maximum(xs - 1, 0) + np.maximum(xs - 2, 0)
    got = evaluate_batch(net, xs[None, :])[0]
    assert np.max(np.abs(got - want)) <= 1e-12


def test_parallel_connectivity_accounting(relu, relu_net):
    # coefficients fold into the last affine step; shifts add node weights
    nets = [relu_net, chain([1.0, 1.0], relu), chain([1.0, 1.0], relu)]
    net = parallel_compose(nets, [1.0, -2.0, 1.0], [0.0, -1.0, -2.0])
    assert connectivity(net) == 3 * 2 + 2
    pruned = parallel_compose(nets, [1.0, 0.0, 1.0], [0.0, -1.0, -2.0])
    assert connectivity(pruned) == 2 * 2 + 1


def test_parallel_compose_ragged_depth_rejected(relu, relu_net):
    deep = serial_compose(relu_net, relu_net)
    with pytest.raises(CompositionError):
        parallel_compose([relu_net, deep], [1.0, 1.0])


def test_identity_extend_exact(relu, relu_net):
    net = identity_extend(relu_net)
    assert net.depth == relu_net.depth + 1
    xs = np.linspace(-2, 2, 101)
    assert np.allclose(evaluate_batch(net, xs[None, :]),
                       evaluate_batch(relu_net, xs[None, :]), atol=1e-14)


def test_overflow_names_the_layer():
    from approxrate.exceptions import EvalOverflowError
    net = chain([1e300, 1.0, 1.0], relu_power(2))
    with pytest.raises(EvalOverflowError, match="layer 1"):
        evaluate(net, [1e10])


def test_evaluations_bit_identical(relu_net):
    xs = np.linspace(-1, 1, 101)[None, :]
    a = evaluate_batch(relu_net, xs)
    b = evaluate_batch(relu_net, xs)
    assert np.array_equal(a, b)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-3, 3), min_size=2, max_size=4),
       st.lists(st.floats(-3, 3), min_size=2, max_size=4))
def test_serial_compose_equals_nested_evaluation(ws1, ws2):
    spec = relu_power(1)
    first = chain([w if w != 0 else 0.5 for w in ws1], spec)
    second = chain([w if w != 0 else 0.5 for w in ws2], spec)
    fused = serial_compose(first, second)
    xs = np.linspace(-2, 2, 101)[None, :]
    # fusing the junction affine maps is exactly function composition
    want = evaluate_batch(second, evaluate_batch(first, xs))
    got = evaluate_batch(fused, xs)
    assert np.max(np.abs(got - want)) <= 1e-10


def test_json_roundtrip(relu):
    step = AffineStep(1, 2, ((0, 0, 1.5), (1, 0, -2.25)), ((1, 0.125),))
    out = AffineStep(2, 1, ((0, 0, 1.0), (0, 1, 1e-17)))
    net = Network((step, out), relu)
    text = network_to_json(net)
    back = network_from_json(text)
    assert back == net
    xs = np.linspace(-1, 1, 11)[None, :]
    assert np.array_equal(evaluate_batch(back, xs), evaluate_batch(net, xs))


def test_json_loader_validates():
    with pytest.raises(FormatError):
        network_from_json("not json")
    good = network_to_json(chain([1.0, 2.0], relu_power(1)))
    tampered = good.replace('"d": 1', '"d": 7')
    with pytest.raises(FormatError):
        network_from_json(tampered)


def test_activation_spec_validation():
    with pytest.raises(FormatError):
        ActivationSpec("bogus", 1)
    with pytest.raises(FormatError):
        ActivationSpec("relu_power", 0)
    with pytest.raises(FormatError):
        ActivationSpec("relu_power", 1, C=-1.0)
    with pytest.raises(FormatError):
        ActivationSpec("tabulated", 1)


def test_logistic_power_mirrored_pair_is_square():
    # sigma(x) + sigma(-x) == 1, so rho(x) + rho(-x) == x^2 for k = 2
    rho = chain([1.0, 1.0], logistic_power(2))  # one unit: x -> rho(x)
    xs = np.linspace(-5, 5, 201)
    pair = evaluate_batch(rho, xs[None, :])[0] + evaluate_batch(rho, -xs[None, :])[0]
    assert np.allclose(pair, xs * xs, rtol=0.0, atol=1e-12)


def test_json_loader_refuses_tabulated_activation():
    doc = json.loads(network_to_json(chain([1.0, 2.0], relu_power(1))))
    doc["activation"].update(kind="tabulated", table=[[-1.0, 0.0], [1.0, 1.0]])
    with pytest.raises(FormatError):
        network_from_json(json.dumps(doc))


_HOSTILE = (st.integers(-1, 2) | st.integers(-10 ** 400, 10 ** 400)
            | st.floats() | st.booleans() | st.text(max_size=2) | st.none())
_KINDS = st.sampled_from(["relu_power", "logistic_power"])
_WEIGHT = st.floats(-8.0, 8.0) | st.integers(-8, 8)
_DIMS = st.lists(st.integers(1, 3) | st.integers(1, 10 ** 400), min_size=3, max_size=4)


@st.composite
def _network_documents(draw):
    """A chain document with no hostile field, about one, or many: huge,
    negative or non-finite dims, indices, k and weights, integers beyond
    the float range, and values of the wrong type.  A hostile entry has the
    wrong field count or is not a list, and a hostile entry list repeats
    its first entry."""
    odds = draw(st.sampled_from([0, 40, 6]))

    def hostile():
        return odds > 0 and draw(st.integers(1, odds)) == 1

    def field(value):
        return draw(_HOSTILE) if hostile() else value

    def entry(key):
        values = [field(index) for index in key] + [field(draw(_WEIGHT))]
        if not hostile():
            return values
        return draw(st.sampled_from([values[:-1], values + [0], values[0]]))

    def entries(*dims):
        keys = st.tuples(*(st.integers(0, dim - 1) for dim in dims))
        listed = [entry(key) for key in draw(st.lists(keys, max_size=3, unique=True))]
        return listed + listed[:1] if hostile() else listed

    dims = draw(_DIMS)
    return {
        "format": 1,
        "d": field(dims[0]),
        "L": field(len(dims) - 1),
        "activation": {"kind": field(draw(_KINDS)), "k": field(draw(st.integers(1, 3))),
                       "C": field(2.0), "a": field(1.0), "b": field(1.0)},
        "steps": [{"in": field(n_in), "out": field(n_out),
                   "edges": entries(n_out, n_in), "nodes": entries(n_out)}
                  for n_in, n_out in zip(dims, dims[1:])],
    }


@settings(max_examples=300, deadline=None)
@given(_network_documents())
def test_a_hostile_network_document_parses_or_raises_a_typed_error(doc):
    # the parsed net is not evaluated: its dims may be astronomically large
    try:
        net = network_from_json(json.dumps(doc))
    except ApproxRateError:
        return
    assert network_from_json(network_to_json(net)) == net


def _loose_document(edit):
    """The JSON of a 1 -> 2 -> 1 relu net after ``edit`` changed its dict."""
    doc = json.loads(network_to_json(Network(
        (AffineStep(1, 2, ((0, 0, 1.0), (1, 0, -1.0)), ((1, 0.5),)),
         AffineStep(2, 1, ((0, 0, 1.0), (0, 1, 2.0)))), relu_power(2))))
    edit(doc)
    return json.dumps(doc)


def _drop(*path):
    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        del doc[path[-1]]
    return edit


def _set(value, *path):
    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    return edit


@pytest.mark.parametrize("edit", [
    pytest.param(_set([[1.9, 0, 1.0]], "steps", 0, "edges"), id="row-1.9"),
    pytest.param(_set([[0, 0, True]], "steps", 0, "edges"), id="weight-true"),
    pytest.param(_set([[0, 0, "3.5"]], "steps", 0, "edges"), id="weight-string"),
    pytest.param(_set(["103"], "steps", 0, "edges"), id="edge-string"),
    pytest.param(_set(["15"], "steps", 0, "nodes"), id="node-string"),
    pytest.param(_set([[True, 0.5]], "steps", 0, "nodes"), id="node-row-true"),
    pytest.param(_set(1.0, "steps", 0, "in"), id="in-1.0"),
    pytest.param(_set(1.5, "steps", 0, "in"), id="in-1.5"),
    pytest.param(_set("2", "activation", "k"), id="k-string"),
    pytest.param(_set("2", "activation", "C"), id="C-string"),
    pytest.param(_set(True, "activation", "a"), id="a-true"),
    pytest.param(_set(1.0, "d"), id="d-1.0"),
    pytest.param(_set(7, "format"), id="format-7"),
    pytest.param(_set(True, "format"), id="format-true"),
    pytest.param(_drop("format"), id="no-format"),
    pytest.param(_drop("d"), id="no-d"),
    pytest.param(_drop("L"), id="no-L"),
    pytest.param(_drop("activation", "C"), id="no-C"),
    pytest.param(_drop("activation", "a"), id="no-a"),
    pytest.param(_drop("activation", "b"), id="no-b"),
])
def test_json_reader_refuses_what_the_writer_never_writes(edit):
    with pytest.raises(FormatError):
        network_from_json(_loose_document(edit))


def test_numpy_scalars_are_stored_as_python_numbers():
    step = AffineStep(np.int64(1), np.int32(2),
                      ((np.int64(1), np.uint8(0), np.float32(0.5)),),
                      ((np.int16(0), np.int64(3)),))
    spec = ActivationSpec("relu_power", np.int64(2), np.int64(2), np.float64(1.0), 1)
    assert (step.in_dim, step.out_dim) == (1, 2)
    assert all(type(x) is int for x in (step.in_dim, step.out_dim, spec.k))
    assert step.edge_weights == ((1, 0, 0.5),) and step.node_weights == ((0, 3.0),)
    assert spec == relu_power(2)
    net = Network((step, AffineStep(2, 1, ((0, 1, 1.0),))), spec)
    assert network_from_json(network_to_json(net)) == net


@pytest.mark.parametrize("bad", [
    lambda: AffineStep(1, 1, ((0, 0, 1 + 2j),)),
    lambda: AffineStep(1, 1, ((0, 0, np.bool_(True)),)),
    lambda: AffineStep(1, 1, ((np.float64(0.0), 0, 1.0),)),
    lambda: AffineStep(True, 1),
    lambda: ActivationSpec("relu_power", 2.0),
    lambda: ActivationSpec("relu_power", 2, C=None),
])
def test_affine_steps_and_activations_refuse_other_types(bad):
    with pytest.raises(FormatError):
        bad()


@pytest.mark.parametrize("factory", [relu_power, logistic_power])
@pytest.mark.parametrize("k", [2.5, 2.0, True, "2", None])
def test_activation_factories_refuse_a_k_that_is_not_an_integer(factory, k):
    # relu_power(2.5) gave k = 2 with the C and b of no order, and
    # logistic_power(2.5) k = 2 with b = 2.5
    with pytest.raises(FormatError):
        factory(k)


def test_activation_factories_take_numpy_integers():
    assert relu_power(np.int64(3)) == relu_power(3)
    assert logistic_power(np.int32(2)) == logistic_power(2)


@pytest.mark.parametrize("edges, nodes", [
    (((0, 0),), ()),
    (((0, 0, 1.0, 2.0),), ()),
    ((), ((0,),)),
    ((), ((0, 0, 1.0),)),
])
def test_an_entry_with_the_wrong_number_of_indices_is_refused(edges, nodes):
    with pytest.raises(FormatError, match="indices and a value"):
        AffineStep(1, 1, edges, nodes)


def test_from_dense_stores_the_nonzero_cells_in_row_major_order():
    a = np.array([[0.0, -2.5, 0.0], [1.0, -0.0, 3.0]])
    step = AffineStep.from_dense(a, [0.0, 7.0])
    assert step.edge_weights == ((0, 1, -2.5), (1, 0, 1.0), (1, 2, 3.0))
    assert step.node_weights == ((1, 7.0),)
    assert all(type(v) is float for *_, v in step.edge_weights + step.node_weights)
    assert np.array_equal(step.matrix(), a) and np.array_equal(step.bias(), [0.0, 7.0])
    with pytest.raises(FormatError, match="non-finite"):
        AffineStep.from_dense([[np.nan]])


@pytest.mark.parametrize("bad", [
    lambda: AffineStep(1, 1, ((0, 0, 10 ** 400),)),
    lambda: AffineStep(1, 1, (), ((0, -10 ** 400),)),
    lambda: ActivationSpec("relu_power", 2, 10 ** 400),
])
def test_numbers_beyond_the_float_range_are_refused(bad):
    with pytest.raises(FormatError, match="float range"):
        bad()


def test_evaluate_batch_refuses_a_batch_of_the_wrong_shape(relu_net):
    for xs in (np.zeros(3), np.zeros((2, 3)), np.zeros((1, 2, 3))):
        with pytest.raises(InputShapeError, match="expected batch of shape"):
            evaluate_batch(relu_net, xs)


def test_evaluate_batch_refuses_a_non_finite_entry(relu_net):
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(InputShapeError, match="non-finite"):
            evaluate_batch(relu_net, np.array([[0.0, bad]]))


def test_overflow_in_the_activation_names_the_layer():
    from approxrate.exceptions import EvalOverflowError
    net = chain([1e200, 1.0], relu_power(2))
    # the affine step gives 1e200, finite; its square does not fit
    with pytest.raises(EvalOverflowError, match="layer 1"):
        evaluate(net, [1.0])
