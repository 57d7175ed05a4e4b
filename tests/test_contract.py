"""The argument contract of every public entry, walked one argument at a time.

Each row is one valid call.  The walker substitutes each of ``HOSTILE``
(and, where a Network goes, a non-Network) for one argument at a time; the
call must then return a result or raise an ``ApproxRateError``, within
``BUDGET_S`` seconds and a traced allocation peak of ``PEAK_BYTES``, so
that no refusal comes after an allocation sized by the argument.
"""

import importlib
import inspect
import math
import pkgutil
import signal
import tracemalloc

import numpy as np
import pytest

import approxrate
from approxrate import cartoon, constructors, nnet, quantizer, ratelab, splines, wedgelet
from approxrate.exceptions import ApproxRateError

HOSTILE = [True, 2.5, math.nan, math.inf, -math.inf, -1, 0, 1e300, 10 ** 30, "a", None]
NOT_A_NETWORK = object()
BUDGET_S = 5.0
PEAK_BYTES = 64 << 20

STEP = nnet.AffineStep(1, 1, ((0, 0, 1.0),), ((0, 0.5),))
RELU2 = nnet.relu_power(2)
NET = nnet.Network((STEP, nnet.AffineStep(1, 1, ((0, 0, 2.0),))), RELU2)
RELU1_NET = nnet.Network((STEP, nnet.AffineStep(1, 1, ((0, 0, 2.0),))), nnet.relu_power(1))
RADIUS = cartoon.RadiusFunction(0.25, ((1, 4, 1.0, 2.0),))
STAR = cartoon.StarFunction((0.5, 0.5), RADIUS, 2.0, 1.0)
SPEC = cartoon.make_hypercube(0.0625, 2.0, 1.0)
UNIT = wedgelet.DyadicSquare(0, 0, 0)
EDGE = wedgelet.Edgelet(UNIT, 0, 2, 8)
LEAVES = (wedgelet.EdRdpLeaf(UNIT, (EDGE, 0)), wedgelet.EdRdpLeaf(UNIT, (EDGE, 1)))
IMAGE = np.tile([0.0, 0.25, 0.5, 1.0], (4, 1))
CODE = wedgelet.encode(IMAGE, 2, 2, 8, 0.0)
STREAM = CODE.to_bytes()


def zero(x):
    return 0.0


# (public name, callable, the arguments of one valid call)
ROWS = [
    ("nnet.AffineStep", nnet.AffineStep, (1, 1, ((0, 0, 1.0),), ((0, 0.5),))),
    ("nnet.AffineStep.from_dense", nnet.AffineStep.from_dense, ([[1.0, 0.0]], [0.5])),
    ("nnet.ActivationSpec", nnet.ActivationSpec, ("relu_power", 2, 1.0, 1.0, 1.0)),
    ("nnet.Network", nnet.Network, ((STEP, STEP), RELU2)),
    ("nnet.relu_power", nnet.relu_power, (2,)),
    ("nnet.logistic_power", nnet.logistic_power, (2,)),
    ("nnet.evaluate_batch", nnet.evaluate_batch, (NET, np.array([[0.0, 0.5]]))),
    ("nnet.connectivity", nnet.connectivity, (NET,)),
    ("nnet.serial_compose", nnet.serial_compose, (NET, NET)),
    ("nnet.parallel_compose", nnet.parallel_compose, ((NET, NET), (1.0, -2.0), (0.0, 0.5))),
    ("nnet.identity_extend", nnet.identity_extend, (RELU1_NET,)),
    ("nnet.network_to_json", nnet.network_to_json, (NET,)),
    ("nnet.network_from_json", nnet.network_from_json, (nnet.network_to_json(NET),)),
    ("splines.bspline_closed", splines.bspline_closed, (3, 1.5)),
    ("splines.bspline_closed_many", splines.bspline_closed_many, (3, [0.5, 1.5])),
    ("splines.bspline_convolve_oracle", splines.bspline_convolve_oracle, (3, 1.5, 32)),
    ("splines.bspline_oracle_on_grid", splines.bspline_oracle_on_grid, (3, [0.5, 1.5], 32)),
    ("splines.partition_of_unity_residual", splines.partition_of_unity_residual, (3, 0.5)),
    ("constructors.BuildReport", constructors.BuildReport,
     (NET, 2, 2, 0.1, 1.0, (("delta", 0.5),))),
    ("constructors.build_p1", constructors.build_p1, (0.1, 1.0, RELU2)),
    ("constructors.build_plus_power", constructors.build_plus_power, (1, 0.1, 1.0, RELU2)),
    ("constructors.build_power", constructors.build_power, (1, 0.1, 1.0, RELU2)),
    ("constructors.build_relu", constructors.build_relu, (0.1, 1.0, RELU2)),
    ("constructors.build_plus_monomial", constructors.build_plus_monomial,
     (3, 0.1, 1.0, RELU2, None)),
    ("constructors.build_bspline_net", constructors.build_bspline_net,
     (2, 0.1, 1.0, RELU2, None)),
    ("constructors.transfer_expansion", constructors.transfer_expansion,
     (((1.0, 2),), 0.1, 1.0, RELU2)),
    ("constructors.vandermonde_alpha", constructors.vandermonde_alpha, (2,)),
    ("constructors.vandermonde_a", constructors.vandermonde_a, (3, 2, None)),
    ("constructors.min_power_depth", constructors.min_power_depth, (3, 2)),
    ("constructors.bspline_coefficients", constructors.bspline_coefficients, (3,)),
    ("quantizer.quantize_weights", quantizer.quantize_weights, (NET, 0.25, 1, 2)),
    ("quantizer.find_min_m", quantizer.find_min_m, (NET, 0.25, 1, 1.0, 32, 4)),
    ("quantizer.bits_per_weight", quantizer.bits_per_weight, (0.25, 1, 2)),
    ("quantizer.weight_range_exponent", quantizer.weight_range_exponent, (NET, 0.25)),
    ("quantizer.measured_sup_error", quantizer.measured_sup_error, (NET, NET, 1.0)),
    ("ratelab.RateReport", ratelab.RateReport, (((1.0, 1.0),), -1.0, 0.0, 1.0)),
    ("ratelab.sup_error_on_grid", ratelab.sup_error_on_grid, (NET, zero, -1.0, 1.0)),
    ("ratelab.l2_error_quad", ratelab.l2_error_quad, (NET, zero, -1.0, 1.0)),
    ("ratelab.l2_error_pixels", ratelab.l2_error_pixels, (IMAGE, IMAGE)),
    ("ratelab.fit_rate", ratelab.fit_rate, (((1, 1.0), (2, 0.5), (4, 0.2)),)),
    ("ratelab.covering_distortion_exact", ratelab.covering_distortion_exact, (2, 1)),
    ("ratelab.covering_distortion_greedy", ratelab.covering_distortion_greedy, (4, 1, 2, 0)),
    ("cartoon.RadiusFunction", cartoon.RadiusFunction, (0.25, ((1, 4, 1.0, 2.0),))),
    ("cartoon.StarFunction", cartoon.StarFunction, ((0.5, 0.5), RADIUS, 2.0, 1.0)),
    ("cartoon.HypercubeSpec", cartoon.HypercubeSpec,
     (SPEC.delta, SPEC.m, SPEC.A, SPEC.f0, SPEC.holder_C, SPEC.beta)),
    ("cartoon.MembershipReport", cartoon.MembershipReport, (0.2, 0.3, True, 0.5, 1.0)),
    ("cartoon.petal_generator_seminorm", cartoon.petal_generator_seminorm, (2.0,)),
    ("cartoon.make_hypercube", cartoon.make_hypercube, (0.0625, 2.0, 1.0)),
    ("cartoon.vertex_function", cartoon.vertex_function, (SPEC, (1,) * SPEC.m)),
    ("cartoon.holder_seminorm", cartoon.holder_seminorm, (RADIUS, 2.0, 64)),
    ("cartoon.star_membership", cartoon.star_membership, (STAR,)),
    ("cartoon.rasterize", cartoon.rasterize, (STAR, 16, 4)),
    ("cartoon.petal_window", cartoon.petal_window, (SPEC, 1, 16, 4)),
    ("wedgelet.DyadicSquare", wedgelet.DyadicSquare, (1, 0, 1)),
    ("wedgelet.Edgelet", wedgelet.Edgelet, (UNIT, 0, 2, 8)),
    ("wedgelet.Edgelet.from_local_index", wedgelet.Edgelet.from_local_index, (UNIT, 3, 8)),
    ("wedgelet.EdRdpLeaf", wedgelet.EdRdpLeaf, (UNIT, (EDGE, 0))),
    ("wedgelet.EdRdp", wedgelet.EdRdp, (LEAVES, 4, 2, 8)),
    ("wedgelet.WedgeCode", wedgelet.WedgeCode, (2, 2, 8, ((LEAVES[0], 3), (LEAVES[1], -2)))),
    ("wedgelet.WedgeCode.from_bytes", wedgelet.WedgeCode.from_bytes, (STREAM,)),
    ("wedgelet.vertex_budget", wedgelet.vertex_budget, (1, 2, 2, 8)),
    ("wedgelet.wedge_mask", wedgelet.wedge_mask, (LEAVES[0], 4)),
    ("wedgelet.project", wedgelet.project, (IMAGE, wedgelet.EdRdp(LEAVES, 4, 2, 8))),
    ("wedgelet.fit_rdp", wedgelet.fit_rdp, (IMAGE, 2, 2, 8, 0.0)),
    ("wedgelet.encode", wedgelet.encode, (IMAGE, 2, 2, 8, 0.0)),
    ("wedgelet.decode", wedgelet.decode, (CODE,)),
    ("wedgelet.encode_to_target", wedgelet.encode_to_target, (IMAGE, 2, 2, 8, 0.05)),
]


class _OverBudget(BaseException):
    """Raised by the timer; a BaseException, so no handler in the program
    swallows it."""


def _outcome(fn, args):
    """None when the call returns or raises an ApproxRateError within the
    budgets, else what went wrong."""

    def expire(signum, frame):
        raise _OverBudget

    previous = signal.signal(signal.SIGALRM, expire)
    tracemalloc.start()
    try:
        signal.setitimer(signal.ITIMER_REAL, BUDGET_S)
        try:
            fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        problem = None
    except ApproxRateError:
        problem = None
    except _OverBudget:
        problem = f"no outcome within {BUDGET_S} s"
    except Exception as exc:  # noqa: BLE001 - any other type breaks the contract
        problem = f"{type(exc).__name__}: {exc}"
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        signal.signal(signal.SIGALRM, previous)
    if problem is None and peak > PEAK_BYTES:
        problem = f"traced peak {peak >> 20} MiB"
    return problem


def _substitutes(value):
    return HOSTILE + [NOT_A_NETWORK] if isinstance(value, nnet.Network) else HOSTILE


@pytest.mark.parametrize("name, fn, args", ROWS, ids=[row[0] for row in ROWS])
def test_every_argument_is_taken_or_refused_with_a_typed_error(name, fn, args):
    assert _outcome(fn, args) is None, "the valid call itself failed"
    broken = []
    for at, value in enumerate(args):
        for bad in _substitutes(value):
            problem = _outcome(fn, args[:at] + (bad,) + args[at + 1:])
            if problem is not None:
                broken.append(f"argument {at} = {bad!r}: {problem}")
    assert broken == []


def _public_callables():
    for info in pkgutil.iter_modules(approxrate.__path__):
        module = importlib.import_module(f"approxrate.{info.name}")
        for attr in getattr(module, "__all__", ()):
            if callable(getattr(module, attr)):
                yield f"{info.name}.{attr}"


def test_every_public_function_and_class_has_a_contract_row():
    rows = {row[0] for row in ROWS}
    assert sorted(set(_public_callables()) - rows) == []


def test_the_rows_name_what_they_call():
    for name, fn, _ in ROWS:
        owner = importlib.import_module(f"approxrate.{name.split('.')[0]}")
        for part in name.split(".")[1:]:
            owner = getattr(owner, part)
        assert owner == fn or (inspect.ismethod(fn) and owner.__func__ is fn.__func__), name


@pytest.mark.parametrize("call", [
    lambda: ratelab.covering_distortion_greedy(4, 1, restarts=True),
    lambda: wedgelet.encode(IMAGE, 2, 2, 32, True),
    lambda: wedgelet.decode(wedgelet.WedgeCode(2, 2, 8, ((LEAVES[0], True),))),
    lambda: splines.bspline_closed(True, 0.5),
    lambda: splines.bspline_closed(2.5, 1.0),
    lambda: quantizer.quantize_weights(NET, 0.05, math.nan, 3),
    lambda: constructors.build_p1(0.1, 1e300, RELU2),
    lambda: quantizer.find_min_m(NET, "a", 1, 1.0),
    lambda: nnet.evaluate_batch("x", np.zeros((1, 2))),
    lambda: constructors.min_power_depth(3, 0),
    lambda: splines.partition_of_unity_residual(10 ** 30, 0.5),
    lambda: ratelab.covering_distortion_greedy(8, 10 ** 30),
    lambda: cartoon.make_hypercube(1e-10, 2.0, 1.0),
])
def test_the_calls_that_escaped_the_contract_are_refused(call):
    # each returned a result, escaped with an untyped error or never returned
    with pytest.raises(ApproxRateError):
        call()
