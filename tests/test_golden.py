"""Golden WDGL streams and network JSON: outputs locked byte for byte.

The fixtures under ``golden/`` were written at commit f5ef941 with
J = K = 6, M_cap = 32 on two 64 x 64 images, ``rasterize(star, 64, 4)`` of
``disc_star()`` and of ``vertex_function(make_hypercube(2**-5, 2.0, 1.0),
(1, 0) * 8)`` (the alternating petal vertex):

- ``<image>64_lam.wdgl``: ``encode(f, 6, 6, 32, lam=64.0 ** -3).to_bytes()``;
- ``<image>64_eps0.05.wdgl``: ``encode_to_target(f, 6, 6, 32, 0.05)[0]
  .to_bytes()``, which reached the target for both images.

A change to the fit, the projection, the quantizer or the packing that
alters any stream fails here.

The network fixtures were written at commit 0b257be, D = 4 throughout:

- ``bspline_m<m>_k<k>.json``: ``network_to_json`` of
  ``build_bspline_net(m, 2**-6, 4.0, relu_power(k)).network``;
- ``bspline_m<m>_k<k>_eta<eta>.json``: that net quantized at
  ``weight_range_exponent`` and at the m that ``find_min_m`` returns.

A change to ``build_bspline_net``, the quantizer or the m that ``find_min_m``
picks fails here.
"""

from pathlib import Path

import pytest

from approxrate.cartoon import disc_star, make_hypercube, rasterize, vertex_function
from approxrate.constructors import build_bspline_net
from approxrate.nnet import network_to_json, relu_power
from approxrate.quantizer import find_min_m, quantize_weights, weight_range_exponent
from approxrate.wedgelet import encode, encode_to_target

GOLDEN = Path(__file__).resolve().parent / "golden"
N, J = 64, 6


def _image(name):
    if name == "disc":
        star = disc_star()
    else:
        spec = make_hypercube(2.0 ** -5, 2.0, 1.0)
        star = vertex_function(spec, (1, 0) * (spec.m // 2))
    return rasterize(star, N, 4)


@pytest.mark.parametrize("name", ["disc", "petals"])
def test_encode_matches_golden_stream(name):
    code = encode(_image(name), J, J, 32, lam=float(N) ** -3.0)
    assert code.to_bytes() == (GOLDEN / f"{name}64_lam.wdgl").read_bytes()


@pytest.mark.parametrize("name", ["disc", "petals"])
def test_encode_to_target_matches_golden_stream(name):
    code, _, reached = encode_to_target(_image(name), J, J, 32, 0.05)
    assert reached
    assert code.to_bytes() == (GOLDEN / f"{name}64_eps0.05.wdgl").read_bytes()


@pytest.mark.parametrize("m,k", [(3, 2), (4, 2), (3, 3)])
def test_bspline_net_matches_golden_json(m, k):
    net = build_bspline_net(m, 2.0 ** -6, 4.0, relu_power(k)).network
    stem = f"bspline_m{m}_k{k}"
    assert network_to_json(net) == (GOLDEN / f"{stem}.json").read_text()
    for eta in (0.05, 0.01):
        kq = weight_range_exponent(net, eta)
        qnet = quantize_weights(net, eta, kq, find_min_m(net, eta, kq, 4.0))
        assert network_to_json(qnet) == (GOLDEN / f"{stem}_eta{eta}.json").read_text()
