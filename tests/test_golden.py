"""Golden WDGL streams: the encoder's output is locked byte for byte.

The fixtures under ``golden/`` were written at commit f5ef941 with
J = K = 6, M_cap = 32 on two 64 x 64 images, ``rasterize(star, 64, 4)`` of
``disc_star()`` and of ``vertex_function(make_hypercube(2**-5, 2.0, 1.0),
(1, 0) * 8)`` (the alternating petal vertex):

- ``<image>64_lam.wdgl``: ``encode(f, 6, 6, 32, lam=64.0 ** -3).to_bytes()``;
- ``<image>64_eps0.05.wdgl``: ``encode_to_target(f, 6, 6, 32, 0.05)[0]
  .to_bytes()``, which reached the target for both images.

A change to the fit, the projection, the quantizer or the packing that
alters any stream fails here.
"""

from pathlib import Path

import pytest

from approxrate.cartoon import disc_star, make_hypercube, rasterize, vertex_function
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
