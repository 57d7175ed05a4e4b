"""Golden WDGL streams and network JSON: outputs locked byte for byte.

The fixtures under ``golden/`` were written at commit f5ef941 with
J = K = 6, M_cap = 32 on two 64 x 64 images, ``rasterize(star, 64, 4)`` of
``disc_star()`` and of ``vertex_function(make_hypercube(2**-5, 2.0, 1.0),
(1, 0) * 8)`` (the alternating petal vertex):

- ``<image>64_lam.wdgl``: ``encode(f, 6, 6, 32, lam=64.0 ** -3).to_bytes()``;
- ``<image>64_eps0.05.wdgl``: ``encode_to_target(f, 6, 6, 32, 0.05)[0]
  .to_bytes()``, which reached the target for both images.

The fixtures under ``golden/n128/`` were written at commit e0ed3d4 with
J = K = 7, M_cap = 32 on 128 x 128 images, ``rasterize(star, 128, 4)`` of
the disc, of the alternating petal vertex and of the seeded petal vertex
``vertex_function(make_hypercube(2**-5, 2.0, 1.0), SEEDED)``, whose bits
are those the benchmark's ``wedge_images(0)`` raises:

- ``<image>_eps0.05.wdgl``: ``encode_to_target(f, 7, 7, 32, 0.05)[0]
  .to_bytes()``, which reached the target for all three images.

They sit in a folder of their own so that the stream checks below, which
count the n = 64 fixtures, keep counting those alone.

A change to the fit, the projection, the quantizer or the packing that
alters any stream fails here.

``decoded.sha256``, in ``sha256sum`` format, was written at commit
d0b49bf: the SHA-256 of the raw file ``approxrate wedge decode`` writes
for each of the seven streams, named after the stream with ``.raw`` for
``.wdgl``.  A change to the reader or the decoder that alters any image
fails here.

The network fixtures were written at commit 0b257be, D = 4 throughout:

- ``bspline_m<m>_k<k>.json``: ``network_to_json`` of
  ``build_bspline_net(m, 2**-6, 4.0, relu_power(k)).network``;
- ``bspline_m<m>_k<k>_eta<eta>.json``: that net quantized at
  ``weight_range_exponent`` and at the m that ``find_min_m`` returns.

A change to ``build_bspline_net``, the quantizer or the m that ``find_min_m``
picks fails here.

Two order-1 ReLU fixtures were written at commit e3e33f4, D = 4 again,
for the steps the knot interpolant and the identity extension build:

- ``bspline_m3_k1.json``: ``network_to_json`` of
  ``build_bspline_net(3, 2**-6, 4.0, relu_power(1)).network``;
- ``transfer_k1.json``: ``network_to_json`` of
  ``transfer_expansion([(1.0, 2), (0.5, 3)], 2**-6, 4.0, relu_power(1))
  .network``.
"""

import hashlib
import math
import struct
import tracemalloc
from collections import Counter
from dataclasses import FrozenInstanceError
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from approxrate import wedgelet
from approxrate.cli import write_raw_array
from approxrate.cartoon import disc_star, make_hypercube, rasterize, vertex_function
from approxrate.constructors import build_bspline_net, transfer_expansion
from approxrate.exceptions import (
    ApproxRateError,
    CorruptionError,
    DegenerateWedgeError,
    FormatError,
)
from approxrate.nnet import network_to_json, relu_power
from approxrate.quantizer import find_min_m, quantize_weights, weight_range_exponent
from approxrate.wedgelet import (
    WEDGE_FORMAT_VERSION,
    WedgeCode,
    decode,
    encode,
    encode_to_target,
    vertex_budget,
)
from brute import read_records

GOLDEN = Path(__file__).resolve().parent / "golden"
N, J = 64, 6
SEEDED = (1, 1, 0, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 1)


def _image(name, n=N):
    if name == "disc":
        star = disc_star()
    else:
        spec = make_hypercube(2.0 ** -5, 2.0, 1.0)
        star = vertex_function(spec, SEEDED if name == "seeded"
                               else (1, 0) * (spec.m // 2))
    return rasterize(star, n, 4)


@pytest.mark.parametrize("name", ["disc", "petals"])
def test_encode_matches_golden_stream(name):
    code = encode(_image(name), J, J, 32, lam=float(N) ** -3.0)
    assert code.to_bytes() == (GOLDEN / f"{name}64_lam.wdgl").read_bytes()


@pytest.mark.parametrize("name", ["disc", "petals"])
def test_encode_to_target_matches_golden_stream(name):
    code, _, reached = encode_to_target(_image(name), J, J, 32, 0.05)
    assert reached
    assert code.to_bytes() == (GOLDEN / f"{name}64_eps0.05.wdgl").read_bytes()


@pytest.mark.parametrize("name", ["disc", "petals", "seeded"])
def test_encode_to_target_matches_golden_stream_at_n128(name):
    code, _, reached = encode_to_target(_image(name, 128), 7, 7, 32, 0.05)
    assert reached
    assert code.to_bytes() == (GOLDEN / "n128" / f"{name}_eps0.05.wdgl").read_bytes()


@pytest.mark.parametrize("m,k", [(3, 2), (4, 2), (3, 3)])
def test_bspline_net_matches_golden_json(m, k):
    net = build_bspline_net(m, 2.0 ** -6, 4.0, relu_power(k)).network
    stem = f"bspline_m{m}_k{k}"
    assert network_to_json(net) == (GOLDEN / f"{stem}.json").read_text()
    for eta in (0.05, 0.01):
        kq = weight_range_exponent(net, eta)
        qnet = quantize_weights(net, eta, kq, find_min_m(net, eta, kq, 4.0))
        assert network_to_json(qnet) == (GOLDEN / f"{stem}_eta{eta}.json").read_text()


@pytest.mark.parametrize("stem, build", [
    ("bspline_m3_k1", lambda: build_bspline_net(3, 2.0 ** -6, 4.0, relu_power(1))),
    ("transfer_k1",
     lambda: transfer_expansion([(1.0, 2), (0.5, 3)], 2.0 ** -6, 4.0, relu_power(1))),
])
def test_order_one_relu_nets_match_golden_json(stem, build):
    assert network_to_json(build().network) == (GOLDEN / f"{stem}.json").read_text()


STREAMS = sorted(p.name for p in GOLDEN.glob("*.wdgl"))


def _record_bits(code):
    """Bits the records take, from the layout in the WedgeCode docstring."""
    sbits = math.ceil(math.log2(code.J + 1))
    cbits = math.ceil(math.log2(2 * code.n ** 2 + 3))
    total = 0
    for leaf, _ in code.records:
        j = leaf.square.j
        total += sbits + 2 * j + 1 + cbits
        if leaf.split is not None:
            pairs = comb(vertex_budget(j, code.J, code.K, code.m_cap), 2)
            total += math.ceil(math.log2(pairs)) + 1
    return total


@pytest.mark.parametrize("name", STREAMS)
def test_from_bytes_refuses_bytes_after_the_padding(name):
    data = (GOLDEN / name).read_bytes()
    assert WedgeCode.from_bytes(data).to_bytes() == data
    for tail in (b"\x00", b"\xff\xff"):
        with pytest.raises(CorruptionError):
            WedgeCode.from_bytes(data + tail)


def test_from_bytes_refuses_a_version_other_than_the_current_one():
    data = (GOLDEN / "disc64_lam.wdgl").read_bytes()
    assert data[4] == WEDGE_FORMAT_VERSION == 1
    for version in (0, 2, 255):
        with pytest.raises(CorruptionError, match=f"unsupported version {version}"):
            WedgeCode.from_bytes(data[:4] + bytes([version]) + data[5:])


def test_from_bytes_refuses_nonzero_padding():
    flipped = 0
    for name in STREAMS:
        data = (GOLDEN / name).read_bytes()
        pad = 8 * (len(data) - 13) - _record_bits(WedgeCode.from_bytes(data))
        assert 0 <= pad < 8
        for bit in range(pad):
            with pytest.raises(CorruptionError):
                WedgeCode.from_bytes(data[:-1] + bytes([data[-1] | 1 << bit]))
            flipped += 1
    assert flipped == 4  # only disc64_lam.wdgl ends inside a byte


def _one_leaf_stream(field):
    """encode(np.full((8, 8), 0.25), 3, 3, 8, lam=1.0) with its 8-bit
    coefficient field replaced: scale 00, split flag 0, field, 5 pad bits."""
    data = encode(np.full((8, 8), 0.25), 3, 3, 8, lam=1.0).to_bytes()
    assert len(data) == 15
    return data[:13] + (field << 5).to_bytes(2, "big")


def test_from_bytes_refuses_a_coefficient_outside_the_alphabet():
    # at n = 8 the alphabet is |q| <= 65, the field q + 65 in 0..130
    for field, q in ((0, -65), (65, 0), (130, 65)):
        data = _one_leaf_stream(field)
        assert WedgeCode.from_bytes(data).records[0][1] == q
        assert WedgeCode.from_bytes(data).to_bytes() == data
    assert _one_leaf_stream(255)[13:] == bytes.fromhex("1fe0")  # q = 190
    for field in (131, 255):
        with pytest.raises(CorruptionError):
            WedgeCode.from_bytes(_one_leaf_stream(field))


@pytest.mark.parametrize("name", STREAMS)
def test_every_proper_prefix_is_refused(name):
    data = (GOLDEN / name).read_bytes()
    for end in range(len(data)):
        with pytest.raises(CorruptionError):
            WedgeCode.from_bytes(data[:end])


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 5), st.integers(0, 255),
       st.integers(1, 16).map(lambda k: 4 * k) | st.integers(0, 0xFFFF),
       st.integers(0, 3) | st.integers(0, 0xFFFFFFFF), st.binary(max_size=24))
def test_a_hostile_stream_parses_and_decodes_or_raises_a_typed_error(
        J, K, m_cap, count, payload):
    # J <= 5, so no decode allocates more than 32 x 32
    _parse_and_decode(b"WDGL" + struct.pack("<BBBHI", WEDGE_FORMAT_VERSION, J, K,
                                            m_cap, count) + payload)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(STREAMS),
       st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(0, 7)),
                min_size=1, max_size=3))
def test_a_golden_stream_with_flipped_payload_bits_decodes_or_raises_a_typed_error(
        name, flips):
    # most flipped streams parse, so this reaches decode's checks:
    # overlapping squares and degenerate pairs
    data = bytearray((GOLDEN / name).read_bytes())
    for at, bit in flips:
        data[13 + at % (len(data) - 13)] ^= 1 << bit
    _parse_and_decode(bytes(data))


def _parse_and_decode(data):
    """``decode(WedgeCode.from_bytes(data))`` raises nothing but a typed
    error, and a stream that parses packs back to ``data``."""
    try:
        code = WedgeCode.from_bytes(data)
    except FormatError:
        return
    assert code.to_bytes() == data
    try:
        out = decode(code)
    except (FormatError, DegenerateWedgeError):
        return
    assert out.shape == (code.n, code.n)


@pytest.mark.parametrize("m_cap", [0, 6, 34])
def test_from_bytes_refuses_an_invalid_vertex_cap_before_the_records(m_cap):
    data = _one_leaf_stream(65)  # one unsplit leaf, which needs no M_j
    assert WedgeCode.from_bytes(data).m_cap == 8
    with pytest.raises(FormatError):
        WedgeCode.from_bytes(data[:7] + struct.pack("<H", m_cap) + data[9:])


@pytest.mark.parametrize("J,K,m_cap", [(1, 1, 65536), (1, 300, 32), (-1, 0, 32)])
def test_encode_refuses_a_header_it_cannot_write_before_fitting(J, K, m_cap, monkeypatch):
    def scored(*args):
        raise AssertionError("the image was scored before the header check")

    monkeypatch.setattr(wedgelet, "_tiles", scored)
    f = np.full((2, 2), 0.5)
    with pytest.raises(FormatError):
        encode(f, J, K, m_cap)
    with pytest.raises(FormatError):
        encode_to_target(f, J, K, m_cap, 0.1)


def test_a_pixel_scale_above_the_cap_is_refused_without_allocating():
    J = wedgelet._MAX_J + 1
    header = b"WDGL" + struct.pack("<BBBHI", WEDGE_FORMAT_VERSION, J, J, 32, 0)
    with pytest.raises(FormatError):
        WedgeCode.from_bytes(header)
    tracemalloc.start()
    try:
        with pytest.raises(FormatError):
            decode(WedgeCode(J, J, 32, ()))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # n^2 float64 values would take 512 MiB


ALL_STREAMS = sorted(str(p.relative_to(GOLDEN)) for p in GOLDEN.rglob("*.wdgl"))


def _outcome(read, data):
    """What ``read(data)`` returns, or the class of the package error it
    raises."""
    try:
        return read(data)
    except ApproxRateError as exc:
        return type(exc)


def _agrees_with_the_field_by_field_reader(data):
    """``from_bytes`` gives the records ``read_records`` gives, and packs
    them back to ``data``, or both raise the same exception class."""
    want = _outcome(read_records, data)
    assert _outcome(lambda d: WedgeCode.from_bytes(d).records, data) == want
    if isinstance(want, tuple):
        assert WedgeCode.from_bytes(data).to_bytes() == data


@pytest.mark.parametrize("name", ALL_STREAMS)
def test_from_bytes_reads_a_golden_stream_as_the_field_by_field_reader(name):
    _agrees_with_the_field_by_field_reader((GOLDEN / name).read_bytes())


@pytest.mark.parametrize("name", ["disc", "petals", "seeded"])
def test_from_bytes_reads_an_n256_stream_as_the_field_by_field_reader(name):
    code = encode(_image(name, 256), 8, 8, 32, lam=256.0 ** -3)
    _agrees_with_the_field_by_field_reader(code.to_bytes())


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(ALL_STREAMS),
       st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(0, 7)),
                min_size=1, max_size=3))
def test_from_bytes_reads_a_flipped_golden_stream_as_the_field_by_field_reader(
        name, flips):
    data = bytearray((GOLDEN / name).read_bytes())
    for at, bit in flips:
        data[13 + at % (len(data) - 13)] ^= 1 << bit
    _agrees_with_the_field_by_field_reader(bytes(data))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 5), st.integers(0, 255),
       st.integers(1, 16).map(lambda k: 4 * k) | st.integers(0, 0xFFFF),
       st.integers(0, 8) | st.integers(0, 0xFFFFFFFF), st.binary(max_size=24))
def test_from_bytes_reads_a_hostile_stream_as_the_field_by_field_reader(
        J, K, m_cap, count, payload):
    _agrees_with_the_field_by_field_reader(
        b"WDGL" + struct.pack("<BBBHI", WEDGE_FORMAT_VERSION, J, K, m_cap, count) + payload)


def _one_split_stream(idx):
    """A stream at J = 2, K = 0, M_cap = 4 of one split record of scale 0:
    scale 00, split flag 1, a 3-bit index into the C(4, 2) = 6 vertex
    pairs, side 0, the 6-bit field of q = 1 and 3 pad bits."""
    bits = "00" + "1" + format(idx, "03b") + "0" + format(1 + 17, "06b") + "000"
    return b"WDGL" + struct.pack("<BBBHI", WEDGE_FORMAT_VERSION, 2, 0, 4, 1) \
        + int(bits, 2).to_bytes(2, "big")


def test_from_bytes_refuses_an_edgelet_index_beyond_its_pairs():
    data = _one_split_stream(5)
    assert WedgeCode.from_bytes(data).records == read_records(data)
    assert WedgeCode.from_bytes(data).to_bytes() == data
    for idx in (6, 7):
        with pytest.raises(CorruptionError):
            WedgeCode.from_bytes(_one_split_stream(idx))


def test_a_record_count_the_payload_cannot_hold_is_refused_without_allocating():
    # 3 payload bytes hold no record at J = 12 (4 + 1 + 26 bits at least)
    header = b"WDGL" + struct.pack("<BBBHI", WEDGE_FORMAT_VERSION, 12, 12, 32,
                                   0xFFFFFFFF)
    tracemalloc.start()
    try:
        with pytest.raises(CorruptionError):
            WedgeCode.from_bytes(header + bytes(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # a list of 2^32 entries would take 32 GiB


@pytest.mark.parametrize("name", ALL_STREAMS)
def test_decode_and_to_bytes_of_a_stream_build_no_leaf_object(name, monkeypatch):
    calls = Counter()
    for owner, attr in ((wedgelet.Edgelet, "from_local_index"), (wedgelet._Leaves, "of")):
        real = owner.__dict__[attr].__func__
        monkeypatch.setattr(owner, attr, classmethod(
            lambda cls, *args, real=real, attr=attr: calls.update([attr]) or real(cls, *args)))
    data = (GOLDEN / name).read_bytes()
    code = WedgeCode.from_bytes(data)
    decode(code)
    assert code.to_bytes() == data
    assert calls == Counter()
    records = code.records  # each split leaf builds its edgelet once
    assert calls == Counter(from_local_index=sum(leaf.split is not None
                                                 for leaf, _ in records))
    calls.clear()
    assert code.records is records
    assert calls == Counter()


DECODED = [line.split() for line in (GOLDEN / "decoded.sha256").read_text().splitlines()]


@pytest.mark.parametrize("digest,raw", DECODED)
def test_decoded_golden_stream_matches_its_digest(digest, raw, tmp_path):
    code = WedgeCode.from_bytes((GOLDEN / raw).with_suffix(".wdgl").read_bytes())
    write_raw_array(str(tmp_path / "out.raw"), decode(code))
    assert hashlib.sha256((tmp_path / "out.raw").read_bytes()).hexdigest() == digest


def test_every_golden_stream_has_a_decoded_digest():
    assert sorted(str(Path(raw).with_suffix(".wdgl")) for _, raw in DECODED) == ALL_STREAMS
    assert len(ALL_STREAMS) == 7


def _codes_of(name):
    """A golden stream's code from ``from_bytes``, and the code built from
    its records."""
    read = WedgeCode.from_bytes((GOLDEN / name).read_bytes())
    return read, WedgeCode(read.J, read.K, read.m_cap, read.records)


@pytest.mark.parametrize("field", ["J", "K", "m_cap", "records"])
@pytest.mark.parametrize("made", ["from_bytes", "from_records"])
def test_a_wedge_code_refuses_assignment_and_deletion(field, made):
    code = _codes_of("disc64_lam.wdgl")[made == "from_records"]
    before = getattr(code, field)
    with pytest.raises(FrozenInstanceError):
        setattr(code, field, 0)
    with pytest.raises(FrozenInstanceError):
        delattr(code, field)
    assert getattr(code, field) == before


@pytest.mark.parametrize("name", ALL_STREAMS)
def test_a_wedge_code_equals_and_hashes_as_the_code_of_its_records(name):
    read, made = _codes_of(name)
    assert read == made and made == read
    assert hash(read) == hash(made)
    assert read != object() and not (read == object())
    assert read.__eq__(object()) is NotImplemented


def test_a_wedge_code_repr_names_its_header():
    read, made = _codes_of("petals64_lam.wdgl")
    assert repr(read).startswith(
        f"WedgeCode(J={read.J!r}, K={read.K!r}, m_cap={read.m_cap!r}, records=(")
    assert repr(read) == repr(made)
