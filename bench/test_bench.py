"""Tests of the benchmark itself: the short mode, and each output check
rejecting a corrupted output.  Run with ``python -m pytest bench``."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import oracles  # noqa: E402
import workloads as W  # noqa: E402
from approxrate import nnet, quantizer, wedgelet  # noqa: E402
from tracing import Tracer  # noqa: E402


def test_short_mode_runs_one_checked_op_per_workload():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload",
                           "all", "--short", "--seed", "5"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(lines) == len(W.WORKLOADS)
    for result in lines:
        assert result["correct"] and result["attempted"] == 1
        assert result["failed"] == 0
        assert set(result["metrics"]) == {"setup_s", "ops_per_s", "op_p50_s",
                                          "peak_rss_mb", "bits", "distortion"}
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "bench" / f.name).write_text(f.read_text())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "hamming-cover", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_trace_counts_repeat_and_wrappers_come_off():
    import approxrate
    import run

    original = wedgelet.encode
    counts = []
    for _ in range(2):
        result, error = run.run_workload("wedge-decode", 3, 0.0, 1, short=True)
        assert error is None and result["correct"]
        counts.append({k: v["value"] for k, v in result["metrics"].items()
                       if v["unit"] in ("count", "bit")})
    assert counts[0] == counts[1]
    assert counts[0]["wedgelet.decode.calls"] == 1
    assert wedgelet.encode is original
    tracer = Tracer(approxrate)
    tracer.install()
    tracer.close()
    assert wedgelet.encode is original


def expect_rejection(fn, *args, match):
    with pytest.raises(W.CheckFailed, match=match):
        fn(*args)


# -- wedge-target, at n = 32 so that a fit is quick --------------------------

class SmallTarget(W.WedgeTarget):
    J = K = 5


@pytest.fixture(scope="module")
def target_case():
    wl = SmallTarget(1)
    f = wl.prepare("disc")
    out = wl.op(f)
    wl.check(f, out)
    return wl, f, out


def test_target_rejects_unreached(target_case):
    wl, f, (_, data) = target_case
    expect_rejection(wl.check, f, (False, data), match="did not reach")


def test_target_rejects_truncated_stream(target_case):
    wl, f, (reached, data) = target_case
    expect_rejection(wl.check, f, (reached, data[:-2]), match="does not parse")


def test_target_rejects_length_off_the_format(target_case):
    wl, f, (reached, data) = target_case
    expect_rejection(wl.check, f, (reached, data + b"\0"), match="the format gives")


def test_target_rejects_packing_that_does_not_round_trip(target_case, monkeypatch):
    wl, f, out = target_case
    packed = wedgelet.WedgeCode.to_bytes
    monkeypatch.setattr(wedgelet.WedgeCode, "to_bytes",
                        lambda self: packed(self)[:-1] + b"\x01")
    expect_rejection(wl.check, f, out, match="from_bytes")


def test_target_rejects_error_above_target(target_case):
    wl, f, (reached, _) = target_case
    coarse = wedgelet.encode(f, wl.J, wl.K, wl.M_CAP, lam=1.0).to_bytes()
    expect_rejection(wl.check, f, (reached, coarse), match="RMS error")


def test_target_rejects_flipped_coefficient_bit(target_case):
    wl, f, (reached, data) = target_case
    stream = oracles.read_stream(data)
    # the third bit of the last record's coefficient field: q moves by n^2 / 2,
    # which stays inside the alphabet for the small coefficient of a fine leaf
    bit = stream.payload_bits - oracles.field_width(2 * stream.n ** 2 + 3) + 2
    flipped = bytearray(data)
    flipped[oracles.HEADER_BYTES + bit // 8] ^= 0x80 >> (bit % 8)
    expect_rejection(wl.check, f, (reached, bytes(flipped)), match="RMS error")


# -- wedge-decode, at n = 64 -------------------------------------------------

class SmallDecode(W.WedgeDecode):
    J = K = 6
    LAM = 64.0 ** -3


@pytest.fixture(scope="module")
def decode_case():
    wl = SmallDecode(1)
    prepared = wl.prepare(W.wedge_images(1)[2])
    out = wl.op(prepared)
    wl.check(prepared, out)
    return wl, prepared, out


def test_decode_rejects_perturbed_pixel(decode_case):
    wl, prepared, out = decode_case
    bad = out.copy()
    bad[7, 9] += 1e-9
    expect_rejection(wl.check, prepared, bad, match="differs from the oracle")


def test_decode_rejects_partition_worse_than_a_uniform_level(decode_case):
    wl, (f, data), _ = decode_case
    code = wedgelet.WedgeCode.from_bytes(data)
    negated = wedgelet.WedgeCode(code.J, code.K, code.m_cap,
                                 tuple((leaf, -q) for leaf, q in code.records))
    bad = negated.to_bytes()
    expect_rejection(wl.check, (f, bad), wl.op((f, bad)), match="uniform level")


# -- net-quantize ------------------------------------------------------------

@pytest.fixture(scope="module")
def net_case():
    wl = W.NetQuantize(2)
    item = next(c for c in wl.configs if c[0] == (3, 2, 2.0 ** -6, 0.05))
    out = wl.build_and_quantize(item)
    wl.check_config(item, out)
    return wl, item, out


def _with_weight(net, value):
    step = net.steps[0]
    (r, c, _), *rest = step.edge_weights
    first = nnet.AffineStep(step.in_dim, step.out_dim, [(r, c, value)] + rest,
                            step.node_weights)
    return nnet.Network((first,) + net.steps[1:], net.activation)


def test_net_rejects_missed_l2_target():
    wl = W.NetQuantize(2)
    item = ((4, 3, 2.0 ** -8, 0.05), wl.configs[0][1])
    expect_rejection(wl.check_config, item, wl.build_and_quantize(item),
                     match="L2 error")


def test_net_rejects_wrong_certificate(net_case):
    wl, item, out = net_case
    expect_rejection(wl.check_config, item, dict(out, cert=2 * item[0][2]),
                     match="certificate")


def test_net_rejects_evaluator_off_the_exact_pass(net_case, monkeypatch):
    wl, item, out = net_case
    evaluate = nnet.evaluate_batch
    monkeypatch.setattr(nnet, "evaluate_batch",
                        lambda net, xs: evaluate(net, xs) * (1 + 1e-12))
    expect_rejection(wl.check_config, item, out, match="exact value")


def test_net_rejects_weight_off_the_grid(net_case):
    wl, item, out = net_case
    w = out["qnet"].steps[0].edge_weights[0][2]
    bad = _with_weight(out["qnet"], float(np.nextafter(w, np.inf)))
    expect_rejection(wl.check_config, item, dict(out, qnet=bad), match="not on eta")


def test_net_rejects_range_exponent_too_large(net_case):
    wl, item, out = net_case
    expect_rejection(wl.check_config, item, dict(out, k=out["k"] + 1), match="smallest")


def test_net_rejects_m_too_small(net_case):
    wl, item, out = net_case
    (_, _, _, eta), _ = item
    m = out["m"] - 1
    coarse = quantizer.quantize_weights(out["net"], eta, out["k"], m)
    text = nnet.network_to_json(coarse)
    bad = dict(out, m=m, qnet=coarse, text=text, back=nnet.network_from_json(text))
    expect_rejection(wl.check_config, item, bad, match="sup error")


def test_net_rejects_m_larger_than_needed(net_case):
    wl, item, out = net_case
    (_, _, _, eta), _ = item
    m = out["m"] + 1
    fine = quantizer.quantize_weights(out["net"], eta, out["k"], m)
    text = nnet.network_to_json(fine)
    bad = dict(out, m=m, qnet=fine, text=text, back=nnet.network_from_json(text))
    expect_rejection(wl.check_config, item, bad, match="already meets")


def test_net_rejects_json_round_trip_change(net_case):
    wl, item, out = net_case
    w = out["qnet"].steps[0].edge_weights[0][2]
    expect_rejection(wl.check_config, item, dict(out, back=_with_weight(out["qnet"], -w)),
                     match="round trip")


# -- hamming-cover -------------------------------------------------------------

def test_hamming_accepts_a_true_distortion():
    wl = W.HammingCover(1)
    facts = wl.check(1, 4.3264312744140625)
    assert facts["pair_evals"] == 2 * (1 << 14) * (1 + 15 * 1024)


@pytest.mark.parametrize("value, match", [
    (4.3264312744140625 + 2.0 ** -20, "not an integer"),
    (4.0, "outside"),
    (8.5, "outside"),
])
def test_hamming_rejects_corrupted_distortion(value, match):
    wl = W.HammingCover(1)
    expect_rejection(wl.check, 1, value, match=match)


def test_sphere_covering_bound_small_cases():
    # one codeword: every word at its own distance, mean m/2
    assert oracles.sphere_covering_bound(4, 0) == 2
    # the whole cube as codebook: distance 0
    assert oracles.sphere_covering_bound(3, 3) == 0
    # the repetition code {000, 111} covers {0,1}^3 with mean distance 3/4
    assert oracles.sphere_covering_bound(3, 1) == oracles.Fraction(3, 4)
