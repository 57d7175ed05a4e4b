import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from approxrate.cartoon import disc_star, rasterize
from approxrate.cli import main, read_raw_array, write_raw_array
from approxrate.exceptions import FormatError
from approxrate.nnet import (
    AffineStep,
    Network,
    evaluate_batch,
    network_from_json,
    network_to_json,
    relu_power,
)
from approxrate.quantizer import measured_sup_error
from approxrate.ratelab import l2_error_pixels
from approxrate.wedgelet import decode, encode


def run(argv):
    return main(argv)


def test_bspline_rows(capsys, tmp_path):
    assert run(["bspline", "--m", "3", "--samples", "10", "--out", "-"]) == 0
    out = capsys.readouterr().out
    rows = [r for r in out.strip().splitlines() if r]
    assert len(rows) == 10
    x, v = rows[3].split(",")
    assert float(v) >= 0.0


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_bspline_without_samples_exits_1(capsys, samples):
    assert run(["bspline", "--m", "3", "--samples", samples, "--out", "-"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("DomainError:")
    assert captured.out == ""


def test_unknown_flag_exits_2(capsys):
    assert run(["bspline", "--m", "3", "--bogus"]) == 2
    assert run(["frobnicate"]) == 2


@pytest.mark.parametrize("D", ["0", "-1", "inf", "nan"])
@pytest.mark.parametrize("target, k", [
    ("plus-power", 2), ("power", 2), ("relu", 2), ("monomial", 2),
    ("bspline", 1), ("bspline", 2),
])
def test_build_with_a_bad_domain_half_width_exits_1(tmp_path, capsys, target, k, D):
    net_path = tmp_path / "net.json"
    rc = run(["build", "--target", target, "--k", str(k), "--m", "3", "--eps", "0.05",
              "--D", D, "--out", str(net_path)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("BuilderError:")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["bspline", "--m", "3"],
    ["build", "--target", "relu", "--eps", "0.1"],
    ["quantize", "--net", "net.json", "--eta", "0.1", "--auto"],
    ["star", "--kind", "disc", "--n", "8", "--out", "raw", "--path", "x.raw"],
    ["wedge", "encode", "--in", "x.raw", "--out", "x.wdgl"],
], ids=lambda argv: argv[0])
def test_seed_is_refused_where_nothing_reads_it(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert run(argv + ["--seed", "1"]) == 2
    assert list(tmp_path.iterdir()) == []


def test_build_writes_net_and_certificate(tmp_path):
    net_path = tmp_path / "net.json"
    cert_path = tmp_path / "cert.json"
    rc = run(["build", "--target", "bspline", "--k", "1", "--m", "2",
              "--eps", "0.01", "--D", "3", "--out", str(net_path),
              "--cert", str(cert_path)])
    assert rc == 0
    net = network_from_json(net_path.read_text())
    assert net.input_dim == 1
    cert = json.loads(cert_path.read_text())
    assert cert["measured_error"] <= 1.05 * cert["claimed_eps"]
    assert cert["connectivity"] <= cert["claimed_connectivity_bound"]


def test_build_logistic_net_meets_its_certificate(tmp_path):
    net_path = tmp_path / "net.json"
    cert_path = tmp_path / "cert.json"
    rc = run(["build", "--target", "relu", "--k", "2", "--activation",
              "logistic_power", "--eps", "0.2", "--out", str(net_path),
              "--cert", str(cert_path)])
    assert rc == 0
    cert = json.loads(cert_path.read_text())
    assert cert["measured_error"] <= cert["claimed_eps"]


def test_quantize_roundtrip(tmp_path):
    net_path = tmp_path / "net.json"
    run(["build", "--target", "relu", "--k", "2", "--eps", "0.05",
         "--D", "1", "--out", str(net_path)])
    q_path = tmp_path / "q.json"
    rc = run(["quantize", "--net", str(net_path), "--eta", "0.1", "--auto",
              "--D", "1", "--out", str(q_path)])
    assert rc == 0
    report = json.loads((tmp_path / "q.json.report.json").read_text())
    assert report["measured_sup_error"] <= report["eta"]
    assert report["total_bits"] == report["bits_per_weight"] * report["connectivity"]


def test_quantize_auto_reports_the_error_of_its_own_search(tmp_path):
    golden = Path(__file__).parent / "golden"
    net = network_from_json((golden / "bspline_m3_k2.json").read_text())
    q_path = tmp_path / "q.json"
    rc = run(["quantize", "--net", str(golden / "bspline_m3_k2.json"), "--eta", "0.01",
              "--auto", "--D", "4", "--out", str(q_path)])
    assert rc == 0
    assert q_path.read_text() == (golden / "bspline_m3_k2_eta0.01.json").read_text()
    report = json.loads((tmp_path / "q.json.report.json").read_text())
    qnet = network_from_json(q_path.read_text())
    assert report["measured_sup_error"] == measured_sup_error(qnet, net, 4.0)
    assert report["measured_sup_error"] <= report["eta"]


def test_star_raw_output(tmp_path):
    path = tmp_path / "disc.raw"
    rc = run(["star", "--kind", "disc", "--n", "64", "--out", "raw",
              "--path", str(path)])
    assert rc == 0
    arr = read_raw_array(str(path))
    assert arr.shape == (64, 64)
    assert arr.mean() == pytest.approx(np.pi / 16, abs=5e-3)


def test_star_pgm_output(tmp_path):
    path = tmp_path / "disc.pgm"
    rc = run(["star", "--kind", "petals", "--delta", "0.0625", "--n", "64",
              "--out", "pgm", "--path", str(path)])
    assert rc == 0
    data = path.read_bytes()
    assert data.startswith(b"P5\n64 64\n255\n")
    assert len(data) == len(b"P5\n64 64\n255\n") + 64 * 64


def test_wedge_encode_decode_roundtrip(tmp_path):
    raw = tmp_path / "disc.raw"
    run(["star", "--kind", "disc", "--n", "64", "--out", "raw",
         "--path", str(raw)])
    wdgl = tmp_path / "disc.wdgl"
    rc = run(["wedge", "encode", "--in", str(raw), "--J", "6", "--K", "6",
              "--Mcap", "32", "--target-eps", "0.05", "--out", str(wdgl)])
    assert rc == 0
    out = tmp_path / "rec.raw"
    assert run(["wedge", "decode", "--in", str(wdgl), "--out", str(out)]) == 0
    f = read_raw_array(str(raw))
    rec = read_raw_array(str(out))
    assert float(np.sqrt(np.mean((f - rec) ** 2))) <= 0.05


def test_wedge_unreachable_target_exits_1(tmp_path):
    raw = tmp_path / "disc.raw"
    run(["star", "--kind", "disc", "--n", "32", "--out", "raw",
         "--path", str(raw)])
    rc = run(["wedge", "encode", "--in", str(raw), "--J", "5", "--K", "5",
              "--Mcap", "16", "--target-eps", "1e-9",
              "--out", str(tmp_path / "x.wdgl")])
    assert rc == 1


def test_star_xi_length_mismatch_exits_1(tmp_path):
    rc = run(["star", "--kind", "petals", "--delta", "0.0625", "--xi", "101",
              "--n", "32", "--out", "raw", "--path", str(tmp_path / "x.raw")])
    assert rc == 1


def test_star_xi_with_a_character_other_than_0_or_1_exits_1(tmp_path, capsys):
    # ten characters for the ten petals at this delta
    rc = run(["star", "--kind", "petals", "--delta", "0.0625", "--xi", "12ab0x1010",
              "--n", "32", "--out", "raw", "--path", str(tmp_path / "x.raw")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("DomainError:")
    assert not (tmp_path / "x.raw").exists()


def test_rates_csv(tmp_path):
    out = tmp_path / "report.csv"
    rc = run(["rates", "--experiment", "quantize", "--out", str(out)])
    assert rc == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "knob,size_bits_or_connectivity,error,runtime_ms"
    assert len(rows) == 5


def test_rates_wedge_disc_rows_match_a_direct_encode(tmp_path):
    out = tmp_path / "wedge.csv"
    assert run(["rates", "--experiment", "wedge-disc", "--out", str(out)]) == 0
    rows = [row.split(",") for row in out.read_text().strip().splitlines()[1:]]
    assert [int(row[0]) for row in rows] == [32, 64, 128, 256]
    bits = [int(row[1]) for row in rows]
    errs = [float(row[2]) for row in rows]
    assert all(a < b for a, b in zip(bits, bits[1:]))
    assert all(a > b for a, b in zip(errs, errs[1:]))
    for J, row_bits, row_err in zip((5, 6), bits, errs):
        n = 1 << J
        arr = rasterize(disc_star(), n, 4)
        code = encode(arr, J, J, 32, lam=n ** -3.0)
        assert row_bits == code.bit_length
        assert row_err == l2_error_pixels(decode(code), arr)


def _two_input_net():
    return Network((AffineStep(2, 2, ((0, 0, 0.5), (0, 1, -0.75), (1, 1, 1.25)),
                               ((1, 0.25),)),
                    AffineStep(2, 1, ((0, 0, 1.5), (0, 1, -0.5)), ((0, 0.125),))),
                   relu_power(2))


@pytest.mark.parametrize("how", [["--m", "2"], ["--auto"]])
def test_quantize_measures_a_two_input_net_on_its_full_grid(tmp_path, how):
    net_path = tmp_path / "d2.json"
    net_path.write_text(network_to_json(_two_input_net()))
    q_path = tmp_path / "q.json"
    rc = run(["quantize", "--net", str(net_path), "--eta", "0.1", *how,
              "--D", "1", "--out", str(q_path)])
    assert rc == 0
    report = json.loads((tmp_path / "q.json.report.json").read_text())
    axis = np.linspace(-1.0, 1.0, 100)
    xs = np.stack([g.ravel() for g in np.meshgrid(axis, axis)])
    qnet = network_from_json(q_path.read_text())
    ref = evaluate_batch(_two_input_net(), xs)
    direct = np.max(np.abs(evaluate_batch(qnet, xs) - ref))
    assert report["measured_sup_error"] == float(direct)
    if how == ["--auto"]:
        assert report["measured_sup_error"] <= report["eta"]


def test_manifest_written(tmp_path):
    man = tmp_path / "man.json"
    run(["bspline", "--m", "2", "--samples", "5",
         "--out", str(tmp_path / "b.csv"), "--manifest", str(man)])
    doc = json.loads(man.read_text())
    assert doc["command"] == "bspline"
    assert doc["config"]["m"] == 2
    assert "versions" in doc


def test_reruns_byte_identical(tmp_path):
    a, b = tmp_path / "a.raw", tmp_path / "b.raw"
    for path in (a, b):
        run(["star", "--kind", "petals", "--delta", "0.0625", "--n", "32",
             "--out", "raw", "--path", str(path)])
    assert a.read_bytes() == b.read_bytes()


def test_raw_array_helpers(tmp_path):
    arr = np.arange(12.0).reshape(3, 4)
    path = tmp_path / "x.raw"
    write_raw_array(str(path), arr)
    assert np.array_equal(read_raw_array(str(path)), arr)


@pytest.mark.parametrize("cut", [1000, 1001, 5])
def test_wedge_encode_truncated_raw_exits_1(tmp_path, capsys, cut):
    raw = tmp_path / "disc.raw"
    run(["star", "--kind", "disc", "--n", "64", "--out", "raw",
         "--path", str(raw)])
    raw.write_bytes(raw.read_bytes()[:cut])
    rc = run(["wedge", "encode", "--in", str(raw), "--lambda", "0.001",
              "--out", str(tmp_path / "x.wdgl")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("FormatError:")


def test_wedge_encode_nan_raw_exits_1(tmp_path, capsys):
    arr = np.full((16, 16), 0.5)
    arr[3, 7] = np.nan
    raw = tmp_path / "nan.raw"
    write_raw_array(str(raw), arr)
    rc = run(["wedge", "encode", "--in", str(raw), "--lambda", "0.001",
              "--out", str(tmp_path / "x.wdgl")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("DomainError:")


@pytest.mark.parametrize("flag", ["--target-eps", "--lambda"])
def test_wedge_encode_nan_knob_exits_1(tmp_path, capsys, flag):
    raw = tmp_path / "flat.raw"
    write_raw_array(str(raw), np.full((16, 16), 0.5))
    rc = run(["wedge", "encode", "--in", str(raw), flag, "nan",
              "--out", str(tmp_path / "x.wdgl")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("DomainError:")


@pytest.mark.parametrize("flag,knob", [("--lambda", "0.001"), ("--target-eps", "0.05")])
@pytest.mark.parametrize("shape,expect", [((0, 0), "1x1"), ((0, 5), "1x1"), ((48, 48), "32x32")])
def test_wedge_encode_of_a_misshapen_raw_exits_1(tmp_path, capsys, flag, knob, shape, expect):
    raw = tmp_path / "odd.raw"
    write_raw_array(str(raw), np.zeros(shape))
    rc = run(["wedge", "encode", "--in", str(raw), flag, knob, "--out", str(tmp_path / "x.wdgl")])
    assert rc == 1
    assert capsys.readouterr().err == \
        f"InputShapeError: expected a {expect} array, got {shape}\n"


def test_threads_flag_is_gone():
    assert run(["bspline", "--m", "3", "--samples", "4", "--threads", "2"]) == 2


def _small_network_doc():
    return json.loads(network_to_json(Network(
        (AffineStep(1, 1, ((0, 0, 1.0),)), AffineStep(1, 1, ((0, 0, 2.0),))),
        relu_power(1))))


def _hostile_network(path, token):
    """A valid two-layer document with the field at ``path`` written as the
    raw JSON ``token``."""
    doc = _small_network_doc()
    field = doc
    for key in path[:-1]:
        field = field[key]
    field[path[-1]] = "@"
    return json.dumps(doc).replace('"@"', token)


@pytest.mark.parametrize("text", [
    pytest.param(_hostile_network(("steps", 0, "edges", 0, 2), str(10 ** 400)),
                 id="weight-401-digits"),
    pytest.param(_hostile_network(("steps", 0, "edges", 0, 0), "Infinity"),
                 id="row-infinity"),
    pytest.param(_hostile_network(("steps", 0, "nodes"), f"[[0, {10 ** 400}]]"),
                 id="bias-401-digits"),
    pytest.param(_hostile_network(("activation", "k"), "1e400"), id="k-1e400"),
    pytest.param(_hostile_network(("steps", 0, "in"), "1e400"), id="in-1e400"),
    pytest.param(_hostile_network(("d",), "1e400"), id="d-1e400"),
    pytest.param(_hostile_network(("L",), "1e400"), id="L-1e400"),
    pytest.param(_hostile_network(("d",), '"x"'), id="d-string"),
    pytest.param(_hostile_network(("L",), "NaN"), id="L-nan"),
    # beyond the interpreter's integer-string limit, and nested past its
    # recursion limit
    pytest.param("1" * 5000, id="int-5000-digits"),
    pytest.param("[" * 100_000, id="deep-nesting"),
    pytest.param(b"\xff\xfe\x00{}", id="not-utf8"),
])
def test_a_hostile_network_document_is_refused_with_format_error(tmp_path, capsys, text):
    with pytest.raises(FormatError):
        network_from_json(text)
    bad = tmp_path / "bad.json"
    bad.write_bytes(text if isinstance(text, bytes) else text.encode())
    rc = run(["quantize", "--net", str(bad), "--eta", "0.1", "--m", "2",
              "--out", str(tmp_path / "q.json")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("FormatError:")


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("D", ["0", "-1", "inf", "nan"])
@pytest.mark.parametrize("how", [["--auto"], ["--m", "3"]])
def test_quantize_with_a_bad_domain_half_width_exits_1(tmp_path, capsys, how, D):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before numpy sees the grid
        rc = run(["quantize", "--net", str(GOLDEN / "bspline_m3_k2.json"), "--eta", "0.1",
                  *how, "--D", D, "--out", str(tmp_path / "q.json")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("QuantizerError:")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("how", [
    ["--eta", "0.1", "--m", "400"],
    ["--eta", "0.1", "--k", "100000", "--m", "2"],
    ["--eta", "1e-300", "--m", "2"],
    ["--eta", "1e-200", "--auto"],
])
def test_quantize_past_the_float_range_exits_1(tmp_path, capsys, how):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before numpy divides by a step of 0
        rc = run(["quantize", "--net", str(GOLDEN / "bspline_m3_k2.json"), *how,
                  "--out", str(tmp_path / "q.json")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("QuantizerError:")
    assert list(tmp_path.iterdir()) == []


def _edited_network(edit):
    doc = _small_network_doc()
    edit(doc)
    return json.dumps(doc)


@pytest.mark.parametrize("how", [["--auto"], ["--m", "2"]])
@pytest.mark.parametrize("text, error", [
    pytest.param(_edited_network(lambda d: d.update(steps=d["steps"][:1], L=1)),
                 "CompositionError", id="one-step"),
    pytest.param(_edited_network(lambda d: d.update(L=3)), "FormatError", id="L-disagrees"),
    pytest.param(_edited_network(lambda d: d["steps"][0].update(nodes=[[1, 0.5]])),
                 "InputShapeError", id="node-row-at-out"),
    pytest.param(_hostile_network(("steps", 0, "edges", 0, 2), "Infinity"),
                 "FormatError", id="weight-infinity"),
    pytest.param(network_to_json(Network(
        (AffineStep(3, 1, ((0, 0, 1.0), (0, 2, -0.5))), AffineStep(1, 1, ((0, 0, 2.0),))),
        relu_power(2))), "QuantizerError", id="three-inputs"),
])
def test_quantize_refuses_a_network_it_cannot_take(tmp_path, capsys, text, error, how):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    rc = run(["quantize", "--net", str(bad), "--eta", "0.1", *how,
              "--out", str(tmp_path / "q.json")])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"{error}:")
    assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]


@pytest.mark.parametrize("argv, error", [
    (["quantize", "--net", "net.json", "--eta", "0.1", "--m", "0"], "QuantizerError"),
    (["quantize", "--net", "net.json", "--eta", "0.1", "--k", "0", "--auto"], "QuantizerError"),
    (["wedge", "encode", "--in", "x.raw", "--lambda", "-1"], "RangeError"),
    (["build", "--target", "power", "--k", "2", "--L", "0", "--eps", "0.05"], "BuilderError"),
    (["build", "--target", "bspline", "--k", "2", "--m", "1", "--eps", "0.05"], "BuilderError"),
    (["build", "--target", "monomial", "--k", "2", "--m", "1", "--eps", "0.05"], "BuilderError"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_a_knob_out_of_its_domain_exits_1_and_writes_nothing(
        tmp_path, monkeypatch, capsys, argv, error):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "net.json").write_text(json.dumps(_small_network_doc()))
    write_raw_array("x.raw", rasterize(disc_star(), 16, 4))
    assert run(argv + ["--out", "out"]) == 1
    assert capsys.readouterr().err.startswith(f"{error}:")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["net.json", "x.raw"]


@pytest.mark.parametrize("knobs, error", [
    (["--kind", "petals", "--delta", "1e-300"], "RangeError"),
    (["--kind", "petals", "--C", "inf"], "DomainError"),
    (["--kind", "disc", "--beta", "nan"], "DomainError"),
    (["--kind", "disc", "--C", "inf"], "DomainError"),
    (["--kind", "disc", "--supersample", "65"], "FormatError"),
])
def test_star_outside_its_domain_exits_1(tmp_path, capsys, knobs, error):
    rc = run(["star", *knobs, "--n", "16", "--out", "raw", "--path", str(tmp_path / "x.raw")])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"{error}:")
    assert not (tmp_path / "x.raw").exists()
