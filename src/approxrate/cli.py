"""The ``approxrate`` command line front end.

Every run is reproducible: the sampled inputs of ``rates`` are fixed by
--seed, floats print with 17 significant digits, and --manifest records
the full configuration of the invocation.  Domain failures exit with code 1 and the error name;
argument errors exit with code 2.
"""

from __future__ import annotations

import argparse
import json
import struct
import sys
import time

import numpy as np

from . import __version__, cartoon, constructors, nnet, quantizer, ratelab, wedgelet
from .exceptions import ApproxRateError, DomainError, FormatError
from .splines import bspline_closed

FORMAT_VERSIONS = {
    "package": __version__,
    "network_json": nnet.NETWORK_FORMAT_VERSION,
    "wedge_stream": wedgelet.WEDGE_FORMAT_VERSION,
}


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_text(path: str, text: str):
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _write_bytes(path: str, data: bytes):
    if path == "-":
        sys.stdout.buffer.write(data)
    else:
        with open(path, "wb") as fh:
            fh.write(data)


def write_raw_array(path: str, arr: np.ndarray):
    """Two little-endian uint32 dims, then row-major float64 values."""
    header = struct.pack("<II", arr.shape[0], arr.shape[1])
    _write_bytes(path, header + arr.astype("<f8").tobytes())


def read_raw_array(path: str) -> np.ndarray:
    """Inverse of ``write_raw_array``; a short or long file is a FormatError."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 8:
        raise FormatError(f"raw file has {len(data)} bytes, less than its header")
    rows, cols = struct.unpack("<II", data[:8])
    if len(data) - 8 != 8 * rows * cols:
        raise FormatError(f"raw payload has {len(data) - 8} bytes, "
                          f"a {rows}x{cols} array needs {8 * rows * cols}")
    arr = np.frombuffer(data[8:], dtype="<f8")
    return arr.reshape(rows, cols).copy()


def write_pgm(path: str, arr: np.ndarray):
    """Binary P5, maxval 255, values scaled from [0, 1]; top row first."""
    scaled = np.clip(np.round(arr * 255.0), 0, 255).astype(np.uint8)
    header = f"P5\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode()
    _write_bytes(path, header + scaled[::-1].tobytes())


def _add_common(p):
    p.add_argument("--manifest", default=None,
                   help="write a JSON record of this invocation")


def _parser():
    top = argparse.ArgumentParser(
        prog="approxrate",
        description="Sparse-network approximants, wedgelet coding, rate experiments")
    top.add_argument("--version", action="version",
                     version=json.dumps(FORMAT_VERSIONS))
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bspline", help="sample a B-spline basis function")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--samples", type=int, default=256)
    p.add_argument("--out", default="-")
    _add_common(p)

    p = sub.add_parser("build", help="emit a constructed network + certificate")
    p.add_argument("--target", required=True,
                   choices=["plus-power", "power", "relu", "monomial", "bspline"])
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--L", type=int, default=1)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--D", type=float, default=1.0)
    p.add_argument("--activation", default="relu_power",
                   choices=["relu_power", "logistic_power"])
    p.add_argument("--out", default="net.json")
    p.add_argument("--cert", default=None, help="default: <out>.cert.json")
    _add_common(p)

    p = sub.add_parser("quantize", help="discretize a network's weights")
    p.add_argument("--net", required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--k", type=int, default=None,
                   help="weight-range exponent; default: smallest admissible")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--m", type=int, default=None)
    group.add_argument("--auto", action="store_true",
                       help="search for the smallest workable m")
    p.add_argument("--D", type=float, default=1.0)
    p.add_argument("--out", default="quantized.json")
    p.add_argument("--report", default=None, help="default: <out>.report.json")
    _add_common(p)

    p = sub.add_parser("star", help="rasterize a cartoon star function")
    p.add_argument("--kind", required=True, choices=["disc", "petals"])
    p.add_argument("--delta", type=float, default=0.0625)
    p.add_argument("--beta", type=float, default=2.0)
    p.add_argument("--C", type=float, default=1.0)
    p.add_argument("--xi", default=None,
                   help="petal bit string; default: all ones")
    p.add_argument("--n", type=int, default=256)
    p.add_argument("--supersample", type=int, default=4)
    p.add_argument("--out", required=True, choices=["pgm", "raw"])
    p.add_argument("--path", required=True)
    _add_common(p)

    p = sub.add_parser("wedge", help="wedgelet encode/decode")
    p.add_argument("mode", choices=["encode", "decode"])
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--J", type=int, default=None)
    p.add_argument("--K", type=int, default=None)
    p.add_argument("--Mcap", type=int, default=wedgelet.DEFAULT_M_CAP)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--lambda", dest="lam", type=float, default=None)
    group.add_argument("--target-eps", dest="target_eps", type=float, default=None)
    _add_common(p)

    p = sub.add_parser("rates", help="run a rate experiment, write CSV")
    p.add_argument("--experiment", required=True,
                   choices=["bspline-net", "quantize", "wedge-disc",
                            "wedge-petals", "hamming"])
    p.add_argument("--out", default="-")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the wedge-petals vertices and the hamming codebooks")
    _add_common(p)
    return top


def _certificate(report, norm, target):
    net = report.network
    if norm == "sup":
        measured = ratelab.sup_error_on_grid(net, target,
                                             -report.domain_half_width,
                                             report.domain_half_width)
    else:
        measured = ratelab.l2_error_quad(net, target,
                                         -report.domain_half_width,
                                         report.domain_half_width)
    return {
        "claimed_eps": float(report.epsilon),
        "measured_error": float(measured),
        "norm": norm,
        "claimed_depth": report.claimed_depth,
        "claimed_connectivity_bound": report.claimed_connectivity_bound,
        "connectivity": nnet.connectivity(net),
        "max_abs_weight": net.max_abs_weight(),
        "internal_constants": {k: v for k, v in report.internal_constants},
    }


def _run_build(args):
    spec = (nnet.relu_power(args.k) if args.activation == "relu_power"
            else nnet.logistic_power(args.k))
    k, L, m = args.k, args.L, args.m
    if args.target == "plus-power":
        rep = constructors.build_plus_power(L, args.eps, args.D, spec)
        cert = _certificate(rep, "sup", lambda x: max(x, 0.0) ** (k ** L))
    elif args.target == "power":
        rep = constructors.build_power(L, args.eps, args.D, spec)
        cert = _certificate(rep, "sup", lambda x: x ** (k ** L))
    elif args.target == "relu":
        rep = constructors.build_relu(args.eps, args.D, spec)
        cert = _certificate(rep, "sup", lambda x: max(x, 0.0))
    elif args.target == "monomial":
        rep = constructors.build_plus_monomial(m, args.eps, args.D, spec)
        cert = _certificate(rep, "sup", lambda x: max(x, 0.0) ** (m - 1))
    else:
        rep = constructors.build_bspline_net(m, args.eps, args.D, spec)
        cert = _certificate(rep, "l2", lambda x: bspline_closed(m, x))
    _write_text(args.out, nnet.network_to_json(rep.network))
    cert_path = args.cert or (args.out + ".cert.json")
    _write_text(cert_path, json.dumps(cert, indent=1, default=float))
    return 0


def _run_bspline(args):
    if args.samples < 1:
        raise DomainError(f"--samples must be at least 1, got {args.samples}")
    xs = np.linspace(0.0, float(args.m), args.samples)
    rows = [f"{_fmt(x)},{_fmt(bspline_closed(args.m, x))}" for x in xs]
    _write_text(args.out, "\n".join(rows) + "\n")
    return 0


def _quantized(net, eta, k, m, D):
    """(quantized net, report) at exponent m, or at find_min_m's m when m is
    None; k None is the smallest admissible exponent."""
    if k is None:
        k = quantizer.weight_range_exponent(net, eta)
    if m is None:
        m, err = quantizer._search_min_m(net, eta, k, D)
        qnet = quantizer.quantize_weights(net, eta, k, m)
    else:
        qnet = quantizer.quantize_weights(net, eta, k, m)
        err = quantizer.measured_sup_error(qnet, net, D)
    bits = quantizer.bits_per_weight(eta, k, m)
    return qnet, {
        "eta": eta,
        "k": k,
        "m": m,
        "bits_per_weight": bits,
        "total_bits": bits * nnet.connectivity(qnet),
        "connectivity": nnet.connectivity(qnet),
        "measured_sup_error": err,
    }


def _run_quantize(args):
    with open(args.net, "rb") as fh:  # the parser refuses bytes that are not UTF-8
        net = nnet.network_from_json(fh.read())
    qnet, report = _quantized(net, args.eta, args.k, args.m, args.D)
    _write_text(args.out, nnet.network_to_json(qnet))
    _write_text(args.report or (args.out + ".report.json"),
                json.dumps(report, indent=1, default=float))
    return 0


def _run_star(args):
    if args.kind == "disc":
        star = cartoon.disc_star(beta=args.beta, holder_C=args.C)
    else:
        spec = cartoon.make_hypercube(args.delta, args.beta, args.C)
        if args.xi is not None and set(args.xi) - {"0", "1"}:
            raise DomainError(f"xi {args.xi!r} holds a character other than 0 or 1")
        xi = [1] * spec.m if args.xi is None else [int(ch) for ch in args.xi]
        if len(xi) != spec.m:
            raise ApproxRateError(
                f"xi has {len(xi)} bits but the hypercube dimension is {spec.m}")
        star = cartoon.vertex_function(spec, xi)
    arr = cartoon.rasterize(star, args.n, args.supersample)
    if args.out == "pgm":
        write_pgm(args.path, arr)
    else:
        write_raw_array(args.path, arr)
    return 0


def _run_wedge(args):
    if args.mode == "encode":
        arr = read_raw_array(args.inp)
        n = arr.shape[0]
        J = args.J if args.J is not None else max(n.bit_length() - 1, 0)
        K = args.K if args.K is not None else J
        if args.target_eps is not None:
            code, err, reached = wedgelet.encode_to_target(
                arr, J, K, args.Mcap, args.target_eps)
            if not reached:
                raise ApproxRateError(
                    f"target eps {args.target_eps:g} unreachable; "
                    f"best {err:g}")
        else:
            code = wedgelet.encode(arr, J, K, args.Mcap,
                                   args.lam if args.lam is not None else 0.0)
        _write_bytes(args.out, code.to_bytes())
    else:
        with open(args.inp, "rb") as fh:
            code = wedgelet.WedgeCode.from_bytes(fh.read())
        write_raw_array(args.out, wedgelet.decode(code))
    return 0


def _run_rates(args):
    rows = [("knob", "size_bits_or_connectivity", "error", "runtime_ms")]
    if args.experiment == "bspline-net":
        spec = nnet.relu_power(2)
        for eps in [2.0 ** -i for i in range(1, 7)]:
            t0 = time.perf_counter()
            rep = constructors.build_bspline_net(3, eps, 4.0, spec)
            cert = _certificate(rep, "l2", lambda x: bspline_closed(3, x))
            rows.append((eps, cert["connectivity"], cert["measured_error"],
                         1000 * (time.perf_counter() - t0)))
    elif args.experiment == "quantize":
        spec = nnet.relu_power(2)
        rep = constructors.build_bspline_net(3, 0.05, 4.0, spec)
        for eta in (0.25, 0.1, 0.05, 0.01):
            t0 = time.perf_counter()
            _, report = _quantized(rep.network, eta, None, None, 4.0)
            rows.append((eta, report["total_bits"], report["measured_sup_error"],
                         1000 * (time.perf_counter() - t0)))
    elif args.experiment in ("wedge-disc", "wedge-petals"):
        if args.experiment == "wedge-disc":
            stars = [cartoon.disc_star()]
        else:
            spec = cartoon.make_hypercube(2.0 ** -5, 2.0, 1.0)
            rng = np.random.default_rng(args.seed)
            stars = [cartoon.vertex_function(
                spec, rng.integers(0, 2, spec.m)) for _ in range(3)]
        for J in (5, 6, 7, 8):
            n = 1 << J
            t0 = time.perf_counter()
            worst_err, bits = 0.0, 0
            for star in stars:
                arr = cartoon.rasterize(star, n, 4)
                code = wedgelet.encode(arr, J, J, wedgelet.DEFAULT_M_CAP,
                                       lam=float(n) ** -3.0)
                err = ratelab.l2_error_pixels(wedgelet.decode(code), arr)
                worst_err = max(worst_err, err)
                bits = max(bits, code.bit_length)
            rows.append((n, bits, worst_err, 1000 * (time.perf_counter() - t0)))
    else:
        for mm in (8, 12, 16, 20):
            t0 = time.perf_counter()
            d = ratelab.covering_distortion_greedy(mm, mm // 4, restarts=2,
                                                   seed=args.seed)
            rows.append((mm, mm // 4, d, 1000 * (time.perf_counter() - t0)))
    text = "\n".join(",".join(_fmt(v) if isinstance(v, float) else str(v)
                              for v in row) for row in rows) + "\n"
    _write_text(args.out, text)
    return 0


_RUNNERS = {
    "bspline": _run_bspline,
    "build": _run_build,
    "quantize": _run_quantize,
    "star": _run_star,
    "wedge": _run_wedge,
    "rates": _run_rates,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        rc = _RUNNERS[args.command](args)
    except (ApproxRateError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if getattr(args, "manifest", None):
        manifest = {
            "command": args.command,
            "argv": argv,
            "config": {k: v for k, v in vars(args).items() if k != "manifest"},
            "versions": FORMAT_VERSIONS,
        }
        with open(args.manifest, "w") as fh:
            json.dump(manifest, fh, indent=1, default=str)
    return rc


if __name__ == "__main__":
    sys.exit(main())
