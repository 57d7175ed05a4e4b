"""The command line's end-to-end cases, as one table.

Each case is an argv, the exit code it must give, and what it must leave:
the name of the typed error that stderr must start with (and then no file
at its --out or --path), or checks of the files it writes against the
golden files.  The cases of one chain run in order in one fresh directory,
so a later case may read what an earlier one wrote.

``tests/test_cli_cases.py`` runs the table in process through
``approxrate.cli.main``.  Through an installed console script, run

    python tests/cli_cases.py approxrate

which runs every chain in its own temporary directory, prints each
failure, and exits 1 if there is one.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"


def _case(argv, code=0, *checks):
    """argv as a list, with ``{golden}`` standing for the golden directory."""
    return (argv.split(), code, checks)


def _refused(argv, error):
    return (argv.split(), 1, error)


_NET_K2 = "build --target bspline --k 2 --m 3 --eps 0.05 --D 4 --out net.json"
_RASTERS = [(f"disc_n{n}", f"star --kind disc --n {n}") for n in (64, 128, 256)] + [
    (f"{name}_n{n}", f"star --kind petals --delta 0.03125 --xi {xi} --n {n}")
    for n in (64, 128, 256)
    for name, xi in (("ones", "1111111111111111"), ("alternating", "1010101010101010"),
                     ("seed1", "1010110010011001"))] + [
    ("alternating_n256_s8",
     "star --kind petals --delta 0.03125 --xi 1010101010101010 --n 256 --supersample 8")]
_STREAMS = ["disc64_lam", "disc64_eps0.05", "petals64_lam", "petals64_eps0.05",
            "n128/disc_eps0.05", "n128/petals_eps0.05", "n128/seeded_eps0.05"]

# chain name -> its cases
CHAINS = {
    "bspline-rows": [_case("bspline --m 3 --samples 10 --out -")],
    "rates-bspline-net": [_case("rates --experiment bspline-net --out r.csv", 0,
                                ("exists", "r.csv"))],
    # the seed fixes the Hamming greedy's codebooks, so every distortion is pinned
    "rates-hamming-seed3": [_case("rates --experiment hamming --seed 3 --out h.csv", 0,
                                  ("csv3", "h.csv", "hamming_seed3.csv"))],
    # the builder's networks at k = 2 and at k = 1, byte for byte
    "golden-nets": [
        _case(f"build --target bspline --m 3 --eps 0.015625 --D 4 --k {k} --out b{k}.json", 0,
              ("cmp", f"b{k}.json", f"bspline_m3_k{k}.json")) for k in (2, 1)],
    "quantize": [
        _case(_NET_K2),
        _case("quantize --net net.json --eta 0.05 --auto --D 4 --out q.json", 0,
              ("exists", "q.json")),
        # a grid of half-width 0, or whose range eta^-(m+k) lies past the
        # float range, is refused with a typed error and no network
        _refused("quantize --net net.json --eta 0.05 --auto --D 0 --out bad_q.json",
                 "QuantizerError"),
        _refused("quantize --net net.json --eta 0.1 --m 400 --out big.json", "QuantizerError"),
        _refused("quantize --net net.json --eta nan --auto --out nan.json", "QuantizerError"),
    ],
    # the search's float64 screen decides almost nothing on the first net
    # (k = 3) and almost everything on the second (k = 2)
    "golden-quantize": [
        _case("quantize --net {golden}/bspline_m3_k3.json --eta 0.01 --auto --D 4 "
              "--out q3.json", 0, ("cmp", "q3.json", "bspline_m3_k3_eta0.01.json")),
        _case("quantize --net {golden}/bspline_m4_k2.json --eta 0.05 --auto --D 4 "
              "--out q4.json", 0, ("cmp", "q4.json", "bspline_m4_k2_eta0.05.json")),
    ],
    "wedge-petals": [
        _case("star --kind petals --n 64 --out raw --path petals.raw"),
        _case("wedge encode --in petals.raw --target-eps 0.05 --out petals.wdgl", 0,
              ("exists", "petals.wdgl")),
        _refused("wedge encode --in petals.raw --lambda -1 --out bad.wdgl", "RangeError"),
    ],
    # the seven golden streams decode to the images their digests fix
    "golden-decodes": [
        _case(f"wedge decode --in {{golden}}/{s}.wdgl --out {s}.raw", 0,
              ("sha256", f"{s}.raw", "decoded.sha256")) for s in _STREAMS],
    # the disc and three petal vertices rasterize to the bytes their digests
    # fix: all ones, alternating, and the bench's seed-1 vertex
    "golden-rasters": [
        _case(f"{argv} --out raw --path rasters/{name}.raw", 0,
              ("sha256", f"rasters/{name}.raw", "rasters.sha256")) for name, argv in _RASTERS],
    "golden-streams-n64": [
        _case("star --kind petals --n 64 --delta 0.03125 --xi 1010101010101010 "
              "--out raw --path p.raw"),
        _case("wedge encode --in p.raw --target-eps 0.05 --out p.wdgl", 0,
              ("cmp", "p.wdgl", "petals64_eps0.05.wdgl")),
        # the fixed-lambda path, at lambda = 64^-3
        _case("wedge encode --in p.raw --lambda 3.814697265625e-06 --out pl.wdgl", 0,
              ("cmp", "pl.wdgl", "petals64_lam.wdgl")),
    ],
    # five of this image's probes hold a theta / eta of exactly k + 1/2,
    # which the scored thetas round as the projected ones do
    "golden-streams-n128": [
        _case("star --kind petals --n 128 --delta 0.03125 --xi 1010101010101010 "
              "--out raw --path p128.raw"),
        _case("wedge encode --in p128.raw --target-eps 0.05 --out p128.wdgl", 0,
              ("cmp", "p128.wdgl", "n128/petals_eps0.05.wdgl")),
    ],
    # arguments outside their domain, refused up front with a typed error
    "refusals": [
        _refused("build --target bspline --k 2 --m 3 --eps 0.05 --D 0 --out bad.json",
                 "BuilderError"),
        _refused("build --target bspline --k 2 --m 3 --eps 0.05 --D 1e300 --out d.json",
                 "BuilderError"),
        _refused("build --target power --k 2 --L 100000 --eps 0.05 --out l.json",
                 "BuilderError"),
        _refused("build --target relu --k 2 --eps nan --out e.json", "BuilderError"),
        _refused("bspline --m 100000 --out m.csv", "DomainError"),
        _refused("star --kind petals --delta 1e-10 --out raw --path s.raw", "RangeError"),
    ],
}


def _outputs(argv):
    """The files a case names with --out or --path, but not stdout."""
    return [value for flag, value in zip(argv, argv[1:])
            if flag in ("--out", "--path") and value != "-"]


def _digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _listed_digest(path, digests):
    for line in (GOLDEN / digests).read_text().splitlines():
        digest, name = line.split()
        if name == path:
            return digest
    return None


def _check(check):
    """None when a file check holds, else what is wrong."""
    kind, path = check[:2]
    if not Path(path).is_file():
        return f"{path} was not written"
    if kind == "cmp" and Path(path).read_bytes() != (GOLDEN / check[2]).read_bytes():
        return f"{path} differs from golden {check[2]}"
    if kind == "sha256" and _digest(path) != _listed_digest(path, check[2]):
        return f"{path} does not have the digest {check[2]} lists"
    if kind == "csv3":
        got = [",".join(row.split(",")[:3]) for row in Path(path).read_text().splitlines()]
        if got != (GOLDEN / check[2]).read_text().splitlines():
            return f"the first three columns of {path} differ from golden {check[2]}"
    return None


def run_chain(cases, invoke):
    """Run one chain's cases in the working directory through ``invoke``
    (argv -> (exit code, stderr)); returns the failures, one line each."""
    failures = []
    for argv, code, expect in cases:
        argv = [arg.replace("{golden}", str(GOLDEN)) for arg in argv]
        for path in _outputs(argv):
            Path(path).parent.mkdir(parents=True, exist_ok=True)
        rc, err = invoke(argv)
        where = " ".join(argv)
        if rc != code:
            failures.append(f"{where}: exit {rc}, want {code}: {err.strip()}")
        elif isinstance(expect, str):
            if not err.startswith(f"{expect}:"):
                failures.append(f"{where}: stderr {err.strip()!r} is not a {expect}")
            failures += [f"{where}: wrote {path}" for path in _outputs(argv)
                         if Path(path).exists()]
        else:
            failures += [f"{where}: {problem}" for problem in map(_check, expect) if problem]
    return failures


def _script(name):
    def invoke(argv):
        done = subprocess.run([name, *argv], capture_output=True, text=True)
        return done.returncode, done.stderr
    return invoke


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python tests/cli_cases.py CONSOLE_SCRIPT", file=sys.stderr)
        return 2
    failures = []
    start = os.getcwd()
    for chain, cases in CHAINS.items():
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                failures += [f"[{chain}] {line}" for line in run_chain(cases, _script(argv[0]))]
            finally:
                os.chdir(start)
        print(f"{chain}: {len(cases)} cases run")
    print("\n".join(failures) or "every case held")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
