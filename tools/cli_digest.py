"""Digest of the CLI's output over a fixed list of commands.

Runs every command in `COMMANDS` through `mhstools.cli.main` in this process,
capturing what it writes to stdout, to stderr and to its `--out` file, and
prints one line per command:

    <sha256 of stdout>  <sha256 of stderr>  <sha256 of --out file or ->  <exit code>  <argv>

The list covers every subcommand in JSON and in text, every catalog entry,
`export` in text, csv and json, `--out` runs of every subcommand (the word
OUT in an argv stands for a fresh file in a temporary directory) and the
usage errors that exit 2.  Two checkouts print the same lines exactly when
every command gives byte-identical output and the same exit code, so a
refactor is checked with

    python tools/cli_digest.py > after.txt     # in each checkout
    diff before.txt after.txt

The script imports `mhstools` from the `src/` directory next to it.  Run
with `OPENBLAS_NUM_THREADS=1` or without it; the output must not differ.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mhstools.cli import main  # noqa: E402

NAMES = ("abc_minimal", "cylindrical", "exp_x3", "zsq_x3", "example3",
         "w4_1", "w4_2", "w4_3", "w4_4")
H_Z = ("exp_x3", "zsq_x3", "example3")
JSON = ("--format", "json")
OUT = ("--out", "OUT")
GS = (
    ("--chart", "translational", "--theta", "(x^2+y^2)/2", "--chi", "2*T", "--w3", "1"),
    ("--chart", "translational", "--theta", "x*y + y^2", "--chi", "T^2/2",
     "--w3", "sin(T)"),
    ("--chart", "axisymmetric", "--theta", "x^2*y", "--chi", "exp(T)", "--w3", "1 + T"),
)
SMALL_MC = ("--mc-samples", "20000")

COMMANDS = [
    # every subcommand in JSON
    ["catalog", "--json"],
    *(["catalog", "show", n, "--json"] for n in NAMES),
    *(["verify", n, *JSON] for n in NAMES),
    *(["verify", n, "--generator", "random", "--seed", "3", *JSON] for n in NAMES),
    ["verify", "exp_x3", "--domain", "box:-1,1,-1,1,-1,1", "--h", "z^2", *JSON],
    *(["symmetry", n, *JSON] for n in NAMES),
    *(["orbit", n, "--gen", "rot-z", "--n", "4", *JSON] for n in H_Z),
    *(["orbit", n, "--gen", "0.3,-0.2,0;0,0,0.7", "--n", "3", *JSON] for n in H_Z),
    ["orbit", "abc_minimal", "--gen", "trans-x", "--n", "3", *JSON],
    *(["gs", *g, *JSON] for g in GS),
    ["ggse", *JSON],
    ["composite", *JSON],
    ["composite", "--core", "w4_1", "--shell", "abc_minimal", "--eps", "0.3",
     *SMALL_MC, *JSON],
    *(["characteristics", n, "--samples", "40", *JSON]
      for n in ("w4_1", "w4_2", "abc_minimal", "cylindrical")),
    # every subcommand in text
    ["catalog"],
    *(["catalog", "show", n] for n in NAMES),
    *(["verify", n] for n in NAMES),
    ["verify", "exp_x3", "--domain", "box:-1,1,-1,1,-1,1", "--h", "z^2"],
    *(["symmetry", n] for n in NAMES),
    *(["orbit", n, "--gen", "rot-z", "--n", "2"] for n in H_Z),
    *(["gs", *g] for g in GS),
    ["ggse"],
    ["composite", *SMALL_MC],
    *(["characteristics", n, "--samples", "40"]
      for n in ("w4_1", "w4_2", "abc_minimal", "cylindrical")),
    # export in text, csv and json
    ["export", "exp_x3", "--grid", "8", "--format", "csv"],
    ["export", "exp_x3", "--grid", "5"],
    ["export", "w4_3", "--grid", "6", *JSON],
    ["export", "w4_1", "--grid", "4", "--format", "csv"],
    ["export", "composite", "--grid", "8", "--format", "csv"],
    ["export", "composite", "--grid", "5"],
    ["export", "composite", "--grid", "5", *JSON],
    # --out, with and without --format json
    ["catalog", *OUT],
    ["catalog", "--json", *OUT],
    ["catalog", "show", "w4_2", *OUT],
    ["verify", "w4_1", *OUT],
    ["verify", "exp_x3", "--domain", "box:-1,1,-1,1,-1,1", "--h", "z^2", *OUT],
    ["symmetry", "cylindrical", *JSON, *OUT],
    ["orbit", "zsq_x3", "--gen", "rot-z", "--n", "1", *OUT],
    ["gs", *GS[0], *OUT],
    ["ggse", *JSON, *OUT],
    ["composite", *SMALL_MC, *OUT],
    ["characteristics", "w4_2", "--samples", "40", *OUT],
    ["export", "exp_x3", "--grid", "5", *OUT],
    ["export", "w4_1", "--grid", "4", "--format", "csv", *OUT],
    ["export", "w4_3", "--grid", "4", *JSON, *OUT],
    ["export", "composite", "--grid", "5", *OUT],
    # non-finite numbers in a document
    ["orbit", "exp_x3", "--gen", "trans-x", "--n", "1", "--domain", "box:710,711,-1,1,-1,1"],
    ["orbit", "exp_x3", "--gen", "trans-x", "--n", "1", "--domain", "box:710,711,-1,1,-1,1",
     *JSON],
    # usage errors: exit 2
    ["frobnicate"],
    ["catalog", "show", "nope"],
    ["orbit", "exp_x3", "--gen", "trans-z"],
    ["composite", "--mc-samples", "0"],
    ["composite", "--mc-samples", "-5"],
]


def _sha(data: str) -> str:
    return hashlib.sha256(data.encode()).hexdigest()


def digest(argv: list[str]) -> tuple[str, str, str, int]:
    """sha256 of what `mhstools argv` writes to stdout, to stderr and to its
    `--out` file ("-" without one), and its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out"
        run = [str(path) if a == "OUT" else a for a in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(run)
            except Exception as e:  # noqa: BLE001 - an uncaught error is an outcome too
                print(f"uncaught {type(e).__name__}: {e}", file=sys.stderr)
                code = "raised"
        written = _sha(path.read_text()) if path.exists() else "-"
    return _sha(out.getvalue()), _sha(err.getvalue()), written, code


if __name__ == "__main__":
    for argv in COMMANDS:
        sha_out, sha_err, sha_file, code = digest(argv)
        print(f"{sha_out}  {sha_err}  {sha_file}  {code}  {' '.join(argv)}", flush=True)
