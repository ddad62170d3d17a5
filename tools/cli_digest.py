"""Digest of the CLI's output over a fixed list of commands.

Runs every command in `COMMANDS` through `mhstools.cli.main` in this process,
capturing what it writes to stdout, and prints one line per command:

    <sha256 of stdout>  <exit code>  <argv>

The list covers every subcommand and every catalog entry.  Two checkouts
print the same lines exactly when every command gives byte-identical output
and the same exit code, so a refactor is checked with

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
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mhstools.cli import main  # noqa: E402

NAMES = ("abc_minimal", "cylindrical", "exp_x3", "zsq_x3", "example3",
         "w4_1", "w4_2", "w4_3", "w4_4")
H_Z = ("exp_x3", "zsq_x3", "example3")
JSON = ("--format", "json")

COMMANDS = [
    ["catalog"],
    ["catalog", "--json"],
    *(["catalog", "show", n, "--json"] for n in NAMES),
    *(["verify", n, *JSON] for n in NAMES),
    *(["verify", n, "--generator", "random", "--seed", "3", *JSON] for n in NAMES),
    ["verify", "exp_x3", "--domain", "box:-1,1,-1,1,-1,1", "--h", "z^2", *JSON],
    *(["symmetry", n, *JSON] for n in NAMES),
    *(["orbit", n, "--gen", "rot-z", "--n", "4", *JSON] for n in H_Z),
    *(["orbit", n, "--gen", "0.3,-0.2,0;0,0,0.7", "--n", "3", *JSON] for n in H_Z),
    ["orbit", "abc_minimal", "--gen", "trans-x", "--n", "3", *JSON],
    ["gs", "--chart", "translational", "--theta", "(x^2+y^2)/2", "--chi", "2*T",
     "--w3", "1", *JSON],
    ["gs", "--chart", "translational", "--theta", "x*y + y^2", "--chi", "T^2/2",
     "--w3", "sin(T)", *JSON],
    ["gs", "--chart", "axisymmetric", "--theta", "x^2*y", "--chi", "exp(T)",
     "--w3", "1 + T", *JSON],
    ["ggse", *JSON],
    ["composite", *JSON],
    ["composite", "--core", "w4_1", "--shell", "abc_minimal", "--eps", "0.3",
     "--mc-samples", "20000", *JSON],
    ["export", "exp_x3", "--grid", "8", "--format", "csv"],
    ["export", "w4_3", "--grid", "6", *JSON],
    ["export", "composite", "--grid", "8", "--format", "csv"],
    *(["characteristics", n, "--samples", "40", *JSON]
      for n in ("w4_1", "w4_2", "abc_minimal", "cylindrical")),
]


def digest(argv: list[str]) -> tuple[str, int]:
    """sha256 of what `mhstools argv` writes to stdout, and its exit code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return hashlib.sha256(out.getvalue().encode()).hexdigest(), code


if __name__ == "__main__":
    for argv in COMMANDS:
        sha, code = digest(argv)
        print(f"{sha}  {code}  {' '.join(argv)}", flush=True)
