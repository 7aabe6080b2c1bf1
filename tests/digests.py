"""Digests of the CLI's outputs on the benchmark's input pools.

    python3 tests/digests.py [--seed N]

For each workload of ``perfbench/workloads.py`` this builds the seed's pool
of graph files in a temporary directory, runs ``srdepth.cli.main`` in this
process on every argument list of the pool, in pool order, and prints one
line ``<workload> <sha256>``.  Two commits that print the same line gave
byte-identical output on every input of that pool.

The argument lists are the benchmark's (``workloads.argv_for``), with each
file named relative to the temporary directory, which is the working
directory while the CLI runs, so no path reaches the output.  Each call
gives a triple (rc, stdout, stderr): rc is ``main``'s return value, or the
code of the ``SystemExit`` it raises; stdout and stderr are everything it
printed to each.  The sha256 is taken over the UTF-8 bytes of one line per
call, ``json.dumps([rc, stdout, stderr]) + "\\n"`` with json's defaults.
Any other exception stops the script.

Not collected by pytest (the file name does not start with ``test_``).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from srdepth import cli  # noqa: E402


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
    return rc, out.getvalue(), err.getvalue()


def workload_digest(workload: str, seed: int) -> str:
    inputs = workloads.make_inputs(workload, seed)
    h = hashlib.sha256()
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        workloads.write_inputs(inputs, Path(tmp))
        os.chdir(tmp)
        try:
            for inp in inputs:
                triple = run(workloads.argv_for(workload, inp, Path()))
                h.update((json.dumps(list(triple)) + "\n").encode())
        finally:
            os.chdir(home)
    return h.hexdigest()


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    seed = p.parse_args(argv).seed
    for workload in workloads.WORKLOADS:
        print(workload, workload_digest(workload, seed), flush=True)


if __name__ == "__main__":
    main()
