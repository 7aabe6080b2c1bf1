"""Record the answers that checks.py compares the default seed against.

    python3 perfbench/record_answers.py

Runs every input in each workload's default-seed pool once through the CLI,
requires the seed-independent checks to pass, and writes answers.json.
Re-record only when the input generator changes: at fixed inputs, a changed
answer is a bug in the program.
"""

from __future__ import annotations

import json
import sys

import workloads
from workloads import DEFAULT_SEED, WORK, WORKLOADS

sys.path.insert(0, str(workloads.ROOT / "src"))

import checks  # noqa: E402
from run import call_cli  # noqa: E402
from srdepth import cli  # noqa: E402


def record(workload: str) -> dict:
    inputs = workloads.make_inputs(workload, DEFAULT_SEED)
    directory = WORK / workload
    workloads.write_inputs(inputs, directory)
    answers = []
    for inp in inputs:
        rc, out, err = call_cli(cli, workloads.argv_for(workload, inp, directory))
        reason = checks.check(workload, inp, rc, out)
        if reason is not None:
            raise SystemExit(f"{workload} {inp.filename()} ({inp.label}): {reason}\n{err}")
        answers.append(checks.answer_of(workload, json.loads(out)))
    return {"inputs_sha256": workloads.digest(inputs), "answers": answers}


def main() -> None:
    # One answer per line, so a re-recording diffs line by line.
    parts = []
    for workload in WORKLOADS:
        entry = record(workload)
        print(f"{workload}: {len(entry['answers'])} answers", flush=True)
        rows = ",\n".join(json.dumps(a, separators=(",", ":")) for a in entry["answers"])
        parts.append(f'"{workload}": {{"inputs_sha256": "{entry["inputs_sha256"]}", "answers": [\n{rows}]}}')
    checks.ANSWERS_PATH.write_text(f'{{"seed": {DEFAULT_SEED}, "workloads": {{\n' + ",\n".join(parts) + "}}\n")


if __name__ == "__main__":
    main()
