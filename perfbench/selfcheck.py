"""Fast self-check of the harness: every workload at tiny sizes, in seconds.

For each workload it runs one untimed-loop sample and one traced sample,
gates both, checks that every metric BENCHMARK.json declares is produced,
and then corrupts the payload to check that the gate rejects it.
"""

import json
import os

import numpy as np

import run
from workloads import GateError, _read_snapshot


def _corrupt_snapshot(path):
    _, _, _, amps = _read_snapshot(path)
    with open(path, "rb") as fh:
        raw = bytearray(fh.read())
    flat = amps.reshape(-1)
    i = int(np.argmax(np.abs(flat)))
    bumped = np.array([flat[i] + 1e-6], dtype="<c16").tobytes()
    offset = len(raw) - flat.nbytes + 16 * i
    raw[offset:offset + 16] = bumped
    with open(path, "wb") as fh:
        fh.write(raw)


def _corrupt_csv(path, grid):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    row = np.ravel_multi_index((grid // 2,) * 3, (grid,) * 3) + 1  # k = 0
    fields = lines[row].split(",")
    omega = float(fields[3]) + 1e-6
    fields[3], fields[4] = repr(omega), repr(-omega)
    lines[row] = ",".join(fields)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _corrupt_probe(path):
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    report["family_masses"].append(1.5)
    report["dressed_family"] += 1
    report["converged_unitary"] += 1
    report["trials"] = max(report["trials"], report["converged_unitary"])
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)


def _corrupt(case):
    if "snapshot" in case.files:
        _corrupt_snapshot(case.files["snapshot"])
    elif "csv" in case.files:
        _corrupt_csv(case.files["csv"], case.params["grid"])
    else:
        _corrupt_probe(case.files["report"])


def self_check(workloads, spec):
    problems = []
    declared = {w["name"] for w in spec["workloads"]}
    if declared != set(workloads):
        problems.append(f"BENCHMARK.json workloads {sorted(declared)} != {sorted(workloads)}")
    for name, workload in workloads.items():
        result = run.run_workload(workload, seed=0, seconds=0, trace=True, tiny=True)
        for record in result["samples"]:
            if not record["ok"]:
                problems.append(f"{name}: sample failed: {record.get('error')}")
        for group in ("end_to_end", "per_layer"):
            try:
                run.select(result, spec[group])
            except run.HarnessError as exc:
                problems.append(f"{name}: {exc}")
        if result["values"].get(f"{name}.distinct_payloads", 0) < 1:
            problems.append(f"{name}: no payload digest recorded")
        case = workload.case(os.path.join(run.OUT, "tiny"), 0, tiny=True)
        _corrupt(case)
        try:
            workload.gate(case)
            problems.append(f"{name}: gate accepted a corrupted payload")
        except GateError:
            pass
        print(f"self-check {name}: {len(result['samples'])} samples, "
              f"wall {result['values']['wall_s']:.3f} s, gate ok, corruption rejected")
    for problem in problems:
        print("self-check FAILED: " + problem)
    print("self-check " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0
