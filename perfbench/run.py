#!/usr/bin/env python3
"""qca-lattice benchmark: whole ``qca`` commands, each in a fresh interpreter.

Run from the repository root:

    python3 perfbench/run.py --workload evolve-weyl-records --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20   # every workload
    python3 perfbench/run.py --self-check                          # tiny sizes, seconds

A run is a closed loop with one client: it starts one ``qca.cli.main(argv)``
call in a fresh interpreter, waits for it, and starts the next, until the
samples' total time comes closest to ``--seconds`` (at least three samples).
Every payload is checked by the workload's gate (``workloads.py``); a nonzero
exit, an exception or a failed gate counts the sample as failed.  ``--trace 1``
adds one sample under the span tracer (``tracer.py``) and reports the
per-layer metrics instead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and the metrics named in ``BENCHMARK.json``; the
lines before it are a readable report with units, sample counts and
provenance.  Full results go to ``.bench_build/perfbench/``.
"""

import os

# Fixed before numpy loads, here and in every sample; QCA_THREADS stays unset.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)
os.environ.pop("QCA_THREADS", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_build", "perfbench")
SETUP_SAMPLES = 5  # import-only interpreters per run, besides the timed samples
MIN_SAMPLES = 3
CHILD_TIMEOUT_S = 60  # about ten times the slowest sample; keeps a run under 180 s
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples beyond it


class HarnessError(Exception):
    pass


# ------------------------------------------------------------- samples


def run_child(argv=None, trace=False, spans=None):
    """One fresh interpreter; returns its JSON record plus the process wall time."""
    spec = json.dumps({"argv": argv, "trace": trace, "spans": spans})
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), SRC, spec],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"exit": None, "error": f"timed out after {CHILD_TIMEOUT_S} s",
                "elapsed_s": time.perf_counter() - start}
    elapsed = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"exit": None, "error": f"child exit {proc.returncode}: {proc.stderr[-2000:]}",
                "elapsed_s": elapsed}
    if not record["qca_file"].startswith(SRC + os.sep):
        raise HarnessError(f"qca imported from {record['qca_file']}, not from {SRC}")
    record["elapsed_s"] = elapsed
    if record.get("exit") not in (None, 0) and not record.get("error"):
        record["error"] = f"qca exit {record['exit']}: {proc.stderr.strip()[-2000:]}"
    return record


def payload_digest(case):
    h = hashlib.sha256()
    for key in sorted(case.files):
        with open(case.files[key], "rb") as fh:
            h.update(key.encode() + b"\0" + fh.read())
    return h.hexdigest()


class Gatekeeper:
    """Gates each distinct payload once; identical bytes share the verdict."""

    def __init__(self, workload, case):
        self.workload, self.case = workload, case
        self.verdicts = {}  # digest -> (ok, residuals or message)

    def check(self, record):
        if record.get("exit") != 0 or record.get("error"):
            return False
        try:
            digest = payload_digest(self.case)
        except OSError as exc:
            record["error"] = f"payload missing: {exc}"
            return False
        record["digest"] = digest
        if digest not in self.verdicts:
            try:
                self.verdicts[digest] = (True, self.workload.gate(self.case))
            except Exception as exc:  # any gate failure, including a parse error
                self.verdicts[digest] = (False, f"{type(exc).__name__}: {exc}")
        ok, detail = self.verdicts[digest]
        if not ok:
            record["error"] = f"gate: {detail}"
        return ok

    def residuals(self):
        merged = {}
        for ok, detail in self.verdicts.values():
            if ok:
                for key, value in detail.items():
                    merged[key] = max(merged.get(key, 0.0), value)
        return merged


def _clear(case):
    for path in case.files.values():
        if os.path.exists(path):
            os.remove(path)


def sample(case, gatekeeper, trace=False, spans=None):
    _clear(case)
    record = run_child(case.argv, trace=trace, spans=spans)
    record["ok"] = gatekeeper.check(record)
    return record


# ------------------------------------------------------------- metrics


def tail(values):
    """Highest percentile with at least TAIL_BEYOND samples above it.

    Below 2 * TAIL_BEYOND samples that percentile falls under the median and
    is no tail, so the maximum (p100) is reported instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n >= 2 * TAIL_BEYOND:
        return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n
    return ordered[-1], 100.0


def end_to_end(case, samples, setup_times):
    good = [s for s in samples if s["ok"]]
    walls = [s["main_s"] for s in good] or [float("nan")]
    wall = statistics.median(walls)
    tail_value, tail_pct = tail(walls)
    rss = statistics.median([s["maxrss_kib"] / 1024.0 for s in good] or [float("nan")])
    values = {
        "wall_s": wall,
        "wall_s_tail": tail_value,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mib": rss,
        "throughput": case.work / wall,
    }
    notes = {
        "wall_s": f"median of n={len(good)}",
        "wall_s_tail": (f"p{tail_pct:.0f} of n={len(good)}" if tail_pct < 100 else
                        f"p100 (max) of n={len(good)}: fewer than {2 * TAIL_BEYOND} samples"),
        "setup_s": f"median of n={len(setup_times)} fresh imports",
        "peak_rss_mib": f"median of n={len(good)}",
        "throughput": f"{case.work_unit} = {case.work:.0f} / median wall_s",
    }
    return values, notes


def per_layer(name, trace_record, untraced_wall, gatekeeper, digests):
    summary = trace_record.get("trace") or {"buckets": {}, "counts": {}}
    buckets, counts = summary["buckets"], summary["counts"]

    def b(bucket, key="self_s"):
        return buckets.get(bucket, {}).get(key, 0)

    def calls(name_):
        return sum(counts.get(name_, {}).values())

    residuals = gatekeeper.residuals()
    values = {
        "evolution.mode_build_s": b("evolution.mode_build"),
        "evolution.mode_build.calls": b("evolution.mode_build", "calls"),
        "evolution.mode_build.bytes": b("evolution.mode_build", "bytes"),
        "evolution.fft_s": b("evolution.fft"),
        "evolution.fft.calls": b("evolution.fft", "calls"),
        "evolution.fft.bytes": b("evolution.fft", "bytes"),
        "evolution.mode_apply_s": b("evolution.mode_apply"),
        "evolution.make_packet_s": b("evolution.make_packet"),
        "evolution.make_packet.mode_eigs":
            counts.get("numpy.linalg.eig", {}).get("evolution.make_packet", 0),
        "evolution.observables_s": b("evolution.observables"),
        "evolution.observables.calls": b("evolution.observables", "calls"),
        "serialize.snapshot_s": b("serialize.snapshot"),
        "serialize.snapshot.bytes": b("serialize.snapshot", "bytes"),
        "serialize.report_s": b("serialize.report"),
        "catalog.build_s": b("catalog.build"),
        "catalog.build.calls": b("catalog.build", "calls"),
        "weyl.dispersion_s": b("weyl.dispersion"),
        "weyl.dispersion.calls": b("weyl.dispersion", "calls"),
        "weyl.closed_form.calls": calls("weyl.closed_form"),
        "weyl.weyl_matrix.calls": calls("weyl.weyl_matrix"),
        "cli.self_s": b("cli"),
        "dirac.probe_s": b("dirac.probe"),
        "dirac.optimizer_s": b("dirac.optimizer"),
        "dirac.optimizer.nfev": b("dirac.optimizer", "nfev"),
        "dirac.optimizer.failures": b("dirac.optimizer", "failures"),
        "dirac.verify_s": b("dirac.verify"),
        "dirac.classify_s": b("dirac.classify"),
        "dirac.converged_frac": residuals.get("converged_frac", 0.0),
        "evolution.oracle_err": residuals.get("oracle_err", 0.0),
        "evolution.norm_drift": residuals.get("norm_drift", 0.0),
        "trace.overhead_s": trace_record.get("main_s", untraced_wall) - untraced_wall,
    }
    from workloads import WORKLOADS

    for other in WORKLOADS:
        values[f"{other}.distinct_payloads"] = digests if other == name else 0
    return values


# ------------------------------------------------------------- provenance


def _git_commit():
    """HEAD of a git checkout at ROOT, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _src_digest():
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                path = os.path.join(dirpath, filename)
                with open(path, "rb") as fh:
                    h.update(os.path.relpath(path, SRC).encode() + b"\0" + fh.read())
    return h.hexdigest()


def provenance(seed):
    import numpy
    import scipy

    import qca

    return {
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "qca": qca.__version__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in
                       sorted(THREAD_ENV) + ["QCA_THREADS"]},
        "seed": seed,
    }


# ------------------------------------------------------------- one run


def run_workload(workload, seed, seconds, trace, tiny=False):
    out_dir = os.path.join(OUT, "tiny" if tiny else "runs")
    os.makedirs(out_dir, exist_ok=True)
    case = workload.case(out_dir, seed, tiny=tiny)
    gatekeeper = Gatekeeper(workload, case)

    warm = run_child()  # compiles bytecode; not timed
    if warm.get("import_s") is None:
        raise HarnessError(f"cannot import qca: {warm.get('error')}")
    setup_times = [run_child()["import_s"] for _ in range(0 if tiny else SETUP_SAMPLES)]

    samples, spent = [], 0.0
    while True:
        record = sample(case, gatekeeper)
        samples.append(record)
        spent += record["elapsed_s"]
        if "import_s" in record:
            setup_times.append(record["import_s"])
        # Stop where the measured time comes closest to --seconds.
        per_sample = spent / len(samples)
        if tiny or (len(samples) >= MIN_SAMPLES and spent + per_sample / 2 >= seconds):
            break

    values, notes = end_to_end(case, samples, setup_times)
    traced = None
    if trace:
        traced = sample(case, gatekeeper, trace=True,
                        spans=os.path.join(out_dir, f"{workload.name}.spans.json"))
        samples.append(traced)
    digests = len({s["digest"] for s in samples if s.get("digest")})
    if trace:
        values.update(per_layer(workload.name, traced, values["wall_s"],
                                gatekeeper, digests))
    failed = sum(1 for s in samples if not s["ok"])
    notes["distinct_payloads"] = f"{digests} over {len(samples)} samples"
    notes["fail_frac"] = f"{failed}/{len(samples)} = {failed / len(samples):.3g}"
    return {
        "workload": workload.name,
        "argv": ["qca"] + case.argv,
        "samples": samples,
        "values": values,
        "notes": notes,
        "gate": {d: v for d, v in gatekeeper.verdicts.items()},
        "trace_absent": (traced or {}).get("trace", {}).get("absent", []),
        "attempted": len(samples),
        "failed": failed,
    }


# ------------------------------------------------------------- report


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def select(result, declared):
    metrics = {}
    for metric in declared:
        if metric["name"] not in result["values"]:
            raise HarnessError(f"metric {metric['name']} was not measured")
        value = result["values"][metric["name"]]
        # No sample passed: the run reports failed > 0 and the value is moot.
        value = value if math.isfinite(value) else 0.0
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return metrics


def print_report(result, spec, prov, trace):
    print(f"== {result['workload']}  seed={prov['seed']}  trace={int(trace)}")
    print("   argv: " + " ".join(result["argv"]))
    print("   provenance: " + json.dumps(prov, sort_keys=True))
    notes = result["notes"]
    groups = ("end_to_end", "per_layer") if trace else ("end_to_end",)
    for group in groups:
        for name, metric in select(result, spec[group]).items():
            note = notes.get(name, "")
            print(f"   {name:38s} {metric['value']:<14.6g} {metric['unit']:6s} {note}")
    print(f"   {'fail_frac':38s} {notes['fail_frac']}")
    print(f"   {'distinct_payloads':38s} {notes['distinct_payloads']}")
    for record in result["samples"]:
        if not record["ok"]:
            print(f"   FAILED sample: {record.get('error')}")
    if result["trace_absent"]:
        print("   traced names absent (0 calls): " + ", ".join(result["trace_absent"]))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qca", "cli.py")):
        sys.stderr.write(f"perfbench: no qca sources under {SRC}\n")
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.self_check:
        from selfcheck import self_check

        return self_check(WORKLOADS, load_spec())
    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"--workload must be 'all' or one of {sorted(WORKLOADS)}")

    spec = load_spec()
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    prov = provenance(args.seed)
    os.makedirs(OUT, exist_ok=True)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        metrics = select(result, declared)
        result["provenance"] = prov
        with open(os.path.join(OUT, f"{name}-seed{args.seed}-trace{args.trace}.json"),
                  "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
        print_report(result, spec, prov, args.trace)
        combined["correct"] &= result["failed"] == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        combined["metrics"].update({prefix + k: v for k, v in metrics.items()})
    sys.stdout.write(json.dumps(combined) + "\n")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except HarnessError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        sys.exit(2)
