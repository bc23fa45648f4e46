"""One benchmark sample in a fresh interpreter.

    python3 perfbench/child.py SRC_DIR SPEC_JSON

Times ``import qca.cli`` from SRC_DIR, then (unless SPEC has no argv) one
``qca.cli.main(argv)`` call, optionally under the span tracer.  Prints one
JSON line: import_s, main_s, exit code, error, peak RSS and the trace summary.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])
_t0 = time.perf_counter()
import qca.cli  # noqa: E402

_t1 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def main():
    spec = json.loads(sys.argv[2])
    out = {"import_s": _t1 - _t0, "qca_file": os.path.abspath(qca.cli.__file__)}
    argv = spec.get("argv")
    if argv is not None:
        tracer = None
        if spec.get("trace"):
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        code, error = 1, None
        cpu = time.process_time()
        start = time.perf_counter()
        try:
            if tracer is None:
                code = qca.cli.main(argv)
            else:
                code = tracer.call("qca.cli.main", "cli", qca.cli.main, argv)
        except Exception:
            error = traceback.format_exc()
        out["main_s"] = time.perf_counter() - start
        out["main_cpu_s"] = time.process_time() - cpu
        out["exit"] = code
        out["error"] = error
        if tracer is not None:
            tracer.dump(spec["spans"])
            out["trace"] = tracer.summary()
    out["maxrss_kib"] = peak_rss_kib()
    sys.stdout.write(json.dumps(out) + "\n")


def peak_rss_kib():
    """Peak RSS of this process image, in KiB.

    On Linux getrusage's ru_maxrss keeps the high-water mark of the image
    that ran before execve, i.e. the forking benchmark harness, so the
    current image's VmHWM is read first.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


if __name__ == "__main__":
    main()
