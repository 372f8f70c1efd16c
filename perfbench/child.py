"""Run one focusfocus CLI invocation in this fresh interpreter.

    python3 perfbench/child.py RESULT.json SPAWN_T MODE [CLI ARGS...]

SPAWN_T is the parent's time.monotonic() just before it spawned this
interpreter; MODE is ``setup`` (import the CLI, then stop), ``run`` or
``trace`` (run with the layer tracer installed).  The timings, exit code
and peak resident memory are written to RESULT.json.  In ``run`` mode
the invocation runs under a calib.Sampler: the times of its reference
calls are written too, and are not counted in the wall time.  The
package is imported from the ``src`` directory next to this one, never
from an installed copy.
"""
import contextlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main() -> int:
    result_path, spawn_t, mode = sys.argv[1], float(sys.argv[2]), sys.argv[3]
    argv = sys.argv[4:]
    sys.path.insert(0, str(SRC))
    from focusfocus import cli

    entered = time.monotonic()
    if Path(cli.__file__).resolve().parents[1] != SRC:
        print(f"imported focusfocus from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    doc = {"setup_s": entered - spawn_t}
    if mode != "setup":
        tracer = None
        if mode == "trace":
            import tracer as tracing
            tracer = tracing.install()
        import calib
        sampler = calib.Sampler()
        t0 = time.perf_counter()
        try:
            with sampler if mode == "run" else contextlib.nullcontext():
                rc = cli.main(argv)
        except Exception:   # a crash fails the invocation's operations
            traceback.print_exc()
            rc = -1
        doc["wall_s"] = time.perf_counter() - t0 - sum(sampler.times)
        doc["ref_s"] = sampler.times
        doc["rc"] = rc
        doc["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            doc["trace"] = tracer.snapshot()
    Path(result_path).write_text(json.dumps(doc), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
