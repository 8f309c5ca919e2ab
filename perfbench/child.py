"""One ``verify`` process with the benchmark's probes installed.

    python3 perfbench/child.py PROBE_JSON TRACE -- VERIFY_ARGS...

Runs ``screenalg.cli.main(VERIFY_ARGS)`` in this process, exactly as the
``verify`` console script does, and exits with its code.  Before that it wraps
``run_suite`` so that the CLOCK_MONOTONIC time at which the suite starts is
known: everything before it (interpreter start, ``import screenalg``, argument
parsing, ``context_from_config``) is set-up, and the suite itself only builds
the catalogue (about a millisecond) before the first check.  The parent took
the same clock just before spawning.  With TRACE = 1 the per-layer tracer
(``tracer.py``) is installed too.  The probe file is written once, when
``main`` returns.
"""

from __future__ import annotations

import json
import os
import sys
import time


def main() -> int:
    probe_path, trace, sep, *argv = sys.argv[1:]
    if sep != "--" or trace not in ("0", "1"):
        raise SystemExit("usage: child.py PROBE_JSON {0|1} -- VERIFY_ARGS...")
    import screenalg.cli as cli
    import screenalg.verifier as verifier

    from tracer import Tracer, rebind

    probe: dict = {"suite_start_monotonic": None}
    run_suite = verifier.run_suite

    def timed_suite(*args, **kwargs):
        probe["suite_start_monotonic"] = time.monotonic()
        return run_suite(*args, **kwargs)

    rebind(run_suite, timed_suite)
    tracer = None
    if trace == "1":
        tracer = Tracer(run_id=os.path.basename(probe_path).split(".")[0])
        tracer.install()
    rc = cli.main(argv)
    if tracer is not None:
        probe["trace"] = tracer.dump()
    with open(probe_path, "w", encoding="utf-8") as fh:
        json.dump(probe, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
