"""One fresh benchmark process: time `import topoaware.cli`, then run a
command sequence in-process through `cli.main(argv)`, one command at a time.

    python3 perfbench/worker.py SPEC.json

SPEC holds `src` (the directory that contains the package), `commands` (a
list of argv lists, possibly empty), `trace` (wrap library functions in
spans) and `result` (where to write this process's measurements).
"""
from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    t0 = time.perf_counter()
    import topoaware.cli as cli
    result = {"setup_s": time.perf_counter() - t0, "commands": []}
    tracer = None
    if spec["trace"]:
        from spans import Tracer
        tracer = Tracer()
        result["absent"] = tracer.install()
    start = time.perf_counter()
    for argv in spec["commands"]:
        t = time.perf_counter()
        span = tracer.enter("cli." + argv[0]) if tracer else None
        try:
            code = cli.main(argv)
        except Exception:  # a crash counts as a failed command, the run goes on
            traceback.print_exc()
            code = -1
        finally:
            if tracer:
                tracer.leave(span)
        result["commands"].append({"argv": argv, "exit": code,
                                   "wall_s": time.perf_counter() - t})
    result["run_s"] = time.perf_counter() - start
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        result["spans"] = tracer.spans
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
