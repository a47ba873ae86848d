"""Serve launcher of the ``serve_mixed`` workload.

``python -m benchmarks.e2e.server CACHE_DIR [--trace]`` runs
``serve_forever(Runner(jobs=1, cache=ResultCache(CACHE_DIR)), port=0)``
exactly as ``repro serve --jobs 1`` would, and prints the
``listening on HOST:PORT`` line the client waits for.  With
``--trace`` the layer wrappers are installed first.

The launcher stops when its stdin reaches end of file: the benchmark
closes the pipe, or dies and the system closes it.  It then interrupts
itself with SIGINT, as a user stopping ``repro serve`` would; the
server drains and exits, and the launcher prints one JSON line with its
peak RSS and, when traced, the layer table and spans.
"""

from __future__ import annotations

import json
import signal
import sys
import threading
import time

from benchmarks.e2e.child import peak_rss_mb


def _interrupt_at_eof() -> None:
    sys.stdin.read()
    # To the main thread itself: only there does the signal break the
    # event loop's wait, which may otherwise block with no timeout.
    signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    # A process started in the background by a non-interactive shell
    # inherits SIGINT ignored, and Python then never raises
    # KeyboardInterrupt; serve_forever stops on exactly that.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    threading.Thread(target=_interrupt_at_eof, daemon=True).start()
    t0 = time.monotonic()
    from repro.run import ResultCache, Runner
    from repro.serve.server import serve_forever

    import_s = time.monotonic() - t0
    rec = None
    if "--trace" in args:
        from benchmarks.e2e.tracing import Recorder, install

        rec = Recorder()
        install(rec)
    runner = Runner(jobs=1, cache=ResultCache(args[0]))
    serve_forever(runner, port=0)
    out: dict = {
        "import_s": import_s,
        "maxrss_mb": peak_rss_mb(),
    }
    if rec is not None:
        rec.enabled = False
        out["trace"] = rec.snapshot()
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
