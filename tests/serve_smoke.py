"""Serve smoke: the real ``repro serve`` process, cold then warm.

    PYTHONPATH=src python tests/serve_smoke.py WORK_DIR

Starts ``repro serve --port 0 --cache-dir WORK_DIR/cache --jobs 1``
and sends fig5's full sweep twice with ``ServeClient.submit_many``.
Both passes must return the rows of a direct ``Runner.run``; the warm
pass must be answered from the cell store on the server's event loop,
adding 0 to ``serve.batches`` and ``runner.executed``.  The server is
then stopped with SIGINT and must exit 0.  Exits 1 with a
``serve-smoke FAILED`` line on any failure.
"""

from __future__ import annotations

import signal
import subprocess
import sys
from pathlib import Path

from repro.core.registry import resolve_experiment
from repro.run import Runner
from repro.serve import ServeClient

#: seconds to wait for the server to listen, and later to exit.
TIMEOUT = 120


def _sigint_default() -> None:
    # A shell that starts make in the background hands its children
    # SIGINT ignored, and Python then never raises KeyboardInterrupt,
    # which is how ``repro serve`` stops.
    signal.signal(signal.SIGINT, signal.SIG_DFL)


def _fail(message: str) -> int:
    print(f"serve-smoke FAILED: {message}", file=sys.stderr)
    return 1


def _port(proc: subprocess.Popen) -> int:
    for line in proc.stdout:
        print(line, end="")
        if "listening on" in line:
            return int(line.split("listening on", 1)[1].split()[0]
                       .rsplit(":", 1)[1])
    raise RuntimeError("repro serve exited before listening")


def _delta(before: dict, after: dict, key: str) -> float:
    return after.get(key, 0.0) - before.get(key, 0.0)


def main(argv: list[str]) -> int:
    work = Path(argv[0])
    cells = list(resolve_experiment("fig5").scenarios())
    direct = [record.rows for record in Runner(jobs=1, cache=None).run(cells)]
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--cache-dir", str(work / "cache"), "--jobs", "1"],
        stdout=subprocess.PIPE, text=True, preexec_fn=_sigint_default,
    )
    try:
        with ServeClient(port=_port(proc), timeout=TIMEOUT) as client:
            for name in ("cold", "warm"):
                before = client.stats()
                replies = client.submit_many(cells)
                after = client.stats()
                batches = _delta(before, after, "serve.batches")
                executed = _delta(before, after, "runner.executed")
                print(f"{name}: {len(replies)} replies, {batches:g} "
                      f"batches, {executed:g} cells executed")
                bad = [r.error or r.status for r in replies if not r.ok]
                if bad:
                    return _fail(f"{name} pass: {len(bad)} failed: {bad[0]}")
                if [reply.rows for reply in replies] != direct:
                    return _fail(f"{name} pass rows differ from Runner.run")
                if name == "warm" and (batches or executed):
                    return _fail("the warm pass batched or executed cells")
    finally:
        proc.send_signal(signal.SIGINT)
        try:
            code = proc.wait(timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = None
    if code != 0:
        return _fail(f"repro serve exited {code} on SIGINT, not 0")
    print("serve-smoke ok: cold and warm passes match Runner.run, "
          "the warm pass formed no batch and executed nothing")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
