"""Start ``esd serve`` with the layer probes installed.

    python3 perfbench/launch.py --trace-dir DIR -- serve --graph g.txt --port 0

runs ``repro.cli`` with the given arguments after :func:`tracing.install`
has wrapped the layers.  The process writes its probe snapshot to
``DIR/<n>.json`` on its n-th SIGUSR1 and to ``DIR/final.json`` when it
exits; SIGTERM shuts it down cleanly.
"""

from __future__ import annotations

import json
import os
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def _write_json(path: Path, payload) -> None:
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload))
    os.replace(tmp, path)


def main(argv) -> int:
    if len(argv) < 3 or argv[0] != "--trace-dir" or argv[2] != "--":
        raise SystemExit("usage: launch.py --trace-dir DIR -- <esd arguments>")
    trace_dir, cli_args = Path(argv[1]), argv[3:]

    from perfbench.tracing import install

    probe = install()
    marks = [0]

    def on_mark(_signum, _frame):
        marks[0] += 1
        _write_json(trace_dir / f"{marks[0]}.json", probe.snapshot())

    def on_term(_signum, _frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGUSR1, on_mark)
    signal.signal(signal.SIGTERM, on_term)

    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    except KeyboardInterrupt:
        return 0
    finally:
        _write_json(trace_dir / "final.json", probe.snapshot())


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
