"""Run ``repro-serve`` with the per-layer wrappers installed.

Run from the repository root with ``src`` on ``PYTHONPATH``::

    python3 perfbench/serve_traced.py OUT.json --workdir RUN --port 0

Everything after ``OUT.json`` goes to :func:`repro.serve.cli.main`
unchanged.  When SIGTERM has drained the server, the per-layer metrics
(with ``other.busy_s``: process CPU outside every wrapped call, which here
is the event loop) are written to ``OUT.json`` and every span to
``OUT.json.spans.jsonl``.
"""

from __future__ import annotations

import json
import os
import resource
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer("serve-mix")
    expected = tracing.install(tracer, "serve-mix")
    from repro.serve.cli import main as serve_main

    def cpu_s() -> float:
        ru = resource.getrusage(resource.RUSAGE_SELF)
        return ru.ru_utime + ru.ru_stime

    cpu0 = cpu_s()
    code = serve_main(argv)
    cpu = cpu_s() - cpu0
    summary = tracer.summary()
    layers, unfired = tracing.per_layer(summary, expected)
    layers["other.busy_s"] = cpu - summary["busy_s"]
    tracer.dump(out + ".spans.jsonl")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"layers": layers, "unfired": unfired}, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
