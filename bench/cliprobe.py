"""One traced CLI process: ``python bench/cliprobe.py <monosphere argv...>``.

Stands in for ``python -m monosphere.cli <argv>`` in traced runs.  It
records spans for importing the dependencies and the package, for
``cli.main(argv)``, and then, called separately on the same input, for
the parse (``serialize.loads_payload``), the report emission
(``serialize.dumps_report``) and, for ``reconstruct``, the least-squares
recovery, which ``cli.main`` performs out of sight.  Prints one JSON
object: exit code, the report text and the spans.
"""

from __future__ import annotations

import io
import json
import sys
import time
from contextlib import redirect_stdout

SPANS: list[dict] = []


def span(name, fn, *args):
    start = time.perf_counter()
    try:
        return fn(*args)
    finally:
        SPANS.append({"id": len(SPANS), "name": name, "start": start,
                      "end": time.perf_counter(), "parent": None})


def import_deps():
    import numpy  # noqa: F401
    import scipy.integrate  # noqa: F401
    import scipy.linalg  # noqa: F401
    import scipy.special  # noqa: F401


def import_package():
    import monosphere.cli  # noqa: F401


def reconstruct_from_own_samples(text: str):
    """The CLI's curve-input reconstruct: h on the CLI's own sample rings."""
    from monosphere import boundary, cli, serialize

    S = serialize.loads_payload(text)
    pairs = [(z, boundary.metric_h(S, z)) for z in cli._boundary_rings(S.k, max(6, (S.k + 1) ** 2))]
    try:
        span("boundary.reconstruct_psi_from_metric", boundary.reconstruct_psi_from_metric, pairs, S.k)
    except Exception:  # the charge-3 input fails; its time still counts
        pass


def main() -> None:
    argv = sys.argv[1:]
    span("startup.import_deps", import_deps)
    span("startup.import", import_package)
    from monosphere import cli, serialize

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = span("cli.main", cli.main, argv)
    report = buf.getvalue()
    if "--input" in argv:
        with open(argv[argv.index("--input") + 1], encoding="utf-8") as fh:
            text = fh.read()
        span("serialize.loads_payload", serialize.loads_payload, text)
        if argv[0] == "reconstruct":
            reconstruct_from_own_samples(text)
    span("serialize.dumps_report", serialize.dumps_report, json.loads(report))
    print(json.dumps({"code": code, "report": report, "spans": SPANS}))


if __name__ == "__main__":
    main()
