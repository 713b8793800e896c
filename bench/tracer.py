"""Run one steadyparts CLI invocation with a span around every call into the
layer functions that layers.py names, then print the spans to stderr.

    PYTHONPATH=src python3 bench/tracer.py compute --m 100 --n 100

Stdout is the command's own output, byte for byte.  Spans are kept in memory
and written once, as the last stderr line: MARKER followed by a JSON object
{"resolved": [[module, name], ...], "spans": [[metric, id, parent id, start,
end, counts], ...]}.  Times come from time.perf_counter; a span's parent is
the innermost span open in the same thread when it started.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
import time

import layers

MARKER = "@@steadyparts-spans "


def _wrap(fn, metric, hook, spans: list, ids, local):
    def traced(*args, **kwargs):
        stack = local.__dict__.setdefault("stack", [])
        name = metric(args) if callable(metric) else metric
        span = [name, next(ids), stack[-1] if stack else None, 0.0, 0.0, None]
        stack.append(span[1])
        span[3] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[4] = time.perf_counter()
            stack.pop()
            spans.append(span)
        if hook is not None:
            span[5] = hook(args, result)
        return result

    return traced


def install(spans: list) -> set:
    """Wrap every layer function that still exists, in every module of the
    package that binds it; return the (module, name) pairs found."""
    import steadyparts.cli  # noqa: F401  (imports every module of the package)

    ids = itertools.count()
    local = threading.local()
    package = [m for key, m in sys.modules.items() if key.split(".")[0] == "steadyparts"]
    resolved = set()
    for module, name, metric, hook in layers.TIMED:
        try:
            fn = getattr(importlib.import_module(f"steadyparts.{module}"), name)
        except (ImportError, AttributeError):
            continue
        resolved.add((module, name))
        wrapper = _wrap(fn, metric, hook, spans, ids, local)
        for mod in package:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)
    return resolved


def main(argv: list) -> int:
    spans: list = []
    resolved = install(spans)
    from steadyparts.cli import cli

    code = 0
    try:
        cli.main(args=argv, prog_name="steadyparts", obj={})
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    finally:
        sys.stdout.flush()
        record = {"resolved": sorted(resolved), "spans": spans}
        sys.stderr.write(MARKER + json.dumps(record) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
