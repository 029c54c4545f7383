"""Run one fluidfed subcommand in this fresh interpreter, as the console script does.

    python3 bench/child.py MARKS_JSON TRACE(0|1) SUBCOMMAND [ARGS...]
    python3 bench/child.py --probe

Writes MARKS_JSON when the command returns: monotonic timestamps of the
end of set-up (``fluidfed.cli`` imported and the config resolved) and of
the end of ``main``, the traceback if ``main`` raised, and with TRACE=1
the per-layer spans of ``tracer.Tracer``.  Exits with ``main``'s code, or
70 when ``main`` raised.  ``--probe`` imports the package and prints the
versions the benchmark records with each result.
"""

from __future__ import annotations

import json
import sys
import time
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
RAISED = 70


def _import_cli():
    sys.path.insert(0, str(SRC))
    from fluidfed import cli

    if SRC not in Path(cli.__file__).resolve().parents:
        raise ImportError(f"fluidfed was imported from {cli.__file__}, not {SRC}")
    return cli


def probe() -> None:
    _import_cli()
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(json.dumps({
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }))


def run(marks_path: str, trace: bool, argv: list[str]) -> int:
    cli = _import_cli()
    marks = {"imported": time.monotonic()}
    load_config = cli.load_config

    def load_config_marked(*args, **kwargs):
        resolved = load_config(*args, **kwargs)
        marks["setup_done"] = time.monotonic()
        return resolved

    cli.load_config = load_config_marked
    tracer = None
    if trace:
        import fluidfed
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(fluidfed)
    try:
        code = (tracer.wrap("cli", cli.main) if tracer else cli.main)(argv)
    except Exception:
        marks["raised"] = traceback.format_exc()
        code = RAISED
    marks["main_done"] = time.monotonic()
    if tracer is not None:
        marks["trace"] = tracer.dump()
    with open(marks_path, "w") as fh:
        json.dump(marks, fh)
    return code


if __name__ == "__main__":
    if sys.argv[1:] == ["--probe"]:
        probe()
    else:
        sys.exit(run(sys.argv[1], sys.argv[2] == "1", sys.argv[3:]))
