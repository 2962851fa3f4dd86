"""Run ``aisoc serve`` with the span tracer installed in the server process.

``python3 -m perfbench.traced_serve <src dir> <summary.json> serve --artifact ...``
The CLI's own ``main`` is called unwrapped, so request-handling spans are
the roots; the span summary is written when the server stops on SIGINT.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    src, summary_path, cli_args = argv[0], argv[1], argv[2:]
    sys.path.insert(0, src)
    import aisoc.cli

    from perfbench import spans

    cli_main = aisoc.cli.main
    tracer = spans.Tracer()
    spans.install_all(tracer)
    try:
        return cli_main(cli_args)
    finally:
        tracer.uninstall()
        Path(summary_path).write_text(json.dumps(spans.summary(tracer)), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
