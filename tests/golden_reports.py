"""Digests of every fixture ``query`` and ``check-backdoor`` report.

    PYTHONPATH=src python tests/golden_reports.py > tests/golden_reports.json

Each run intervenes at one position of one bundled model, replacing its
idle vector with the reversed one (rotated where reversing gives the idle
vector back), and asks about one target d-event: every position, every
target, both commands.  A digest is the SHA-256 of the JSON list
``[exit code, stdout, stderr]``, so a test can pin every report byte for
byte without storing it.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from click.testing import CliRunner

from cegkit import fixtures, model_io
from cegkit.ceg import ceg_from_document
from cegkit.cli import main

COMMANDS = ("query", "check-backdoor")


def replacement(idle: tuple) -> list:
    """The reversed idle vector, or the rotated one where reversing gives
    the idle vector back."""
    vec = list(reversed(idle))
    return vec if tuple(vec) != idle else [*idle[1:], idle[0]]


def report_digests(workdir: Path) -> dict[str, str]:
    """``"command model position target"`` -> digest, in run order."""
    runner = CliRunner()
    digests = {}
    for name, doc in fixtures.all_documents().items():
        model = workdir / f"{name}.json"
        model_io.dump(doc, model)
        graph = ceg_from_document(doc)
        for w in graph.position_ids:
            intervention = workdir / f"{name}-{w}.json"
            hat = {"type": "stochastic", "positions": {w: replacement(graph.theta_vector(w))}}
            intervention.write_text(json.dumps(hat), encoding="utf-8")
            for target in sorted(graph.devents):
                query = workdir / "query.json"
                query.write_text(json.dumps({"target": target}), encoding="utf-8")
                for command in COMMANDS:
                    args = [command, "--model", str(model), "--intervention",
                            str(intervention), "--query", str(query)]
                    r = runner.invoke(main, args)
                    raw = json.dumps([r.exit_code, r.stdout, r.stderr])
                    key = f"{command} {name} {w} {target}"
                    digests[key] = hashlib.sha256(raw.encode("utf-8")).hexdigest()
    return digests


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        json.dump(report_digests(Path(tmp)), sys.stdout, indent=0, sort_keys=True)
    sys.stdout.write("\n")
