"""Digests of every fixture DOT file.

    PYTHONPATH=src python tests/golden_dot.py > tests/golden_dot.json

For each bundled model: ``export-dot`` of every kind, the ``manipulated``
kind once with a stochastic and once with an indicators document, and each
file that ``build --out`` writes.  An ``export-dot`` digest is the SHA-256
of the JSON list ``[exit code, stdout, stderr]``; a ``build --out`` digest
is the SHA-256 of the file, since the report names a temporary directory.
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
from cegkit.intervention import root_cause_edges
from golden_reports import replacement


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def intervention_documents(graph) -> dict[str, dict]:
    """A stochastic document reversing w1's vector, and an indicators
    document flagging the first root-cause edge, with a prior over every
    position."""
    first = root_cause_edges(graph)[0]
    indicators = {str(e): int(e == first) for e in root_cause_edges(graph)}
    alpha, eta = {}, {}
    for w in graph.position_ids:
        k = len(graph.out_edges(w))
        alpha[w] = [2.0 + i for i in range(k)]
        eta[w] = [0.5 * (i + 1) for i in range(k)]
    return {
        "stochastic": {"type": "stochastic",
                       "positions": {"w1": replacement(graph.theta_vector("w1"))}},
        "indicators": {"type": "indicators", "indicators": indicators,
                       "alpha": alpha, "eta": eta},
    }


def dot_digests(workdir: Path) -> dict[str, str]:
    """``"export-dot model kind"`` or ``"build model file"`` -> digest."""
    runner = CliRunner()
    digests = {}
    for name, doc in fixtures.all_documents().items():
        model = workdir / f"{name}.json"
        model_io.dump(doc, model)
        runs = {kind: [] for kind in ("tree", "staged", "ceg")}
        for label, idoc in intervention_documents(ceg_from_document(doc)).items():
            path = workdir / f"{name}-{label}.json"
            path.write_text(json.dumps(idoc), encoding="utf-8")
            runs[f"manipulated {label}"] = ["--intervention", str(path)]
        for key, extra in runs.items():
            kind = key.split()[0]
            args = ["export-dot", "--model", str(model), "--kind", kind, *extra]
            r = runner.invoke(main, args)
            raw = json.dumps([r.exit_code, r.stdout, r.stderr])
            digests[f"export-dot {name} {key}"] = _sha(raw)
        out = workdir / f"{name}-dot"
        r = runner.invoke(main, ["build", "--model", str(model), "--out", str(out)])
        assert r.exit_code == 0, r.output
        for path in sorted(out.iterdir()):
            digests[f"build {name} {path.name}"] = _sha(path.read_text(encoding="utf-8"))
    return digests


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        json.dump(dot_digests(Path(tmp)), sys.stdout, indent=0, sort_keys=True)
    sys.stdout.write("\n")
