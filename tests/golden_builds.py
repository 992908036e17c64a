"""Digests of ``ceg build`` on random trees.

    PYTHONPATH=src python tests/golden_builds.py > tests/golden_builds.json

Ten random trees (``random_trees.random_tree_document``), odd seeds with
their siblings listed in shuffled orders, each with inferred stages and
with declared ones (the exact-equality stage blocks of
``oracles.stage_blocks``, some of them), each built at the default
tolerance and at 0.05.  A digest is the SHA-256 of the JSON list
``[exit code, stdout, stderr]``, so a test can pin every report byte for
byte without storing it.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import tempfile
from pathlib import Path

from click.testing import CliRunner

from cegkit.cli import main

import oracles
from random_trees import declared_stages, model_payload, random_tree_document

SEEDS = range(10)
TOLERANCES = (None, "0.05")


def build_digests(workdir: Path) -> dict[str, str]:
    """``"seed stages tolerance"`` -> digest, in run order."""
    runner = CliRunner()
    digests = {}
    for seed in SEEDS:
        doc = random_tree_document(seed)
        rng = random.Random(seed)
        payload = model_payload(doc, rng if seed % 2 else None)
        variants = {
            "inferred": payload,
            "declared": {
                **payload,
                "stages": declared_stages(payload, oracles.stage_blocks(doc), rng),
            },
        }
        for stages, variant in variants.items():
            model = workdir / f"{seed}-{stages}.json"
            model.write_text(json.dumps(variant), encoding="utf-8")
            for tol in TOLERANCES:
                args = ["build", "--model", str(model)]
                if tol is not None:
                    args += ["--tolerance", tol]
                r = runner.invoke(main, args)
                raw = json.dumps([r.exit_code, r.stdout, r.stderr])
                key = f"{seed} {stages} {tol or 'default'}"
                digests[key] = hashlib.sha256(raw.encode("utf-8")).hexdigest()
    return digests


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        json.dump(build_digests(Path(tmp)), sys.stdout, indent=0, sort_keys=True)
    sys.stdout.write("\n")
