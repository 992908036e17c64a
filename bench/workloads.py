"""The four benchmark workloads and the checks on every report they produce.

Each workload writes its documents into a work directory and returns one
*round*: a fixed list of CLI commands.  The seed picks probabilities,
intervention vectors and targets, never model sizes or intervened
positions, so every seed gives a round of the same shape and cost.  A run repeats the
round, so every command runs many times and its report must not change.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Callable

import ladder
import oracle

WORKLOADS = ("build-ladder", "query-merged", "query-search-miss", "fixtures-mix")

# (depth, width) rungs of the build ladder; the largest builds take about
# half a second each at the commit that introduced the benchmark.  The
# sixth-cheapest rung, (5, 2), builds in nearly the same time in both
# families, so the round's median falls inside one cluster of samples.
BUILD_RUNGS = (
    (3, 2), (4, 2), (5, 2), (7, 2), (8, 2),
    (2, 3), (3, 3), (4, 3), (5, 3),
    (2, 4), (4, 4),
)
# merged-family models for queries: 4 to 8 positions, 128 to 512 paths.
# Every non-terminal position of every model is intervened once per round,
# so the round holds the same positions whatever the seed; the round has
# an odd number of commands, so its median falls on one command's samples.
QUERY_MERGED_MODELS = ((6, 2), (3, 4), (7, 2), (4, 4), (5, 3))
# fresh-family models where the back-door search rejects every candidate;
# its cost grows steeply with paths, so these stay at 16 to 54 paths.  Each
# model runs two queries and one check-backdoor per round.
SEARCH_MISS_MODELS = ((3, 2), (2, 3), (4, 2), (2, 4), (3, 3))

Check = Callable[[int, str, str], list]


@dataclass
class Command:
    label: str
    args: list
    model: str
    check: Check


@dataclass
class ModelInfo:
    """Structure of one model, for the scaling rows."""

    vertices: int
    positions: int
    paths: int


# -- report parsing -----------------------------------------------------------


def value_of(stdout: str, key: str):
    prefix = f"{key}: "
    for line in stdout.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):]
    return None


def section(stdout: str, name: str) -> list:
    """Lines after ``[name]`` up to the next section header."""
    lines = stdout.splitlines()
    try:
        start = lines.index(f"[{name}]") + 1
    except ValueError:
        return []
    out = []
    for line in lines[start:]:
        if line.startswith("["):
            break
        out.append(line)
    return out


def _expect_code(code: int, want: int) -> list:
    return [] if code == want else [f"exit code {code}, expected {want}"]


def _expect_float(stdout: str, key: str, want: float) -> list:
    raw = value_of(stdout, key)
    if raw is None:
        return [f"no {key!r} line"]
    try:
        got = float(raw)
    except ValueError:
        return [f"{key} is not a number: {raw!r}"]
    if not oracle.close(got, want):
        return [f"{key} {got!r} differs from reference {want!r}"]
    return []


def _expect_prefix(stdout: str, key: str, prefix: str) -> list:
    raw = value_of(stdout, key)
    if raw is None or not raw.startswith(prefix):
        return [f"{key} is {raw!r}, expected {prefix!r}..."]
    return []


def check_build(expected: dict, stages: list, positions: list) -> Check:
    def check(code, stdout, stderr):
        problems = _expect_code(code, 0)
        for key, want in expected.items():
            got = value_of(stdout, key)
            if got != str(want):
                problems.append(f"{key} is {got!r}, expected {want!r}")
        if section(stdout, "stages") != stages:
            problems.append("[stages] block differs from the expected partition")
        if section(stdout, "positions") != positions:
            problems.append("[positions] block differs from the expected partition")
        return problems

    return check


def check_stochastic(
    reference: Callable[[], float], verdict: str, code_want: int = 0
) -> Check:
    """Every effect line against the raw-document reference, plus verdict."""

    def check(code, stdout, stderr):
        want = reference()
        problems = _expect_code(code, code_want)
        for key in ("devent_formula", "edge_formula", "oracle"):
            problems += _expect_float(stdout, key, want)
        if value_of(stdout, "adjustment") != "-":
            problems += _expect_float(stdout, "adjustment", want)
        problems += _expect_prefix(stdout, "agreement", "OK")
        problems += _expect_prefix(stdout, "verdict", verdict)
        return problems

    return check


def check_exact(code_want: int, stdout_want: str) -> Check:
    def check(code, stdout, stderr):
        problems = _expect_code(code, code_want)
        if stdout != stdout_want:
            problems.append(f"report {stdout!r}, expected {stdout_want!r}")
        return problems

    return check


# -- document writing ---------------------------------------------------------


def _write(workdir: str, name: str, payload: dict) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return path


def _ladder_partitions(family: str, depth: int, width: int):
    """Expected [stages] and [positions] lines of a ladder build report."""
    if family == "merged":
        blocks = ladder.layer_members(depth, width)
    else:
        situations = sum(width**k for k in range(depth + 1))
        blocks = [[f"v{i}"] for i in range(situations)]
    stages = [f"u{i}: {' '.join(b)}" for i, b in enumerate(blocks)]
    positions = [f"w{i}: {' '.join(b)}" for i, b in enumerate(blocks)]
    return stages, positions


def _ladder_info(family: str, depth: int, width: int) -> ModelInfo:
    counts = ladder.expected_counts(family, depth, width)
    return ModelInfo(counts["vertices"], counts["positions"], counts["root_to_sink_paths"])


def _layer_reference(doc: dict, star: list, vec: list, target: str):
    """Deferred effect of giving every vertex in ``star`` the vector ``vec``."""
    return lambda: oracle.substitution_effect(doc, star, {v: vec for v in star}, target)


def build_ladder(seed: int, workdir: str):
    commands = []
    models = {}
    for family in ladder.FAMILIES:
        for depth, width in BUILD_RUNGS:
            doc = ladder.ladder_document(family, depth, width, seed)
            path = _write(workdir, f"{doc['name']}.json", doc)
            stages, positions = _ladder_partitions(family, depth, width)
            check = check_build(ladder.expected_counts(family, depth, width), stages, positions)
            models[doc["name"]] = _ladder_info(family, depth, width)
            commands.append(Command(f"{doc['name']}/build", ["build", "--model", path], doc["name"], check))
    random.Random(f"build-ladder:{seed}").shuffle(commands)
    return commands, models


def query_merged(seed: int, workdir: str):
    rng = random.Random(f"query-merged:{seed}")
    commands = []
    models = {}
    for depth, width in QUERY_MERGED_MODELS:
        doc = ladder.ladder_document("merged", depth, width, seed, declare_stages=True)
        name = doc["name"]
        model_path = _write(workdir, f"{name}.json", doc)
        models[name] = _ladder_info("merged", depth, width)
        layers = ladder.layer_members(depth, width)
        # the last layer is left out: intervening there leaves nothing
        # downstream to search, which query-search-miss already covers
        for k in range(depth):
            vec = ladder.interior_vector(rng, width)
            # the target sits one layer below the intervention, so every
            # seed scans paths to the same depth before it finds a hit
            target = rng.choice(ladder.layer_devents(depth, width, k + 1))
            ipath = _write(workdir, f"{name}.w{k}.intervention.json",
                           {"type": "stochastic", "positions": {f"w{k}": vec}})
            qpath = _write(workdir, f"{name}.w{k}.query.json", {"target": target})
            commands.append(Command(
                f"{name}/query w{k} {target}",
                ["query", "--model", model_path, "--intervention", ipath, "--query", qpath],
                name,
                check_stochastic(_layer_reference(doc, layers[k], vec, target), "VERIFIED"),
            ))
    return commands, models


def query_search_miss(seed: int, workdir: str):
    rng = random.Random(f"query-search-miss:{seed}")
    commands = []
    models = {}
    for depth, width in SEARCH_MISS_MODELS:
        doc = ladder.ladder_document("fresh", depth, width, seed)
        name = doc["name"]
        model_path = _write(workdir, f"{name}.json", doc)
        models[name] = _ladder_info("fresh", depth, width)
        vec = ladder.interior_vector(rng, width)
        ipath = _write(workdir, f"{name}.intervention.json",
                       {"type": "stochastic", "positions": {"w0": vec}})
        seeded = rng.choice(ladder.layer_devents(depth, width, depth - 1))
        for kind, target in (("query", "fail"), ("query", seeded), ("check-backdoor", seeded)):
            qpath = _write(workdir, f"{name}.{target}.query.json", {"target": target})
            args = [kind, "--model", model_path, "--intervention", ipath, "--query", qpath]
            if kind == "query":
                check = check_stochastic(_layer_reference(doc, ["v0"], vec, target), "NOT FOUND")
            else:
                check = check_exact(3, "verdict: NOT FOUND\n")
            commands.append(Command(f"{name}/{kind} w0 {target}", args, name, check))
    return commands, models


# -- fixtures -----------------------------------------------------------------

# Values frozen in the test suite for the bundled bushing model.
FROZEN_BUSHING_STOCHASTIC = 0.6065
FROZEN_BUSHING_IDLE = 0.60425
FROZEN_BUSHING_FORCED = 0.575

# Tree vertices of the single-member positions the fixture commands touch.
FIXTURE_POSITION_VERTICES = {"w0": "v0", "w1": "v1", "w2": "v2"}

FIXTURE_STRUCTURE = {
    "bushing": {"vertices": 37, "situations": 17, "devents": 16, "positions": 9,
                "sinks": 2, "edges": 20, "root_to_sink_paths": 20, "failed_paths": 10},
    "bushing_broken": {"vertices": 37, "situations": 17, "devents": 16, "positions": 9,
                       "sinks": 2, "edges": 20, "root_to_sink_paths": 20, "failed_paths": 10},
    "conservator": {"vertices": 31, "situations": 15, "devents": 8, "positions": 9,
                    "sinks": 2, "edges": 18, "root_to_sink_paths": 16, "failed_paths": 8},
    "twin": {"vertices": 31, "situations": 15, "devents": 10, "positions": 9,
             "sinks": 2, "edges": 18, "root_to_sink_paths": 16, "failed_paths": 8},
}

BUSHING_PRIOR = {"alpha": {"w1": [3, 2, 2.5, 2.5], "w2": [3, 2]},
                 "eta": {"w1": [1, 1, 1, 1], "w2": [1, 1]}}
BUSHING_CAUSE_EDGES = ("w1->w3#1", "w1->w3#2", "w1->w4#1", "w1->w5#1", "w2->w8#1", "w2->w8#2")
BUSHING_SYMPTOM_PARTITION = {
    "kind": "devents",
    "blocks": [["oil_leak", "oil_loss", "thermal"], ["no_leak", "oil_mix", "electrical"]],
}
REMEDIAL_RECORD = {
    "remedy": "swap",
    "delta": 0,
    "actions": [
        {"id": "swap_seal", "prob": 0.6, "outcomes": [
            {"remedied": ["w1->w3#1"], "prob": 0.5}, {"remedied": [], "prob": 0.5}]},
        {"id": "no_action", "prob": 0.4, "outcomes": [{"remedied": [], "prob": 1.0}]},
    ],
}
# (weight, remedied edges, action) rows the record expands to, in order
REMEDIAL_ROWS = ((0.3, "w1->w3#1", "swap_seal"), (0.3, "-", "swap_seal"), (0.4, "-", "no_action"))
# posterior mean at w1 once the gasket edge is remedied: alpha plus eta on
# every unremedied edge, normalized
GASKET_POSTERIOR = [3.0 / 13.0, 3.0 / 13.0, 3.5 / 13.0, 3.5 / 13.0]


def fixtures_mix(seed: int, workdir: str):
    from cegkit import fixtures, model_io

    rng = random.Random(f"fixtures-mix:{seed}")
    paths = {}
    for name, document in sorted(fixtures.all_documents().items()):
        paths[name] = os.path.join(workdir, f"{name}.json")
        model_io.dump(document, paths[name])
    raw_cache: dict = {}

    def raw(name):
        if name not in raw_cache:
            with open(paths[name], encoding="utf-8") as fh:
                raw_cache[name] = json.load(fh)
        return raw_cache[name]

    commands = []

    def query(label, model, intervention, query_doc, check, kind="query"):
        stem = f"{model}.{label}".replace(" ", "_")
        ipath = _write(workdir, f"{stem}.intervention.json", intervention)
        qpath = _write(workdir, f"{stem}.query.json", query_doc)
        commands.append(Command(
            f"{model}/{label}",
            [kind, "--model", paths[model], "--intervention", ipath, "--query", qpath],
            model, check))

    def substituted(model, vectors, target):
        star = [FIXTURE_POSITION_VERTICES[w] for w in vectors]
        override = {FIXTURE_POSITION_VERTICES[w]: vec for w, vec in vectors.items()}
        return lambda: oracle.substitution_effect(raw(model), star, override, target)

    def frozen(reference, value):
        def combined():
            got = reference()
            if not oracle.close(got, value):
                raise AssertionError(f"reference {got!r} is not the frozen {value!r}")
            return got
        return combined

    for name in sorted(FIXTURE_STRUCTURE):
        expected = dict(FIXTURE_STRUCTURE[name], fine_cut_root="YES")
        commands.append(Command(f"{name}/build", ["build", "--model", paths[name]], name,
                                _check_fixture_build(expected)))

    hat = {"w1": [0.1, 0.2, 0.3, 0.4]}
    query("stochastic frozen", "bushing", {"type": "stochastic", "positions": hat},
          {"target": "fail"},
          check_stochastic(frozen(substituted("bushing", hat, "fail"), FROZEN_BUSHING_STOCHASTIC),
                           "VERIFIED (colour"))
    query("singular frozen", "bushing", {"type": "singular", "edge": "w1->w3#1"},
          {"target": "fail"},
          _check_single(frozen(substituted("bushing", {"w1": [1.0, 0.0, 0.0, 0.0]}, "fail"),
                               FROZEN_BUSHING_FORCED), "forced_effect"))
    nothing = {ref: 0 for ref in BUSHING_CAUSE_EDGES}
    query("indicators nothing-remedied", "bushing",
          {"type": "indicators", "indicators": nothing, **BUSHING_PRIOR}, {"target": "fail"},
          _check_single(frozen(lambda: oracle.idle_effect(raw("bushing"), "fail"),
                               FROZEN_BUSHING_IDLE), "idle_effect"))
    gasket = dict(nothing, **{"w1->w3#1": 1})
    query("indicators remedied", "bushing",
          {"type": "indicators", "indicators": gasket, **BUSHING_PRIOR}, {"target": "fail"},
          _check_theta_hat(check_stochastic(substituted("bushing", {"w1": GASKET_POSTERIOR}, "fail"),
                                            "VERIFIED"), "w1", GASKET_POSTERIOR))
    query("remedial", "bushing",
          {"type": "remedial", **BUSHING_PRIOR, "record": REMEDIAL_RECORD}, {"target": "fail"},
          _check_remedial(lambda: raw("bushing")))
    query("check-backdoor frozen", "bushing", {"type": "stochastic", "positions": hat},
          {"target": "fail"}, _check_verdict(0, "VERIFIED (colour"), kind="check-backdoor")
    query("supplied failing partition", "bushing_broken",
          {"type": "stochastic", "positions": hat},
          {"target": "fail", "partition": BUSHING_SYMPTOM_PARTITION},
          check_stochastic(substituted("bushing_broken", hat, "fail"), "FAILED", code_want=3))
    twin = {"w1": [0.2, 0.8], "w2": [0.45, 0.55]}
    query("twin two-position", "twin", {"type": "stochastic", "positions": twin},
          {"target": "fail"}, check_stochastic(substituted("twin", twin, "fail"), "VERIFIED"))

    # seeded stochastic queries on every model
    for model, positions, targets in (
        ("bushing", {"w1": 4}, ("fail", "oil_leak", "thermal")),
        ("conservator", {"w0": 2}, ("fail", "leak_low")),
        ("twin", {"w1": 2, "w2": 2}, ("fail", "leak", "overheat")),
    ):
        vectors = {w: ladder.interior_vector(rng, k) for w, k in positions.items()}
        target = rng.choice(targets)
        query(f"stochastic seeded {target}", model, {"type": "stochastic", "positions": vectors},
              {"target": target}, check_stochastic(substituted(model, vectors, target), ""))

    models = {name: ModelInfo(s["vertices"], s["positions"], s["root_to_sink_paths"])
              for name, s in FIXTURE_STRUCTURE.items()}
    return commands, models


def _check_fixture_build(expected: dict) -> Check:
    def check(code, stdout, stderr):
        problems = _expect_code(code, 0)
        for key, want in expected.items():
            got = value_of(stdout, key)
            if got != str(want):
                problems.append(f"{key} is {got!r}, expected {want!r}")
        if len(section(stdout, "positions")) != expected["positions"]:
            problems.append("[positions] block has the wrong length")
        return problems

    return check


def _check_single(reference, key: str) -> Check:
    def check(code, stdout, stderr):
        return _expect_code(code, 0) + _expect_float(stdout, key, reference())

    return check


def _check_verdict(code_want: int, verdict: str) -> Check:
    def check(code, stdout, stderr):
        return _expect_code(code, code_want) + _expect_prefix(stdout, "verdict", verdict)

    return check


def _check_theta_hat(inner: Check, position: str, want: list) -> Check:
    def check(code, stdout, stderr):
        problems = inner(code, stdout, stderr)
        raw = value_of(stdout, f"theta_hat[{position}]")
        got = [float(x) for x in raw.split()] if raw else []
        if len(got) != len(want) or not all(oracle.close(a, b) for a, b in zip(got, want)):
            problems.append(f"theta_hat[{position}] is {raw!r}, expected {want!r}")
        return problems

    return check


def _check_remedial(raw_doc) -> Check:
    def check(code, stdout, stderr):
        doc = raw_doc()
        problems = _expect_code(code, 0)
        problems += _expect_prefix(stdout, "remedy_class", "imperfect")
        rows = section(stdout, "mixture")[1:]
        if len(rows) != len(REMEDIAL_ROWS):
            return problems + [f"{len(rows)} mixture rows, expected {len(REMEDIAL_ROWS)}"]
        idle = oracle.idle_effect(doc, "fail")
        fixed = oracle.substitution_effect(doc, ["v1"], {"v1": GASKET_POSTERIOR}, "fail")
        terms = []
        for line, (weight, remedied, action) in zip(rows, REMEDIAL_ROWS):
            parts = line.split()
            effect = fixed if remedied != "-" else idle
            if parts[1:3] != [remedied, action] or not oracle.close(float(parts[0]), weight):
                problems.append(f"mixture row {line!r}, expected {weight} {remedied} {action}")
            if not oracle.close(float(parts[3]), effect):
                problems.append(f"mixture row {line!r}: effect differs from {effect!r}")
            terms.append(weight * effect)
        problems += _expect_float(stdout, "expected_effect", sum(terms))
        return problems

    return check


BUILDERS = {
    "build-ladder": build_ladder,
    "query-merged": query_merged,
    "query-search-miss": query_search_miss,
    "fixtures-mix": fixtures_mix,
}
