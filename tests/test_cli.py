import contextlib
import errno
import gc
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import weakref
from pathlib import Path

import click
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings, strategies as st

import cegkit
from cegkit import fixtures, model_io
from cegkit.cli import main

import golden_reports
import oracles
from random_trees import model_payload, random_tree_document

BUSHING_HAT = {"type": "stochastic", "positions": {"w1": [0.1, 0.2, 0.3, 0.4]}}
FAIL_QUERY = {"target": "fail"}


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def workspace(tmp_path):
    """Model and document files most commands need."""
    files = {}
    for name, doc in fixtures.all_documents().items():
        path = tmp_path / f"{name}.json"
        model_io.dump(doc, path)
        files[name] = str(path)

    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    files["dir"] = tmp_path
    files["write"] = write
    files["stochastic"] = write("stochastic.json", BUSHING_HAT)
    files["query"] = write("query.json", FAIL_QUERY)
    return files


def value_of(output: str, key: str) -> str:
    for line in output.splitlines():
        if line.startswith(f"{key}: "):
            return line.split(": ", 1)[1]
    raise AssertionError(f"no {key!r} line in:\n{output}")


def float_of(output: str, key: str) -> float:
    return float(value_of(output, key))


class TestBuild:
    def test_bushing_summary(self, runner, workspace):
        result = runner.invoke(main, ["build", "--model", workspace["bushing"]])
        assert result.exit_code == 0
        assert value_of(result.stdout, "model") == "bushing"
        assert value_of(result.stdout, "positions") == "9"
        assert value_of(result.stdout, "sinks") == "2"
        assert value_of(result.stdout, "edges") == "20"
        assert value_of(result.stdout, "root_to_sink_paths") == "20"
        assert value_of(result.stdout, "fine_cut_root") == "YES"
        assert value_of(result.stdout, "w3") == "v3 v4"
        assert value_of(result.stdout, "u3") == "v3 v4"
        assert value_of(result.stdout, "w8") == "v7 v8 v13 v14 v15 v16"

    def test_dot_outputs(self, runner, workspace, tmp_path):
        out = tmp_path / "dots"
        result = runner.invoke(
            main,
            ["build", "--model", workspace["bushing"], "--out", str(out)],
        )
        assert result.exit_code == 0
        written = sorted(p.name for p in out.iterdir())
        assert written == ["bushing.ceg.dot", "bushing.staged.dot", "bushing.tree.dot"]
        for p in out.iterdir():
            text = p.read_text(encoding="utf-8")
            assert text.startswith("digraph")
            assert text.endswith("}\n")

    def test_vectors_are_checked_once(self, runner, workspace, work):
        # the tree checks every vector; the report is read from the tree and
        # its positions, so no graph is assembled
        result = runner.invoke(main, ["build", "--model", workspace["bushing"]])
        assert result.exit_code == 0
        assert (work["vectors_valid"], work["Ceg"]) == (1, 0)
        assert work["compute_positions"] == 1

    def test_out_assembles_the_graph_once(self, runner, workspace, work, tmp_path):
        # NAME.ceg.dot needs the graph: collapsed once, on the report's positions
        args = ["build", "--model", workspace["bushing"], "--out", str(tmp_path / "dots")]
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        assert (work["vectors_valid"], work["Ceg"]) == (1, 1)
        assert work["compute_positions"] == 1

    def test_missing_file_is_a_parse_error(self, runner, tmp_path):
        result = runner.invoke(
            main, ["build", "--model", str(tmp_path / "nope.json")]
        )
        assert result.exit_code == 4
        assert "cannot read" in result.stderr

    def test_malformed_json_is_a_parse_error(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        result = runner.invoke(main, ["build", "--model", str(bad)])
        assert result.exit_code == 4

    def test_invalid_model_is_a_validation_error(self, runner, workspace):
        raw = json.loads(
            (workspace["dir"] / "bushing.json").read_text(encoding="utf-8")
        )
        raw["theta"]["v0"] = [0.6, 0.5]
        broken = workspace["write"]("unnormalized.json", raw)
        result = runner.invoke(main, ["build", "--model", broken])
        assert result.exit_code == 2
        assert "sums to" in result.stderr

    def test_tolerance_flag_loosens_validation(self, runner, workspace):
        raw = json.loads(
            (workspace["dir"] / "bushing.json").read_text(encoding="utf-8")
        )
        raw["theta"]["v0"] = [0.6, 0.5]
        broken = workspace["write"]("loose.json", raw)
        result = runner.invoke(
            main, ["build", "--model", broken, "--tolerance", "0.2"]
        )
        assert result.exit_code == 0

    @pytest.mark.parametrize("value", ["-1", "nan", "inf"])
    def test_negative_tolerance_rejected(self, runner, workspace, value):
        result = runner.invoke(
            main,
            ["build", "--model", workspace["bushing"], "--tolerance", value],
        )
        assert result.exit_code == 4
        assert result.stderr.startswith("error: tolerance must be ")
        assert result.stderr.count("\n") == 1

    def test_env_tolerance_and_flag_precedence(self, runner, workspace):
        raw = json.loads(
            (workspace["dir"] / "bushing.json").read_text(encoding="utf-8")
        )
        raw["theta"]["v0"] = [0.6, 0.5]
        broken = workspace["write"]("env.json", raw)
        ok = runner.invoke(
            main, ["build", "--model", broken], env={"CEG_TOLERANCE": "0.2"}
        )
        assert ok.exit_code == 0
        overridden = runner.invoke(
            main,
            ["build", "--model", broken, "--tolerance", "1e-12"],
            env={"CEG_TOLERANCE": "0.2"},
        )
        assert overridden.exit_code == 2

    @pytest.mark.parametrize("value", ["not-a-number", "nan", "inf"])
    def test_bad_env_tolerance(self, runner, workspace, value):
        result = runner.invoke(
            main,
            ["build", "--model", workspace["bushing"]],
            env={"CEG_TOLERANCE": value},
        )
        assert result.exit_code == 4
        assert result.stderr.startswith("error: CEG_TOLERANCE ")
        assert result.stderr.count("\n") == 1

    def test_deterministic_output(self, runner, workspace):
        first = runner.invoke(main, ["build", "--model", workspace["bushing"]])
        second = runner.invoke(main, ["build", "--model", workspace["bushing"]])
        assert first.stdout == second.stdout

    def test_declared_stage_error_is_hash_seed_stable(self, workspace):
        raw = json.loads(
            (workspace["dir"] / "bushing.json").read_text(encoding="utf-8")
        )
        raw["stages"] = [["v3", "v4", "v5", "v6", "v1"]]
        model = workspace["write"]("bad_stage.json", raw)
        src = str(Path(cegkit.__file__).resolve().parents[1])
        runs = []
        for seed in ("1", "2"):
            path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
            runs.append(
                subprocess.run(
                    [sys.executable, "-m", "cegkit.cli", "build", "--model", model],
                    capture_output=True,
                    text=True,
                    env=env,
                    timeout=60,
                )
            )
        assert [r.returncode for r in runs] == [4, 4]
        assert runs[0].stderr == runs[1].stderr
        # v3 represents the block; v4 matches it and v5 is the first that does not
        assert runs[0].stderr.rstrip().endswith("violates the stage conditions at v5")


def _bushing_report(name: str) -> str:
    """bushing and bushing_broken differ only in theta, so their reports
    differ only in the name."""
    return "\n".join([
        f"model: {name}", "vertices: 37", "situations: 17", "devents: 16",
        "[stages]",
        "u0: v0", "u1: v1", "u2: v2", "u3: v3 v4", "u4: v5", "u5: v6",
        "u6: v7 v8 v13 v14 v15 v16", "u7: v9 v11", "u8: v10 v12",
        "[positions]",
        "w0: v0", "w1: v1", "w2: v2", "w3: v3 v4", "w4: v5", "w5: v6",
        "w6: v9 v11", "w7: v10 v12", "w8: v7 v8 v13 v14 v15 v16",
        "[graph]",
        "positions: 9", "sinks: 2", "edges: 20",
        "root_to_sink_paths: 20", "failed_paths: 10", "fine_cut_root: YES", "",
    ])


# the whole stdout of `ceg build` on each bundled model
BUILD_REPORTS = {
    "bushing": _bushing_report("bushing"),
    "bushing_broken": _bushing_report("bushing_broken"),
    "conservator": "\n".join([
        "model: conservator", "vertices: 31", "situations: 15", "devents: 8",
        "[stages]",
        "u0: v0", "u1: v1 v2", "u2: v3 v5", "u3: v4 v6", "u4: v7 v9 v10",
        "u5: v8 v11 v12 v13 v14",
        "[positions]",
        "w0: v0", "w1: v1", "w2: v2", "w3: v3", "w4: v4", "w5: v5", "w6: v6",
        "w7: v7 v9 v10", "w8: v8 v11 v12 v13 v14",
        "[graph]",
        "positions: 9", "sinks: 2", "edges: 18",
        "root_to_sink_paths: 16", "failed_paths: 8", "fine_cut_root: YES", "",
    ]),
    "twin": "\n".join([
        "model: twin", "vertices: 31", "situations: 15", "devents: 10",
        "[stages]",
        "u0: v0", "u1: v1", "u2: v2", "u3: v3 v5", "u4: v4 v6", "u5: v7 v11",
        "u6: v8 v12", "u7: v9 v13", "u8: v10 v14",
        "[positions]",
        "w0: v0", "w1: v1", "w2: v2", "w3: v3 v5", "w4: v4 v6", "w5: v7 v11",
        "w6: v8 v12", "w7: v9 v13", "w8: v10 v14",
        "[graph]",
        "positions: 9", "sinks: 2", "edges: 18",
        "root_to_sink_paths: 16", "failed_paths: 8", "fine_cut_root: YES", "",
    ]),
}


@pytest.mark.parametrize("name", sorted(BUILD_REPORTS))
def test_build_report_is_pinned(runner, workspace, name):
    result = runner.invoke(main, ["build", "--model", workspace[name]])
    assert (result.exit_code, result.stdout, result.stderr) == (0, BUILD_REPORTS[name], "")


def chain_document(depth: int) -> dict:
    """A wear chain: every situation fails to a leaf or wears on to the
    next.  The wear situations after the first share one declared stage,
    so no stage inference runs."""
    chain = [f"c{i}" for i in range(depth)]
    vertices, edges, status, theta = list(chain), [], {}, {}
    for i, c in enumerate(chain):
        fail, wear = ("infant_fail", "burn_in") if i == 0 else ("fail", "wear")
        if i + 1 == depth:
            wear = "no_fail"
        vertices.append(f"f{i}")
        status[f"f{i}"] = "failed"
        edges.append({"src": c, "dst": f"f{i}", "devent": fail})
        nxt = chain[i + 1] if i + 1 < depth else "ok"
        edges.append({"src": c, "dst": nxt, "devent": wear})
        theta[c] = [0.5, 0.5]
    vertices.append("ok")
    status["ok"] = "operational"
    devents = ("infant_fail", "burn_in", "fail", "wear", "no_fail")
    return {
        "name": "chain",
        "devents": [{"id": d} for d in devents],
        "vertices": vertices,
        "edges": edges,
        "leaf_status": status,
        "theta": theta,
        "stages": [chain[1:-1]],
    }


class TestOutputStreams:
    # a build report goes to stdout; a missing model is an error on stderr
    @pytest.mark.parametrize(
        "redirect,args",
        [
            pytest.param(
                contextlib.redirect_stdout,
                ["build", "--model", "bushing.json"],
                id="redirect_stdout",
            ),
            pytest.param(
                contextlib.redirect_stderr,
                ["build", "--model", "missing.json"],
                id="redirect_stderr",
            ),
            pytest.param(contextlib.redirect_stdout, ["build", "--help"], id="build_help"),
            pytest.param(contextlib.redirect_stdout, ["--help"], id="group_help"),
        ],
    )
    def test_in_process_run_releases_its_stream(self, workspace, redirect, args):
        args = [str(workspace["dir"] / a) if a.endswith(".json") else a for a in args]
        buffer = io.StringIO()
        with redirect(buffer):
            try:
                main(args)
            except SystemExit:
                pass
        assert buffer.getvalue()
        released = weakref.ref(buffer)
        del buffer
        gc.collect()
        assert released() is None


class TestDeepModels:
    def test_deep_chain_builds_and_queries(self, runner, workspace):
        write = workspace["write"]
        model = write("chain.json", chain_document(1500))
        built = runner.invoke(main, ["build", "--model", model])
        assert built.exit_code == 0, built.output
        assert value_of(built.stdout, "root_to_sink_paths") == "1501"
        intervention = write(
            "chain_hat.json", {"type": "stochastic", "positions": {"w0": [0.3, 0.7]}}
        )
        queried = runner.invoke(
            main,
            [
                "query",
                "--model", model,
                "--intervention", intervention,
                "--query", workspace["query"],
            ],
        )
        assert queried.exit_code == 0, queried.output
        assert value_of(queried.stdout, "agreement").startswith("OK")

    def test_deep_chain_infers_the_declared_stages(self, runner, workspace):
        write = workspace["write"]
        declared = chain_document(1500)
        inferred = dict(declared)
        inferred.pop("stages")
        reports = [
            runner.invoke(main, ["build", "--model", write(name, doc)])
            for name, doc in (("declared.json", declared), ("inferred.json", inferred))
        ]
        for result in reports:
            assert result.exit_code == 0, result.output
            assert value_of(result.stdout, "root_to_sink_paths") == "1501"
        blocks = [r.stdout.split("[graph]")[0].split("[stages]")[1] for r in reports]
        assert blocks[0] == blocks[1]

    def test_deep_chain_underflow_is_a_one_line_error(self, runner, workspace):
        write = workspace["write"]
        model = write("chain.json", chain_document(1500))
        intervention = write(
            "chain_hat.json", {"type": "stochastic", "positions": {"w1100": [0.3, 0.7]}}
        )
        result = runner.invoke(
            main,
            [
                "query",
                "--model", model,
                "--intervention", intervention,
                "--query", workspace["query"],
            ],
        )
        assert result.exit_code == 3
        assert result.exception is None or isinstance(result.exception, SystemExit)
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "underflows" in lines[0]

    @pytest.mark.parametrize(
        "intervention",
        [
            {"type": "stochastic", "positions": {"w1100": [0.3, 0.7]}},
            {"type": "singular", "edge": "w1100->w1101#1"},
        ],
        ids=["stochastic", "singular"],
    )
    def test_deep_chain_partition_check_underflow_is_a_one_line_error(
        self, runner, workspace, intervention
    ):
        # the criterion-1 totals at w1100 underflow to zero
        write = workspace["write"]
        args = [
            "check-backdoor",
            "--model", write("chain.json", chain_document(1500)),
            "--intervention", write("chain_hat.json", intervention),
        ]
        supplied = write("chain_query.json", {"target": "fail", "partition": {
            "kind": "edges", "blocks": [["w1100->winf_f#1"], ["w1100->w1101#1"]]}})
        result = runner.invoke(main, [*args, "--query", supplied])
        assert (result.exit_code, result.stdout, result.stderr) == (
            3, "", "error: the intervened paths through w1100->winf_f#1 have no mass\n"
        )
        searched = runner.invoke(main, [*args, "--query", workspace["query"]])
        assert (searched.exit_code, searched.stdout) == (3, "verdict: NOT FOUND\n")


class TestQueryStochastic:
    def test_effects_agree_and_partition_found(self, runner, workspace):
        result = runner.invoke(
            main,
            [
                "query",
                "--model", workspace["bushing"],
                "--intervention", workspace["stochastic"],
                "--query", workspace["query"],
            ],
        )
        assert result.exit_code == 0
        oracle = float_of(result.stdout, "oracle")
        assert oracle == pytest.approx(0.6065, abs=1e-12)
        assert float_of(result.stdout, "devent_formula") == pytest.approx(
            oracle, abs=1e-12
        )
        assert float_of(result.stdout, "edge_formula") == pytest.approx(
            oracle, abs=1e-12
        )
        assert float_of(result.stdout, "adjustment") == pytest.approx(
            oracle, abs=1e-12
        )
        assert value_of(result.stdout, "agreement").startswith("OK")
        assert value_of(result.stdout, "fine_cut") == "NO"
        assert value_of(result.stdout, "verdict").startswith("VERIFIED (colour")
        assert value_of(result.stdout, "pruned") == "w2"

    def test_routes_that_disagree_print_the_report_then_exit_3(
        self, runner, workspace, monkeypatch
    ):
        edge_value = cegkit.causal._edge_value
        monkeypatch.setattr(cegkit.causal, "_edge_value", lambda *a: edge_value(*a) + 1.0)
        result = runner.invoke(
            main,
            [
                "query",
                "--model", workspace["bushing"],
                "--intervention", workspace["stochastic"],
                "--query", workspace["query"],
            ],
        )
        assert result.exit_code == 3
        assert float_of(result.stdout, "edge_formula") == pytest.approx(1.6065, abs=1e-12)
        assert value_of(result.stdout, "agreement").startswith("FAIL (spread ")
        assert value_of(result.stdout, "verdict").startswith("VERIFIED")
        assert result.stderr == "error: effect formulas disagree beyond tolerance\n"

    def test_supplied_partition_is_used(self, runner, workspace):
        query = workspace["write"](
            "query_devents.json",
            {
                "target": "fail",
                "partition": {
                    "kind": "devents",
                    "blocks": [
                        ["oil_leak", "oil_loss", "thermal"],
                        ["no_leak", "oil_mix", "electrical"],
                    ],
                },
            },
        )
        result = runner.invoke(
            main,
            [
                "query",
                "--model", workspace["bushing"],
                "--intervention", workspace["stochastic"],
                "--query", query,
            ],
        )
        assert result.exit_code == 0
        assert value_of(result.stdout, "verdict").startswith("VERIFIED (devents")

    def test_broken_model_fails_supplied_partition(self, runner, workspace):
        query = workspace["write"](
            "query_broken.json",
            {
                "target": "fail",
                "partition": {
                    "kind": "devents",
                    "blocks": [
                        ["oil_leak", "oil_loss", "thermal"],
                        ["no_leak", "oil_mix", "electrical"],
                    ],
                },
            },
        )
        result = runner.invoke(
            main,
            [
                "query",
                "--model", workspace["bushing_broken"],
                "--intervention", workspace["stochastic"],
                "--query", query,
            ],
        )
        assert result.exit_code == 3
        assert value_of(result.stdout, "verdict") == "FAILED"
        assert re.search(r" NO$", result.stdout, re.MULTILINE)

    def test_conservator_fine_cut_and_stage_partition(self, runner, workspace):
        intervention = workspace["write"](
            "cons_int.json",
            {"type": "stochastic", "positions": {"w0": [0.25, 0.75]}},
        )
        result = runner.invoke(
            main,
            [
                "query",
                "--model", workspace["conservator"],
                "--intervention", intervention,
                "--query", workspace["query"],
            ],
        )
        assert result.exit_code == 0
        assert value_of(result.stdout, "fine_cut") == "YES"
        assert float_of(result.stdout, "oracle") == pytest.approx(
            0.349, abs=1e-12
        )
        assert value_of(result.stdout, "verdict").startswith("VERIFIED (stages")

    def test_invalid_manipulation_is_a_validation_error(self, runner, workspace):
        bad = workspace["write"](
            "bad_hat.json",
            {"type": "stochastic", "positions": {"w1": [0.1, 0.2, 0.3, 0.5]}},
        )
        result = runner.invoke(
            main,
            [
                "query",
                "--model", workspace["bushing"],
                "--intervention", bad,
                "--query", workspace["query"],
            ],
        )
        assert result.exit_code == 2

    def test_leaking_devent_is_an_identification_error(self, runner, workspace):
        lone = workspace["write"](
            "twin_lone.json",
            {"type": "stochastic", "positions": {"w1": [0.2, 0.8]}},
        )
        result = runner.invoke(
            main,
            [
                "query",
                "--model", workspace["twin"],
                "--intervention", lone,
                "--query", workspace["query"],
            ],
        )
        assert result.exit_code == 3
        assert "outside" in result.stderr
        assert result.stdout == ""


class TestQueryOtherTypes:
    def test_singular(self, runner, workspace):
        intervention = workspace["write"](
            "force.json", {"type": "singular", "edge": "w1->w3#1"}
        )
        result = runner.invoke(
            main,
            [
                "query",
                "--model", workspace["bushing"],
                "--intervention", intervention,
                "--query", workspace["query"],
            ],
        )
        assert result.exit_code == 0
        assert value_of(result.stdout, "edge") == "w1->w3#1"
        assert float_of(result.stdout, "forced_effect") == pytest.approx(
            0.575, abs=1e-12
        )

    def _remedial(self, runner, workspace):
        intervention = workspace["write"](
            "remedial.json",
            {"type": "remedial", **BUSHING_PRIOR, "record": REMEDIAL_RECORD},
        )
        return runner.invoke(
            main,
            [
                "query",
                "--model", workspace["bushing"],
                "--intervention", intervention,
                "--query", workspace["query"],
            ],
        )

    def test_remedial_mixture(self, runner, workspace):
        result = self._remedial(runner, workspace)
        assert result.exit_code == 0
        assert value_of(result.stdout, "remedy_class") == "imperfect"
        mixture_rows = [
            line
            for line in result.stdout.splitlines()
            if line.startswith(("0.2", "0.3", "0.4"))
        ]
        assert len(mixture_rows) == 3
        expected = float_of(result.stdout, "expected_effect")
        hand = 0.0
        for row in mixture_rows:
            parts = row.split()
            hand += float(parts[0]) * float(parts[3])
        assert expected == pytest.approx(hand, abs=1e-12)

    def test_remedial_mixture_builds_one_prior_and_one_idle_pass(
        self, runner, workspace, work
    ):
        # the remedied term's mean reads the document's prior, and the two
        # terms that remedy nothing share one idle pass
        assert self._remedial(runner, workspace).exit_code == 0
        assert (work["DirichletFloretPrior"], work["idle_target_mass"]) == (1, 1)

    def test_expected_effect_is_the_library_mixture(self, runner, workspace):
        # a running sum of the rows would print 0.61376923076923084
        record = {
            "remedy": "swap",
            "delta": 0,
            "actions": [
                {"id": "a", "prob": 0.1, "outcomes": [{"remedied": ["w1->w3#1"], "prob": 1.0}]},
                {"id": "b", "prob": 0.2, "outcomes": [{"remedied": ["w1->w3#2"], "prob": 1.0}]},
                {"id": "c", "prob": 0.7, "outcomes": [{"remedied": ["w2->w8#1"], "prob": 1.0}]},
            ],
        }
        intervention = workspace["write"](
            "mixture.json", {"type": "remedial", **BUSHING_PRIOR, "record": record}
        )
        result = runner.invoke(
            main,
            [
                "query",
                "--model", workspace["bushing"],
                "--intervention", intervention,
                "--query", workspace["query"],
            ],
        )
        assert result.exit_code == 0
        graph = cegkit.ceg_from_document(fixtures.bushing_document())
        library = oracles.expected_effect_imperfect(
            graph,
            cegkit.intervention.record_from_raw(graph, record),
            cegkit.DirichletFloretPrior(
                alpha={w: tuple(v) for w, v in BUSHING_PRIOR["alpha"].items()},
                eta={w: tuple(v) for w, v in BUSHING_PRIOR["eta"].items()},
            ),
            "fail",
        )
        assert value_of(result.stdout, "expected_effect") == f"{library:.17g}"
        assert f"{library:.17g}" == "0.61376923076923073"

    def test_hidden_action_sums_follow_the_tolerance(self, runner, workspace):
        # hidden-action probabilities summing to 1 + 1e-10
        intervention = workspace["write"](
            "remedial_off.json",
            {
                "type": "remedial",
                "alpha": {"w1": [3, 2, 2.5, 2.5], "w2": [3, 2]},
                "eta": {"w1": [1, 1, 1, 1], "w2": [1, 1]},
                "record": {
                    "remedy": "swap",
                    "delta": 0,
                    "actions": [
                        {
                            "id": "swap_seal",
                            "prob": 0.6 + 1e-10,
                            "outcomes": [{"remedied": ["w1->w3#1"], "prob": 1.0}],
                        },
                        {
                            "id": "no_action",
                            "prob": 0.4,
                            "outcomes": [{"remedied": [], "prob": 1.0}],
                        },
                    ],
                },
            },
        )
        args = [
            "query",
            "--model", workspace["bushing"],
            "--intervention", intervention,
            "--query", workspace["query"],
        ]
        strict = runner.invoke(main, args)
        assert strict.exit_code == 2
        assert strict.stderr.startswith("error: hidden-action probabilities sum to")
        loose = runner.invoke(main, [*args, "--tolerance", "1e-9"])
        assert loose.exit_code == 0, loose.output
        assert value_of(loose.stdout, "remedy_class") == "imperfect"

    def test_indicators_nothing_remedied(self, runner, workspace):
        intervention = workspace["write"](
            "noop.json",
            {
                "type": "indicators",
                "indicators": {
                    "w1->w3#1": 0, "w1->w3#2": 0, "w1->w4#1": 0,
                    "w1->w5#1": 0, "w2->w8#1": 0, "w2->w8#2": 0,
                },
                "alpha": {"w1": [3, 2, 2.5, 2.5], "w2": [3, 2]},
                "eta": {"w1": [1, 1, 1, 1], "w2": [1, 1]},
            },
        )
        result = runner.invoke(
            main,
            [
                "query",
                "--model", workspace["bushing"],
                "--intervention", intervention,
                "--query", workspace["query"],
            ],
        )
        assert result.exit_code == 0
        assert float_of(result.stdout, "idle_effect") == pytest.approx(
            0.60425, abs=1e-12
        )

    def test_indicators_remedy_runs_stochastic_flow(self, runner, workspace):
        intervention = workspace["write"](
            "fix_gasket.json",
            {
                "type": "indicators",
                "indicators": {
                    "w1->w3#1": 1, "w1->w3#2": 0, "w1->w4#1": 0,
                    "w1->w5#1": 0, "w2->w8#1": 0, "w2->w8#2": 0,
                },
                "alpha": {"w1": [3, 2, 2.5, 2.5], "w2": [3, 2]},
                "eta": {"w1": [1, 1, 1, 1], "w2": [1, 1]},
            },
        )
        result = runner.invoke(
            main,
            [
                "query",
                "--model", workspace["bushing"],
                "--intervention", intervention,
                "--query", workspace["query"],
            ],
        )
        assert result.exit_code == 0
        total = 3.0 + 3.0 + 3.5 + 3.5
        hat = value_of(result.stdout, "theta_hat[w1]").split()
        assert [float(x) for x in hat] == pytest.approx(
            [3.0 / total, 3.0 / total, 3.5 / total, 3.5 / total], abs=1e-15
        )
        assert value_of(result.stdout, "agreement").startswith("OK")

    # remedying w1->w3#1 under this prior updates w1's mean to its idle
    # vector (0.3, 0.2, 0.25, 0.25): no position is intervened
    IDLE_MEAN_PRIOR = {
        "alpha": {"w1": [3, 1, 1.5, 1.5], "w2": [3, 2]},
        "eta": {"w1": [1, 1, 1, 1], "w2": [1, 1]},
    }

    def _query(self, runner, workspace, name, payload):
        intervention = workspace["write"](name, payload)
        return runner.invoke(main, [
            "query",
            "--model", workspace["bushing"],
            "--intervention", intervention,
            "--query", workspace["query"],
        ])

    def test_indicators_whose_mean_is_the_idle_vector_print_the_idle_effect(
        self, runner, workspace
    ):
        causes = {"w1->w3#2": 0, "w1->w4#1": 0, "w1->w5#1": 0, "w2->w8#1": 0, "w2->w8#2": 0}
        idle, gasket = (
            self._query(runner, workspace, f"{name}.json", {
                "type": "indicators", "indicators": {"w1->w3#1": value, **causes},
                **self.IDLE_MEAN_PRIOR,
            })
            for name, value in (("idle", 0), ("gasket", 1))
        )
        assert (gasket.exit_code, gasket.stderr) == (0, "")
        assert gasket.stdout == idle.stdout
        assert value_of(gasket.stdout, "idle_effect") == "0.60425000000000006"

    def test_a_remedial_term_whose_mean_is_the_idle_vector_takes_the_idle_effect(
        self, runner, workspace
    ):
        result = self._query(runner, workspace, "remedial.json", {
            "type": "remedial", **self.IDLE_MEAN_PRIOR,
            "record": {"remedy": "swap", "delta": 0, "actions": [
                {"id": "swap_seal", "prob": 0.6, "outcomes": [
                    {"remedied": ["w1->w3#1"], "prob": 0.5}, {"remedied": [], "prob": 0.5},
                ]},
                {"id": "no_action", "prob": 0.4, "outcomes": [{"remedied": [], "prob": 1.0}]},
            ]},
        })
        assert (result.exit_code, result.stderr) == (0, "")
        lines = result.stdout.splitlines()
        header = lines.index("weight remedied action effect")
        assert lines[header + 1 : lines.index("[effects]")] == [
            "0.29999999999999999 w1->w3#1 swap_seal 0.60425000000000006",
            "0.29999999999999999 - swap_seal 0.60425000000000006",
            "0.40000000000000002 - no_action 0.60425000000000006",
        ]
        assert value_of(result.stdout, "expected_effect") == "0.60425000000000006"

    def test_unknown_target_is_a_validation_error(self, runner, workspace):
        query = workspace["write"]("melt.json", {"target": "melt"})
        result = runner.invoke(
            main,
            [
                "query",
                "--model", workspace["bushing"],
                "--intervention", workspace["stochastic"],
                "--query", query,
            ],
        )
        assert result.exit_code == 2


class TestCheckBackdoor:
    def test_search_verifies_bushing(self, runner, workspace):
        result = runner.invoke(
            main,
            [
                "check-backdoor",
                "--model", workspace["bushing"],
                "--intervention", workspace["stochastic"],
                "--query", workspace["query"],
            ],
        )
        assert result.exit_code == 0
        assert value_of(result.stdout, "verdict").startswith("VERIFIED (colour")
        assert "criterion position devent edge block lhs rhs ok" in result.stdout

    def test_twin_two_position_intervention(self, runner, workspace):
        intervention = workspace["write"](
            "twin_both.json",
            {
                "type": "stochastic",
                "positions": {"w1": [0.2, 0.8], "w2": [0.45, 0.55]},
            },
        )
        result = runner.invoke(
            main,
            [
                "check-backdoor",
                "--model", workspace["twin"],
                "--intervention", intervention,
                "--query", workspace["query"],
            ],
        )
        assert result.exit_code == 0
        assert value_of(result.stdout, "verdict").startswith("VERIFIED")

    def test_broken_model_fails(self, runner, workspace):
        query = workspace["write"](
            "qb.json",
            {
                "target": "fail",
                "partition": {
                    "kind": "devents",
                    "blocks": [
                        ["oil_leak", "oil_loss", "thermal"],
                        ["no_leak", "oil_mix", "electrical"],
                    ],
                },
            },
        )
        result = runner.invoke(
            main,
            [
                "check-backdoor",
                "--model", workspace["bushing_broken"],
                "--intervention", workspace["stochastic"],
                "--query", query,
            ],
        )
        assert result.exit_code == 3
        assert value_of(result.stdout, "verdict").startswith("FAILED")

    def test_singular_intervention_uses_edge_source(self, runner, workspace):
        intervention = workspace["write"](
            "force2.json", {"type": "singular", "edge": "w1->w4#1"}
        )
        result = runner.invoke(
            main,
            [
                "check-backdoor",
                "--model", workspace["bushing"],
                "--intervention", intervention,
                "--query", workspace["query"],
            ],
        )
        assert result.exit_code == 0
        assert value_of(result.stdout, "verdict").startswith("VERIFIED")

    @pytest.mark.parametrize(
        "intervention,query",
        [
            ({"type": "singular", "edge": "w99->w3#1"}, FAIL_QUERY),
            (
                BUSHING_HAT,
                {"target": "fail", "partition": {"kind": "positions", "blocks": [["w99"]]}},
            ),
        ],
        ids=["singular_edge", "partition_selector"],
    )
    def test_unknown_position_message(self, runner, workspace, intervention, query):
        # one failure mode, one message form in both commands: no repr
        # quotes around the id
        for command in ("query", "check-backdoor"):
            result = runner.invoke(
                main,
                [
                    command,
                    "--model", workspace["bushing"],
                    "--intervention", workspace["write"]("unknown_w.json", intervention),
                    "--query", workspace["write"]("unknown_q.json", query),
                ],
            )
            assert (result.exit_code, result.stdout, result.stderr) == (
                2, "", "error: unknown position w99\n"
            ), command

    @pytest.mark.parametrize("edge", ["w1->w99#1", "w1->w3#7"])
    def test_unknown_singular_edge_fails_as_in_query(self, runner, workspace, edge):
        intervention = workspace["write"]("bad_edge.json", {"type": "singular", "edge": edge})
        for command in ("query", "check-backdoor"):
            result = runner.invoke(
                main,
                [
                    command,
                    "--model", workspace["bushing"],
                    "--intervention", intervention,
                    "--query", workspace["query"],
                ],
            )
            assert (result.exit_code, result.stdout, result.stderr) == (
                2, "", f"error: no edge {edge}\n"
            ), command

    def test_singular_edge_checked_before_the_target(self, runner, workspace):
        intervention = workspace["write"](
            "bad_edge.json", {"type": "singular", "edge": "w1->w99#1"}
        )
        for command in ("query", "check-backdoor"):
            result = runner.invoke(
                main,
                [
                    command,
                    "--model", workspace["bushing"],
                    "--intervention", intervention,
                    "--query", workspace["write"]("bad_target.json", {"target": "nope"}),
                ],
            )
            assert (result.exit_code, result.stderr) == (
                2, "error: no edge w1->w99#1\n"
            ), command

    def test_remedial_type_rejected(self, runner, workspace):
        intervention = workspace["write"](
            "rem.json",
            {
                "type": "remedial",
                "alpha": {"w1": [1, 1, 1, 1]},
                "eta": {"w1": [1, 1, 1, 1]},
                "record": {"remedy": "swap", "delta": 1, "indicators": []},
            },
        )
        result = runner.invoke(
            main,
            [
                "check-backdoor",
                "--model", workspace["bushing"],
                "--intervention", intervention,
                "--query", workspace["query"],
            ],
        )
        assert result.exit_code == 4


BUSHING_PRIOR = {
    "alpha": {"w1": [3, 2, 2.5, 2.5], "w2": [3, 2]},
    "eta": {"w1": [1, 1, 1, 1], "w2": [1, 1]},
}
# one action remedies the gasket edge half the time; the other two terms
# remedy nothing
REMEDIAL_RECORD = {
    "remedy": "swap",
    "delta": 0,
    "actions": [
        {"id": "swap_seal", "prob": 0.6, "outcomes": [
            {"remedied": ["w1->w3#1"], "prob": 0.5}, {"remedied": [], "prob": 0.5}]},
        {"id": "no_action", "prob": 0.4, "outcomes": [{"remedied": [], "prob": 1.0}]},
    ],
}
# every field of these documents gets each junk value in turn
MALFORMED_BASES = {
    "stochastic": ("intervention", BUSHING_HAT),
    "singular": ("intervention", {"type": "singular", "edge": "w1->w3#1"}),
    "indicators": (
        "intervention",
        {"type": "indicators", "indicators": {"w1->w3#1": 1, "w1->w3#2": 0}, **BUSHING_PRIOR},
    ),
    "remedial": (
        "intervention",
        {
            "type": "remedial",
            **BUSHING_PRIOR,
            "indicators": {"w1->w3#1": 0},
            "record": {
                "remedy": "swap",
                "delta": 0,
                "p_delta": 0.9,
                "indicators": ["w1->w3#1"],
                "actions": [
                    {
                        "id": "swap_seal",
                        "prob": 0.6,
                        "outcomes": [
                            {"remedied": ["w1->w3#1"], "prob": 0.5},
                            {"remedied": [], "prob": 0.5},
                        ],
                    },
                    {"id": "no_action", "prob": 0.4, "outcomes": [{"prob": 1.0}]},
                ],
            },
        },
    ),
    "search_query": ("query", FAIL_QUERY),
    "partition_query": (
        "query",
        {
            "target": "fail",
            "partition": {"kind": "devents", "blocks": [["oil_leak"], ["no_leak"]]},
        },
    ),
}
JUNK = ("x", None, True, 0, [], {}, [None])


def _fields(doc, at=(), ends=False):
    """Key paths of every value in a JSON document, the root first.  With
    ``ends``, only the first and last entry of each list."""
    yield at
    if isinstance(doc, dict):
        children = doc.items()
    elif isinstance(doc, list):
        children = list(enumerate(doc))
        if ends:
            children = children[:1] + children[1:][-1:]
    else:
        return
    for key, value in children:
        yield from _fields(value, at + (key,), ends)


def _at(doc, at):
    """The value at key path ``at``."""
    for key in at:
        doc = doc[key]
    return doc


def _copy(doc):
    return json.loads(json.dumps(doc))


def _replaced(doc, at, value):
    if not at:
        return value
    doc = _copy(doc)
    _at(doc, at[:-1])[at[-1]] = value
    return doc


# oversized JSON number literals, each with the float literal it must read
# like (None: none); a literal over the interpreter's digit limit is not
# decoded at all
_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
OVERSIZED = (
    ("9" * 400, "1e400"),
    ("-" + "9" * 400, "-1e400"),
    ("9" * 5000, None if 0 < _DIGIT_LIMIT < 5000 else "1e400"),
)
# integer fields, where 1e400 is no integer and fails another way
INTEGER_KEYS = {"index"}


def _number_fields(doc, ends=False):
    """Key paths of every JSON number in a document."""
    for at in _fields(doc, ends=ends):
        value = _at(doc, at)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            yield at


def _with_literal(doc, at, literal: str) -> str:
    """The document's JSON text with the value at ``at`` written as ``literal``."""
    marker = "__literal__"
    return json.dumps(_replaced(doc, at, marker)).replace(f'"{marker}"', literal)


def _one_error_line(result) -> bool:
    """A documented exit code, at most one ``error:`` line, and no partial
    report on a rejected input."""
    lines = result.stderr.splitlines()
    return (
        result.exit_code in (0, 2, 3, 4)
        and (not lines or (len(lines) == 1 and lines[0].startswith("error:")))
        and not (result.exit_code in (2, 4) and result.stdout)
    )


def run_reading(runner, workspace, role: str, path) -> dict:
    """Every command that reads a document of ``role`` (model, intervention
    or query), with that document read from ``path``: command -> result."""
    files = {
        "model": workspace["bushing"],
        "intervention": workspace["stochastic"],
        "query": workspace["query"],
    }
    files[role] = str(path)
    model = ["--model", files["model"]]
    documents = [*model, "--intervention", files["intervention"], "--query", files["query"]]
    commands = {"query": ["query", *documents], "check-backdoor": ["check-backdoor", *documents]}
    if role != "query":
        commands["export-dot manipulated"] = [
            "export-dot", "--kind", "manipulated", *model,
            "--intervention", files["intervention"],
        ]
    if role == "model":
        commands["build"] = ["build", *model]
        commands["export-dot ceg"] = ["export-dot", "--kind", "ceg", *model]
    return {name: runner.invoke(main, args) for name, args in commands.items()}


class TestMalformedFields:
    @pytest.mark.parametrize("name", sorted(MALFORMED_BASES))
    def test_junk_field_ends_in_one_error_line(self, runner, workspace, name):
        role, doc = MALFORMED_BASES[name]
        bad = []
        for at in _fields(doc):
            for junk in JUNK:
                files = {"intervention": workspace["stochastic"], "query": workspace["query"]}
                files[role] = workspace["write"]("junk.json", _replaced(doc, at, junk))
                results = {}
                for command in ("query", "check-backdoor"):
                    result = results[command] = runner.invoke(
                        main,
                        [
                            command,
                            "--model", workspace["bushing"],
                            "--intervention", files["intervention"],
                            "--query", files["query"],
                        ],
                    )
                    lines = result.stderr.splitlines()
                    if result.exit_code not in (0, 2, 3, 4) or not (
                        not lines or (len(lines) == 1 and lines[0].startswith("error:"))
                    ):
                        bad.append((command, at, junk, result.exit_code, result.exception))
                    # a rejected input leaves no partial report
                    if result.exit_code in (2, 4) and result.stdout:
                        bad.append((command, at, junk, result.stdout))
                # both commands validate a stochastic document the same way
                query, check = results["query"], results["check-backdoor"]
                if name == "stochastic" and query.exit_code == 2 and (
                    (check.exit_code, check.stderr) != (2, query.stderr)
                ):
                    bad.append(("check-backdoor", at, junk, check.exit_code, check.stderr))
        assert not bad

    def test_junk_model_field_ends_in_one_error_line(self, runner, workspace):
        # the parser treats the entries of one list alike, so the first and
        # last entry of each stand for the rest.  The DOT writers run only
        # on models that ``build`` accepts: the rest fail in the same reader.
        doc = json.loads(Path(workspace["bushing"]).read_text(encoding="utf-8"))
        stochastic = ["--intervention", workspace["stochastic"]]
        commands = {
            "build": ["build"],
            "query": ["query", *stochastic, "--query", workspace["query"]],
        }
        dot_commands = {
            "build --out": ["build", "--out", str(workspace["dir"] / "junk_dot")],
            **{f"export-dot {kind}": ["export-dot", "--kind", kind]
               for kind in ("tree", "staged", "ceg")},
            "export-dot manipulated": ["export-dot", "--kind", "manipulated", *stochastic],
        }
        bad = []
        for at in _fields(doc, ends=True):
            for junk in JUNK:
                model = workspace["write"]("junk_model.json", _replaced(doc, at, junk))
                results = {}

                def run(command, args):
                    result = results[command] = runner.invoke(main, [*args, "--model", model])
                    lines = result.stderr.splitlines()
                    if result.exit_code not in (0, 2, 3, 4) or not (
                        not lines or (len(lines) == 1 and lines[0].startswith("error:"))
                    ):
                        bad.append((command, at, junk, result.exit_code, result.exception))
                    if result.exit_code in (2, 4) and result.stdout:
                        bad.append((command, at, junk, result.stdout))

                for command, args in commands.items():
                    run(command, args)
                if results["build"].exit_code == 0:
                    for command, args in dot_commands.items():
                        run(command, args)
                # both commands read a model through the same pipeline
                build, query = results["build"], results["query"]
                if build.exit_code in (2, 4) and (
                    (query.exit_code, query.stderr) != (build.exit_code, build.stderr)
                ):
                    bad.append(("query", at, junk, query.exit_code, query.stderr))
        assert not bad

    @pytest.mark.parametrize(
        "at,junk",
        [
            (("stages",), [None]),
            (("stages", 0), None),
            (("stages", 0), True),
            (("stages", 0), 0),
            (("stages", 0), "v3"),
            (("stages", 0), {"v3": 1, "v4": 1}),
            (("root_causes",), None),
            (("root_causes",), True),
            (("root_causes",), 0),
            (("root_causes",), "abc"),
            (("root_causes",), {"gasket": 1}),
        ],
    )
    @pytest.mark.parametrize("command", ["build", "query"])
    def test_model_list_field_must_be_a_list(self, runner, workspace, command, at, junk):
        doc = json.loads(Path(workspace["bushing"]).read_text(encoding="utf-8"))
        args = [command, "--model", workspace["write"]("bad.json", _replaced(doc, at, junk))]
        if command == "query":
            args += ["--intervention", workspace["stochastic"], "--query", workspace["query"]]
        result = runner.invoke(main, args)
        line = {
            "stages": "error: stages must be a list of vertex lists\n",
            "root_causes": "error: root_causes must be a list of d-event ids\n",
        }[at[0]]
        assert (result.exit_code, result.stdout, result.stderr) == (4, "", line)

    @pytest.mark.parametrize("junk", [True, 0, 5, 1.5, [], [None], {}, {"a": 1}])
    @pytest.mark.parametrize("at", [("name",), ("devents", 0, "text")])
    def test_model_text_field_must_be_a_string(self, runner, workspace, at, junk):
        # a non-string name reached the DOT writers and ended in a traceback
        doc = json.loads(Path(workspace["bushing"]).read_text(encoding="utf-8"))
        model = workspace["write"]("bad.json", _replaced(doc, at, junk))
        line = f"error: key {at[-1]!r} has wrong type {type(junk).__name__}\n"
        for args in (
            ["build"],
            ["build", "--out", str(workspace["dir"] / "dot")],
            ["export-dot", "--kind", "ceg"],
        ):
            result = runner.invoke(main, [*args, "--model", model])
            assert (result.exit_code, result.stdout, result.stderr) == (4, "", line)

    @pytest.mark.parametrize("junk", [1.0, True])
    @pytest.mark.parametrize("command", ["build", "query"])
    def test_edge_index_must_be_an_integer(self, runner, workspace, command, junk):
        doc = json.loads(Path(workspace["bushing"]).read_text(encoding="utf-8"))
        bad = _replaced(doc, ("edges", 0, "index"), junk)
        args = [command, "--model", workspace["write"]("bad.json", bad)]
        if command == "query":
            args += ["--intervention", workspace["stochastic"], "--query", workspace["query"]]
        result = runner.invoke(main, args)
        line = "error: edge v0->v1: index must be an integer\n"
        assert (result.exit_code, result.stdout, result.stderr) == (4, "", line)

    @pytest.mark.parametrize(
        "field,value,code,line",
        [
            # an unknown root cause was accepted, and an indicators query
            # failed far from it
            ("root_causes", ["gasket", "nope"], 4,
             "error: root_causes names unknown d-event 'nope'\n"),
            # theta entries for a leaf or an unknown id were ignored
            ("theta", {"v7f": [0.5, 0.5]}, 4,
             "error: theta given for non-situation vertex 'v7f'\n"),
            ("theta", {"nope": [0.5, 0.5]}, 4,
             "error: theta given for non-situation vertex 'nope'\n"),
            # a status for an unknown id was called one for a non-leaf
            ("leaf_status", {"nope": "failed"}, 2,
             "error: status given for unknown vertex nope\n"),
        ],
    )
    @pytest.mark.parametrize("command", ["build", "query"])
    def test_model_entry_names_nothing_of_its_kind(
        self, runner, workspace, command, field, value, code, line
    ):
        doc = json.loads(Path(workspace["bushing"]).read_text(encoding="utf-8"))
        doc[field] = value if field == "root_causes" else {**doc[field], **value}
        args = [command, "--model", workspace["write"]("bad.json", doc)]
        if command == "query":
            args += ["--intervention", workspace["stochastic"], "--query", workspace["query"]]
        result = runner.invoke(main, args)
        assert (result.exit_code, result.stdout, result.stderr) == (code, "", line)

    @pytest.mark.parametrize("command", ["query", "check-backdoor"])
    def test_rejected_record_leaves_stdout_empty(self, runner, workspace, command):
        _, doc = MALFORMED_BASES["remedial"]
        bad = workspace["write"]("bad.json", _replaced(doc, ("record", "p_delta"), "x"))
        result = runner.invoke(
            main,
            [
                command,
                "--model", workspace["bushing"],
                "--intervention", bad,
                "--query", workspace["query"],
            ],
        )
        assert result.exit_code == 4
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")

    @pytest.mark.parametrize(
        "at,junk",
        [
            (("record", "actions", 0, "id"), None),
            (("record", "actions", 0, "id"), []),
            (("record", "actions", 0, "id"), {}),
            (("record", "delta"), True),
            (("indicators", "w1->w3#1"), True),
            (("alpha", "w5"), []),
            (("eta", "w5"), []),
        ],
    )
    def test_junk_once_accepted_is_a_parse_error(self, runner, workspace, at, junk):
        _, doc = MALFORMED_BASES["remedial"]
        bad = workspace["write"]("bad.json", _replaced(doc, at, junk))
        result = runner.invoke(
            main,
            [
                "query",
                "--model", workspace["bushing"],
                "--intervention", bad,
                "--query", workspace["query"],
            ],
        )
        assert result.exit_code == 4
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")

    @staticmethod
    def _document(workspace, role: str) -> dict:
        """The bushing model, stochastic intervention or query document."""
        if role == "model":
            return json.loads(Path(workspace["bushing"]).read_text(encoding="utf-8"))
        return {"intervention": BUSHING_HAT, "query": FAIL_QUERY}[role]

    def _run_document(self, runner, workspace, role: str, content) -> dict:
        """``run_reading`` with that document's file holding ``content``
        (text or bytes)."""
        path = workspace["dir"] / f"document_{role}.json"
        path.write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
        return run_reading(runner, workspace, role, path)

    @pytest.mark.parametrize(
        "name", ["model", *(n for n, (_, doc) in sorted(MALFORMED_BASES.items())
                            if any(_number_fields(doc)))],
    )
    def test_oversized_number_reads_like_its_float_literal(self, runner, workspace, name):
        # an integer too large for a float ended in an OverflowError, and one
        # past the digit limit in a ValueError from the JSON decoder
        if name == "model":
            role, doc = "model", self._document(workspace, "model")
        else:
            role, doc = MALFORMED_BASES[name]
        bad = []
        for at in _number_fields(doc, ends=role == "model"):
            for literal, twin in OVERSIZED:
                results = self._run_document(runner, workspace, role, _with_literal(doc, at, literal))
                outcome = {c: (r.exit_code, r.stdout, r.stderr) for c, r in results.items()}
                bad += [(c, at, len(literal), o) for c, o in outcome.items()
                        if not _one_error_line(results[c])]
                if twin is None:
                    bad += [(c, at, len(literal), o) for c, o in outcome.items()
                            if o[:2] != (4, "") or not o[2].startswith("error: invalid JSON: ")]
                elif at[-1] not in INTEGER_KEYS:
                    twins = self._run_document(runner, workspace, role, _with_literal(doc, at, twin))
                    want = {c: (r.exit_code, r.stdout, r.stderr) for c, r in twins.items()}
                    if outcome != want:
                        bad.append((at, len(literal), outcome, want))
        assert not bad

    @pytest.mark.skipif(not 0 < _DIGIT_LIMIT < 5000, reason="no integer digit limit")
    @pytest.mark.parametrize("role", ["model", "intervention", "query"])
    def test_integer_past_the_digit_limit_is_a_parse_error(self, runner, workspace, role):
        # any document, even at a key nothing reads
        doc = self._document(workspace, role)
        text = _with_literal({**doc, "unread": None}, ("unread",), "9" * 5000)
        for command, result in self._run_document(runner, workspace, role, text).items():
            assert (result.exit_code, result.stdout) == (4, ""), command
            assert result.stderr.startswith("error: invalid JSON: Exceeds the limit"), command
            assert result.stderr.count("\n") == 1, command

    @pytest.mark.parametrize("role", ["model", "intervention", "query"])
    def test_document_that_is_not_utf8_is_a_parse_error(self, runner, workspace, role):
        # a UnicodeDecodeError is no OSError, and ended in a traceback
        doc = self._document(workspace, role)
        content = json.dumps(doc).encode("utf-16")
        assert content[:2] == b"\xff\xfe"
        path = workspace["dir"] / f"document_{role}.json"
        line = f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xff in position 0"
        for command, result in self._run_document(runner, workspace, role, content).items():
            assert (result.exit_code, result.stdout) == (4, ""), command
            assert result.stderr == line + ": invalid start byte\n", command


# the fixtures, and random trees of at most 40 vertices: a wide tolerance
# makes stage inference quadratic in the situations
FUZZ_MODELS = (
    *(json.loads(model_io.dumps(doc)) for doc in fixtures.all_documents().values()),
    *(model_payload(doc) for doc in map(random_tree_document, range(40))
      if len(doc.vertices) <= 40),
)
# JSON text that no Python value serializes to, written in place of the
# marker string "@@literal-i@@"
FUZZ_LITERALS = (
    *(literal for literal, _ in OVERSIZED),
    "1e400",
    "[" * 100_000 + "]" * 100_000,
    '{"a": ' * 100_000 + "0" + "}" * 100_000,
)
FUZZ_SCALARS = (*JUNK, "", False, 1, -1, 2, 0.5, -0.5, 1e-300, 1e308, math.nan,
                math.inf, -math.inf)


def _strings(doc) -> list:
    """Every string in a JSON document, keys included, sorted."""
    found = set()
    for at in _fields(doc):
        value = _at(doc, at)
        if isinstance(value, str):
            found.add(value)
        if at and isinstance(at[-1], str):
            found.add(at[-1])
    return sorted(found)


def _fuzz_value(draw, doc):
    """A value to put somewhere in ``doc``: a wrong or non-finite scalar, a
    marker of ``FUZZ_LITERALS``, a string of ``doc`` (reusing an id makes
    cycles and duplicates), a wide or nested list, or a copy of a part."""
    kind = draw(st.sampled_from(("scalar", "literal", "reused", "wide", "nested", "copy")))
    if kind == "scalar":
        return draw(st.sampled_from(FUZZ_SCALARS))
    if kind == "literal":
        return f"@@literal-{draw(st.integers(0, len(FUZZ_LITERALS) - 1))}@@"
    if kind == "reused":
        return draw(st.sampled_from(_strings(doc) or ["x"]))
    if kind == "wide":
        item = draw(st.sampled_from(
            (0.5, 1 / 300, 1e308, -0.5, "x", None, [0.5, 0.5], {"id": "x"})))
        return [item] * draw(st.sampled_from((0, 1, 50, 300)))
    if kind == "nested":
        value = draw(st.sampled_from((0.5, "x", None)))
        for _ in range(draw(st.integers(1, 200))):
            value = [value]
        return value
    return _copy(_at(doc, draw(st.sampled_from(list(_fields(doc))))))


def _mangled(draw, doc):
    """A copy of ``doc`` with one value replaced, duplicated, dropped or
    added at a random place."""
    doc = _copy(doc)
    at = draw(st.sampled_from(list(_fields(doc))))
    action = draw(st.sampled_from(("replace", "replace", "duplicate", "drop", "add")))
    if not at:
        return _fuzz_value(draw, doc) if action == "replace" else doc
    parent, key = _at(doc, at[:-1]), at[-1]
    if action == "replace":
        parent[key] = _fuzz_value(draw, doc)
    elif action == "duplicate" and isinstance(parent, list):
        parent.insert(draw(st.integers(0, len(parent))), _copy(parent[key]))
    elif action == "drop":
        del parent[key]
    elif action == "add" and isinstance(parent, dict):
        parent[draw(st.sampled_from(_strings(doc)))] = _fuzz_value(draw, doc)
    elif action == "add":
        parent.append(_fuzz_value(draw, doc))
    return doc


def _fuzz_text(doc) -> str:
    text = json.dumps(doc)
    for i, literal in enumerate(FUZZ_LITERALS):
        text = text.replace(f'"@@literal-{i}@@"', literal)
    return text


@st.composite
def fuzzed_documents(draw):
    """Model, intervention and query documents as JSON text, each valid but
    for up to three faults among them, and the tolerance arguments."""
    docs = [draw(st.sampled_from(FUZZ_MODELS))]
    for role in ("intervention", "query"):
        docs.append(draw(st.sampled_from([d for r, d in MALFORMED_BASES.values() if r == role])))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, 2))
        docs[i] = _mangled(draw, docs[i])
    tolerance = draw(st.sampled_from(([], ["--tolerance", "0.05"])))
    return [_fuzz_text(doc) for doc in docs], tolerance


class TestGeneratedDocuments:
    """Whole documents with faults anywhere: deep, wide, duplicated, cyclic,
    non-finite, oversized and wrong-typed values, through every command."""

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(fuzzed_documents())
    def test_every_command_ends_in_one_error_line(self, case):
        texts, tolerance = case
        runner = CliRunner()
        with tempfile.TemporaryDirectory() as tmp:
            model, intervention, query = (
                Path(tmp) / f"{name}.json" for name in ("model", "intervention", "query"))
            for path, text in zip((model, intervention, query), texts):
                path.write_text(text, encoding="utf-8")
            documents = ["--model", model, "--intervention", intervention, "--query", query]
            commands = {
                "build": ["build", "--model", model],
                "query": ["query", *documents],
                "check-backdoor": ["check-backdoor", *documents],
                **{f"export-dot {kind}": ["export-dot", "--kind", kind, "--model", model]
                   for kind in ("tree", "staged", "ceg")},
                "export-dot manipulated": [
                    "export-dot", "--kind", "manipulated", "--model", model,
                    "--intervention", intervention,
                ],
            }
            results = {c: runner.invoke(main, [*map(str, args), *tolerance])
                       for c, args in commands.items()}
        bad = {c: (r.exit_code, r.stdout[:200], r.stderr[:200]) for c, r in results.items()
               if not _one_error_line(r)}
        assert bad == {}, texts


def _remedial_actions(actions):
    return {
        "type": "remedial",
        **BUSHING_PRIOR,
        "record": {"remedy": "swap", "delta": 0, "actions": actions},
    }


def _stochastic_w1(vec):
    return {"type": "stochastic", "positions": {"w1": vec}}


def _remedy_w1_gasket(alpha_w1, eta_w1):
    """Indicators remedying w1->w3#1 alone, with w1's prior vectors given."""
    causes = ("w1->w3#2", "w1->w4#1", "w1->w5#1", "w2->w8#1", "w2->w8#2")
    return {
        "type": "indicators",
        "indicators": {"w1->w3#1": 1, **dict.fromkeys(causes, 0)},
        "alpha": {"w1": alpha_w1, "w2": [3, 2]},
        "eta": {"w1": eta_w1, "w2": [1, 1]},
    }


# (command, tree vectors replaced in bushing, intervention document, stderr)
VECTOR_FAULTS = {
    "tree_sum": (
        "build", {"v0": [0.6, 0.5]}, None,
        "error: situation v0: transition vector sums to 1.1",
    ),
    "tree_interval": (
        "build", {"v0": [1.0, 0.0]}, None,
        "error: edge v0->v1#1: probability 1.0 outside (0, 1)",
    ),
    # math.fsum raises on these; the plain sum (nan, inf) keeps the order
    "tree_infinities": (
        "build", {"v0": [math.inf, -math.inf]}, None,
        "error: edge v0->v1#1: probability inf outside (0, 1)",
    ),
    "tree_overflow": (
        "build", {"v0": [1e308, 1e308]}, None,
        "error: situation v0: transition vector sums to inf",
    ),
    "replacement_infinities": (
        "query", None, _stochastic_w1([math.inf, -math.inf, 0.5, 0.5]),
        "error: edge w1->w3#1: replacement inf outside (0, 1)",
    ),
    "replacement_overflow": (
        "query", None, _stochastic_w1([1e308, 1e308, 0.25, 0.25]),
        "error: position w1: replacement sums to inf",
    ),
    "replacement_length": (
        "query", None, _stochastic_w1([0.5, 0.5]),
        "error: position w1: 2 probabilities for 4 edges",
    ),
    "replacement_sum": (
        "query", None, _stochastic_w1([0.1, 0.2, 0.3, 0.5]),
        "error: position w1: replacement sums to 1.1",
    ),
    "replacement_interval": (
        "query", None, _stochastic_w1([-0.1, 0.4, 0.3, 0.4]),
        "error: edge w1->w3#1: replacement -0.1 outside (0, 1)",
    ),
    # every listed position is checked before any vector
    "replacement_unknown_position": (
        "query", None,
        {"type": "stochastic", "positions": {"w1": [0.5, 0.5], "w99": [1.0]}},
        "error: unknown position w99",
    ),
    "replacement_idle": (
        "query", None, _stochastic_w1([0.3, 0.2, 0.25, 0.25]),
        "error: position w1: replacement equals idle vector",
    ),
    "hidden_action_sum": (
        "query", None,
        _remedial_actions([
            {"id": "swap_seal", "prob": 0.7,
             "outcomes": [{"remedied": ["w1->w3#1"], "prob": 1.0}]},
            {"id": "no_action", "prob": 0.4, "outcomes": [{"prob": 1.0}]},
        ]),
        "error: hidden-action probabilities sum to 1.1",
    ),
    "outcome_sum": (
        "query", None,
        _remedial_actions([
            {"id": "swap_seal", "prob": 0.6,
             "outcomes": [{"remedied": ["w1->w3#1"], "prob": 0.5}, {"prob": 0.6}]},
            {"id": "no_action", "prob": 0.4, "outcomes": [{"prob": 1.0}]},
        ]),
        "error: indicator outcomes of action 'swap_seal' sum to 1.1",
    ),
    # each probability lies in [0, 1] before any sum is taken: these summed
    # to one, to nan, or past the float range in math.fsum
    "hidden_action_interval": (
        "query", None,
        _remedial_actions([
            {"id": "swap_seal", "prob": 1.5,
             "outcomes": [{"remedied": ["w1->w3#1"], "prob": 1.0}]},
            {"id": "no_action", "prob": -0.5, "outcomes": [{"prob": 1.0}]},
        ]),
        "error: action 'swap_seal': probability 1.5 outside [0, 1]",
    ),
    "hidden_action_nan": (
        "query", None,
        _remedial_actions([
            {"id": "swap_seal", "prob": math.nan,
             "outcomes": [{"remedied": ["w1->w3#1"], "prob": 1.0}]},
            {"id": "no_action", "prob": 0.4, "outcomes": [{"prob": 1.0}]},
        ]),
        "error: action 'swap_seal': probability nan outside [0, 1]",
    ),
    "hidden_action_overflow": (
        "query", None,
        _remedial_actions([
            {"id": "swap_seal", "prob": 1e308,
             "outcomes": [{"remedied": ["w1->w3#1"], "prob": 1.0}]},
            {"id": "no_action", "prob": 1e308, "outcomes": [{"prob": 1.0}]},
        ]),
        "error: action 'swap_seal': probability 1e+308 outside [0, 1]",
    ),
    "outcome_interval": (
        "query", None,
        _remedial_actions([
            {"id": "swap_seal", "prob": 0.6,
             "outcomes": [{"remedied": ["w1->w3#1"], "prob": 1.5}, {"prob": -0.5}]},
            {"id": "no_action", "prob": 0.4, "outcomes": [{"prob": 1.0}]},
        ]),
        "error: action 'swap_seal': outcome probability 1.5 outside [0, 1]",
    ),
    "dirichlet_alpha_overflow": (
        "query", None, _remedy_w1_gasket([1e308, 1e308, 2.5, 2.5], [1, 1, 1, 1]),
        "error: position w1: updated Dirichlet parameters sum past the float range",
    ),
    # one updated parameter overflows although each input is finite
    "dirichlet_entry_overflow": (
        "query", None, _remedy_w1_gasket([3, 1e308, 2.5, 2.5], [1, 1e308, 1, 1]),
        "error: position w1: updated Dirichlet parameters sum past the float range",
    ),
    "dirichlet_eta_overflow": (
        "query", None, _remedy_w1_gasket([3, 2, 2.5, 2.5], [1, 1e308, 1e308, 1]),
        "error: position w1: updated Dirichlet parameters sum past the float range",
    ),
    "dirichlet_alpha": (
        "query", None,
        {
            "type": "indicators",
            "indicators": {"w1->w3#1": 1, "w1->w3#2": 0},
            "alpha": {"w1": [0, 2, 2.5, 2.5], "w2": [3, 2]},
            "eta": BUSHING_PRIOR["eta"],
        },
        "error: alpha[w1] must be finite and strictly positive",
    ),
    # NaN and inf fail every comparison with 0 the same way, so both are
    # named against the prior, not the posterior mean they would make
    "dirichlet_alpha_nan": (
        "query", None, _remedy_w1_gasket([math.nan, 2, 2.5, 2.5], [1, 1, 1, 1]),
        "error: alpha[w1] must be finite and strictly positive",
    ),
    "dirichlet_eta_inf": (
        "query", None, _remedy_w1_gasket([3, 2, 2.5, 2.5], [1, math.inf, 1, 1]),
        "error: eta[w1] must be finite and strictly positive",
    ),
    # a p_delta out of range is a probability fault, as an action's prob is
    "p_delta_range": (
        "query", None, _replaced(MALFORMED_BASES["remedial"][1], ("record", "p_delta"), 1.5),
        "error: p_delta 1.5 outside [0, 1]",
    ),
    # a positive p_delta weights the record's own indicators, and it lists none
    "p_delta_without_indicators": (
        "query", None,
        {"type": "remedial", **BUSHING_PRIOR, "record": {"remedy": None, "p_delta": 0.5}},
        "error: p_delta > 0 needs an indicator vector",
    ),
}


def _run_vector_fault(runner, workspace, command, theta, intervention):
    model = workspace["bushing"]
    if theta is not None:
        raw = json.loads(Path(model).read_text(encoding="utf-8"))
        raw["theta"].update(theta)
        model = workspace["write"]("faulty_model.json", raw)
    args = [command, "--model", model]
    if intervention is not None:
        args += [
            "--intervention", workspace["write"]("faulty_hat.json", intervention),
            "--query", workspace["query"],
        ]
    return runner.invoke(main, args)


class TestVectorFaults:
    @pytest.mark.parametrize("name", sorted(VECTOR_FAULTS))
    def test_exact_error_line(self, runner, workspace, name):
        command, theta, intervention, line = VECTOR_FAULTS[name]
        result = _run_vector_fault(runner, workspace, command, theta, intervention)
        assert (result.exit_code, result.stdout, result.stderr) == (2, "", line + "\n")

    @pytest.mark.parametrize("name", sorted(n for n in VECTOR_FAULTS if n.startswith("replacement")))
    def test_check_backdoor_validates_replacements(self, runner, workspace, name):
        _, _, intervention, line = VECTOR_FAULTS[name]
        result = _run_vector_fault(runner, workspace, "check-backdoor", None, intervention)
        assert (result.exit_code, result.stdout, result.stderr) == (2, "", line + "\n")


class TestInterventionSetChecks:
    def _run(self, runner, workspace, command, intervention):
        return runner.invoke(
            main,
            [
                command,
                "--model", workspace["bushing"],
                "--intervention", intervention,
                "--query", workspace["query"],
            ],
        )

    @pytest.mark.parametrize("command", ["query", "check-backdoor"])
    def test_w_star_walks(self, runner, workspace, walks, command):
        supplied = workspace["write"]("blocks.json", {
            "target": "fail",
            "partition": {"kind": "devents", "blocks": [
                ["oil_leak", "oil_loss", "thermal"], ["no_leak", "oil_mix", "electrical"],
            ]},
        })
        for query in (workspace["query"], supplied):
            walks.clear()
            result = runner.invoke(main, [
                command, "--model", workspace["bushing"],
                "--intervention", workspace["stochastic"], "--query", query,
            ])
            assert result.exit_code == 0
            # validation walks w*; the plan and the back-door step reuse it
            assert walks == [("w1",)], query

    def test_query_validates_once_and_reuses_its_tables(self, runner, workspace, work):
        result = self._run(runner, workspace, "query", workspace["stochastic"])
        assert result.exit_code == 0
        assert work["validate_stochastic"] == 1
        # the idle table, which the routes and the search's screen share (1
        # forward), the routes' pass under the replacement (1), the screen's
        # backward pass (1), its one full check (1) and the adjustment (2)
        assert (work["forward_messages"], work["backward_messages"]) == (5, 1)
        # the model's graph; the [manipulated-ceg] lines build none
        assert work["Ceg"] == 1

    @pytest.mark.parametrize(
        "partition",
        [None, [["oil_leak", "oil_loss", "thermal"], ["no_leak", "oil_mix", "electrical"]]],
        ids=["search", "supplied"],
    )
    @pytest.mark.parametrize("command", ["query", "check-backdoor"])
    def test_one_backdoor_step(self, runner, workspace, work, command, partition):
        # the search, or the check of a supplied partition, is one shared step
        query = workspace["write"]("step.json", {"target": "fail"} if partition is None else {
            "target": "fail", "partition": {"kind": "devents", "blocks": partition}})
        result = runner.invoke(main, [
            command, "--model", workspace["bushing"],
            "--intervention", workspace["stochastic"], "--query", query,
        ])
        assert result.exit_code == 0
        assert work["_verdict"] == 1

    @pytest.mark.parametrize("command", ["query", "check-backdoor"])
    def test_overlap_reported_before_a_bad_vector(self, runner, workspace, command):
        # w3 lies below w1, and its replacement sums to 1.1
        intervention = workspace["write"](
            "overlap.json",
            {"type": "stochastic", "positions": {"w1": [0.1, 0.2, 0.3, 0.4], "w3": [0.5, 0.6]}},
        )
        result = self._run(runner, workspace, command, intervention)
        assert (result.exit_code, result.stdout, result.stderr) == (
            2, "", "error: a root-to-sink path passes through two intervened positions\n"
        )


class TestGoldenReports:
    def test_every_fixture_report_is_byte_identical(self, tmp_path):
        # digests written by tests/golden_reports.py: regenerate them only
        # for an intended report change, and list that change in CHANGES.md
        path = Path(__file__).parent / "golden_reports.json"
        want = json.loads(path.read_text(encoding="utf-8"))
        got = golden_reports.report_digests(tmp_path)
        assert sorted(got) == sorted(want)
        assert [k for k in want if got[k] != want[k]] == []


def _file_fault(result, pattern: str) -> bool:
    """Exit 4, nothing on stdout, and one ``error:`` line matching
    ``pattern``."""
    return (
        (result.exit_code, result.stdout) == (4, "")
        and result.stderr.count("\n") == 1
        and re.fullmatch(pattern, result.stderr.rstrip("\n")) is not None
    )


class TestFileBoundary:
    """Every file a command reads or writes goes through one reader and one
    writer, so each file fault ends in one ``error:`` line and exit 4."""

    @pytest.mark.parametrize("fault", ["missing", "directory"])
    @pytest.mark.parametrize("role", ["model", "intervention", "query"])
    def test_unreadable_document(self, runner, workspace, role, fault):
        # an intervention or query file that could not be opened printed
        # `error: [Errno N] ...` without the path; a model file already
        # printed this line
        path = workspace["dir"] / f"{fault}_{role}"
        if fault == "directory":
            path.mkdir()
        pattern = rf"error: cannot read {re.escape(str(path))}: \[Errno \d+\] .+"
        results = run_reading(runner, workspace, role, path)
        assert [c for c, r in results.items() if not _file_fault(r, pattern)] == []

    @pytest.mark.parametrize("role", ["model", "intervention", "query"])
    def test_document_nested_past_the_recursion_limit(self, runner, workspace, role):
        # json.loads raised a RecursionError, a traceback with exit 1
        doc = TestMalformedFields._document(workspace, role)
        text = json.dumps({**doc, "unread": None}).replace(
            "null", "[" * 100_000 + "]" * 100_000)
        path = workspace["dir"] / f"deep_{role}.json"
        path.write_text(text, encoding="utf-8")
        pattern = r"error: invalid JSON: maximum recursion depth exceeded.*"
        results = run_reading(runner, workspace, role, path)
        assert [c for c, r in results.items() if not _file_fault(r, pattern)] == []

    @staticmethod
    def _blocked(tmp_path, fault: str, first: str, last: str):
        """An output directory under a regular file, where writing ``first``
        fails, or one where the last file written, ``last``, is already a
        directory: (directory, path that fails)."""
        if fault == "under a file":
            (tmp_path / "file").write_text("", encoding="utf-8")
            out = tmp_path / "file" / "out"
            return out, out / first
        out = tmp_path / "out"
        (out / last).mkdir(parents=True)
        return out, out / last

    @pytest.mark.parametrize("fault", ["under a file", "target is a directory"])
    def test_build_writes_all_or_reports_nothing(self, runner, workspace, tmp_path, fault):
        # the unguarded write ended in a NotADirectoryError or an
        # IsADirectoryError traceback; when the last DOT file fails, the
        # first two are written, and still no report line is printed
        out, path = self._blocked(tmp_path, fault, "bushing.tree.dot", "bushing.ceg.dot")
        result = runner.invoke(main, ["build", "--model", workspace["bushing"], "--out", str(out)])
        assert _file_fault(result, rf"error: cannot write {re.escape(str(path))}: \[Errno \d+\] .+")

    def test_export_dot_under_a_file(self, runner, workspace, tmp_path):
        # mkdir on the regular file raised a FileExistsError traceback
        (tmp_path / "file").write_text("", encoding="utf-8")
        path = tmp_path / "file" / "x.dot"
        result = runner.invoke(
            main, ["export-dot", "--model", workspace["bushing"], "--out", str(path)])
        assert _file_fault(result, rf"error: cannot write {re.escape(str(path))}: \[Errno \d+\] .+")

    @pytest.mark.parametrize("command", ["build", "fixtures", "export-dot"])
    def test_out_of_the_wrong_kind(self, runner, workspace, tmp_path, command):
        # click's own path check printed a three-line usage error, exit 2:
        # a regular file as an output directory, a directory as a DOT file
        file, directory = tmp_path / "file", tmp_path / "dir"
        file.write_text("", encoding="utf-8")
        directory.mkdir()
        args, path = {
            "build": (["build", "--model", workspace["bushing"], "--out", file],
                      file / "bushing.tree.dot"),
            "fixtures": (["fixtures", "--out", file], file / "bushing.json"),
            "export-dot": (["export-dot", "--model", workspace["bushing"], "--out", directory],
                           directory),
        }[command]
        result = runner.invoke(main, list(map(str, args)))
        assert _file_fault(result, rf"error: cannot write {re.escape(str(path))}: \[Errno \d+\] .+")

    @pytest.mark.parametrize("fault", ["under a file", "target is a directory"])
    def test_fixtures(self, runner, tmp_path, fault):
        out, path = self._blocked(tmp_path, fault, "bushing.json", "twin.json")
        result = runner.invoke(main, ["fixtures", "--out", str(out)])
        assert _file_fault(result, rf"error: cannot write {re.escape(str(path))}: \[Errno \d+\] .+")


class TestExportDot:
    @pytest.mark.parametrize("kind", ["tree", "staged", "ceg"])
    def test_kinds_write_digraphs(self, runner, workspace, kind):
        result = runner.invoke(
            main,
            ["export-dot", "--model", workspace["bushing"], "--kind", kind],
        )
        assert result.exit_code == 0
        assert result.stdout.startswith("digraph")

    def test_manipulated_prunes_unvisited_positions(self, runner, workspace):
        result = runner.invoke(
            main,
            [
                "export-dot",
                "--model", workspace["bushing"],
                "--kind", "manipulated",
                "--intervention", workspace["stochastic"],
            ],
        )
        assert result.exit_code == 0
        assert '"w1"' in result.stdout
        assert '"w2"' not in result.stdout

    def test_manipulated_requires_intervention(self, runner, workspace):
        result = runner.invoke(
            main,
            ["export-dot", "--model", workspace["bushing"], "--kind", "manipulated"],
        )
        assert result.exit_code == 4

    def test_out_file(self, runner, workspace, tmp_path):
        out = tmp_path / "graph.dot"
        result = runner.invoke(
            main,
            [
                "export-dot",
                "--model", workspace["conservator"],
                "--out", str(out),
            ],
        )
        assert result.exit_code == 0
        assert out.read_text(encoding="utf-8").startswith("digraph")

    def test_only_the_tree_kind_skips_declared_stages(self, runner, workspace):
        # a tree draws no stage; v3 and v7 cannot share one
        raw = json.loads((workspace["dir"] / "bushing.json").read_text(encoding="utf-8"))
        raw["stages"] = [["v3", "v7"]]
        model = workspace["write"]("bad_stage.json", raw)
        valid = runner.invoke(main, ["export-dot", "--model", workspace["bushing"], "--kind", "tree"])
        tree = runner.invoke(main, ["export-dot", "--model", model, "--kind", "tree"])
        assert (tree.exit_code, tree.stdout, tree.stderr) == (0, valid.stdout, "")
        for kind in ("staged", "ceg"):
            result = runner.invoke(main, ["export-dot", "--model", model, "--kind", kind])
            assert (result.exit_code, result.stdout, result.stderr) == (
                4, "", "error: declared stage ['v3', 'v7'] violates the stage conditions at v7\n"
            ), kind

    def test_deterministic(self, runner, workspace):
        args = ["export-dot", "--model", workspace["twin"], "--kind", "staged"]
        assert runner.invoke(main, args).stdout == runner.invoke(main, args).stdout

    @pytest.mark.parametrize("kind", ["tree", "staged", "ceg", None])
    def test_intervention_needs_manipulated_kind(self, runner, workspace, kind):
        # the option was ignored: the graph was printed with exit 0, although
        # the intervention file does not exist
        result = runner.invoke(main, [
            "export-dot", "--model", workspace["bushing"],
            *([] if kind is None else ["--kind", kind]),
            "--intervention", str(workspace["dir"] / "nope.json"),
        ])
        assert (result.exit_code, result.stdout, result.stderr) == (
            4, "", "error: --intervention needs --kind manipulated\n")

    def test_kind_and_intervention_checked_before_any_read(self, runner, workspace):
        missing = str(workspace["dir"] / "nope.json")
        cases = [
            (["--kind", "ceg", "--intervention", workspace["stochastic"]],
             "error: --intervention needs --kind manipulated\n"),
            # the unreadable model was named first
            (["--kind", "manipulated"], "error: manipulated export needs --intervention\n"),
        ]
        for args, stderr in cases:
            result = runner.invoke(main, ["export-dot", "--model", missing, *args])
            assert (result.exit_code, result.stdout, result.stderr) == (4, "", stderr), args


# SHA-256 of each file ``ceg fixtures`` writes, without and with ``--seed 3``
FIXTURE_DIGESTS = {
    "bushing_broken.json": "4ba892fae5ed0389981b8095ffe148c4e6a969abd560b7c4c13195c27a99a01d",
    "conservator.json": "53650c6a8ea56ee8ccd41fb00a6d2eab01c4aa70ce6e04df5fffc28844db9509",
    "twin.json": "464c406522a47267453fe222b6549ac99859dfd4d54458cd07af6b2fa871ef2a",
}
BUSHING_DIGESTS = {
    None: "0b261585babc1b604aa6db8eed0067dd893e24989818ca377f5c73a483be12c9",
    3: "8a183211a7344e70c49afceff11c9cb0635e262de53e0a1a36392f4c3a9126fc",
}


class TestFixtures:
    @pytest.mark.parametrize("seed", [None, 3])
    def test_written_bytes_are_pinned(self, runner, tmp_path, seed):
        out = tmp_path / "models"
        args = ["fixtures", "--out", str(out)] + ([] if seed is None else ["--seed", str(seed)])
        result = runner.invoke(main, args)
        want = {**FIXTURE_DIGESTS, "bushing.json": BUSHING_DIGESTS[seed]}
        assert (result.exit_code, result.stderr) == (0, "")
        assert result.stdout == "".join(f"{out / name}\n" for name in sorted(want))
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
        assert digests == want

    def test_subcommand_writes_models(self, runner, tmp_path):
        out = tmp_path / "models"
        result = runner.invoke(main, ["fixtures", "--out", str(out)])
        assert result.exit_code == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "bushing.json",
            "bushing_broken.json",
            "conservator.json",
            "twin.json",
        ]
        for line in result.stdout.splitlines():
            assert line.endswith(".json")

    def test_seed_randomizes_bushing(self, runner, tmp_path):
        plain = tmp_path / "plain"
        seeded = tmp_path / "seeded"
        runner.invoke(main, ["fixtures", "--out", str(plain)])
        runner.invoke(main, ["fixtures", "--out", str(seeded), "--seed", "3"])
        default = (plain / "bushing.json").read_text(encoding="utf-8")
        randomized = (seeded / "bushing.json").read_text(encoding="utf-8")
        assert default != randomized
        # the randomized model still parses and builds
        from cegkit.ceg import ceg_from_document

        graph = ceg_from_document(model_io.loads(randomized))
        assert len(graph.position_ids) == 9

    def test_bare_invocation_prints_help(self, runner):
        result = runner.invoke(main, [])
        assert result.exit_code == 0
        assert "Usage" in result.stdout


# usage faults: the arguments, with "BUSHING" for the bushing model, and a
# word click's one-line message must name
USAGE_FAULTS = {
    "bad float": (["build", "--model", "BUSHING", "--tolerance", "abc"], "'abc'"),
    "bad int": (["fixtures", "--seed", "x"], "'x'"),
    "bad choice": (["export-dot", "--model", "BUSHING", "--kind", "nope"], "'nope'"),
    "missing option": (["build"], "--model"),
    "unknown option": (["build", "--model", "BUSHING", "--bogus"], "--bogus"),
    "unknown group option": (["--bogus"], "--bogus"),
    "unknown command": (["nosuch"], "nosuch"),
}

# every path option of each command, with a path it accepts (a workspace
# key, else a path relative to the working directory)
PATH_OPTIONS = {
    "build": {"--model": "bushing", "--out": "dots"},
    "query": {"--model": "bushing", "--intervention": "stochastic", "--query": "query"},
    "check-backdoor": {
        "--model": "bushing", "--intervention": "stochastic", "--query": "query"},
    "export-dot": {"--model": "bushing", "--intervention": "stochastic", "--out": "g.dot"},
    "fixtures": {"--out": "models"},
}


class TestFailureBoundary:
    """Every failure leaves through the group's one boundary."""

    @pytest.mark.parametrize("fault", USAGE_FAULTS)
    def test_usage_fault_is_one_error_line(self, runner, workspace, fault):
        args, named = USAGE_FAULTS[fault]
        args = [workspace["bushing"] if a == "BUSHING" else a for a in args]
        result = runner.invoke(main, args)
        # click alone printed Usage:, Try ..., a blank line and Error: ..., exit 2
        assert result.exit_code == 4
        assert result.stdout == ""
        (line,) = result.stderr.splitlines()
        assert line.startswith("error: ") and named in line

    @pytest.mark.parametrize("command, option", [
        (command, option) for command, paths in PATH_OPTIONS.items() for option in paths
    ])
    def test_empty_path_is_one_error_line(
        self, runner, workspace, tmp_path, monkeypatch, command, option
    ):
        monkeypatch.chdir(tmp_path)  # a path taken as "" would write here
        before = sorted(tmp_path.rglob("*"))
        args = [command]
        for name, value in PATH_OPTIONS[command].items():
            args += [name, "" if name == option else workspace.get(value, value)]
        result = runner.invoke(main, args)
        assert result.exit_code == 4
        assert result.stdout == ""
        assert result.stderr == f"error: Invalid value for '{option}': the path is empty\n"
        assert sorted(tmp_path.rglob("*")) == before

    def test_engine_error_of_each_command_is_unchanged(self, runner, workspace):
        raw = json.loads((workspace["dir"] / "bushing.json").read_text(encoding="utf-8"))
        raw["theta"]["v0"] = [0.6, 0.5]
        lone = workspace["write"](
            "lone.json", {"type": "stochastic", "positions": {"w1": [0.2, 0.8]}})
        edge = workspace["write"]("edge.json", {"type": "singular", "edge": "w1->w99#1"})
        blocked = workspace["write"]("blocked", {})
        documents = ["--intervention", lone, "--query", workspace["query"]]
        cases = [
            (["build", "--model", workspace["write"]("unnormalized.json", raw)],
             2, "error: situation v0: transition vector sums to 1.1\n"),
            (["query", "--model", workspace["twin"], *documents], 3,
             "error: d-event 'seal_wear' also labels w2->w3#1, outside the intervened florets\n"),
            (["check-backdoor", "--model", workspace["bushing"], "--intervention", edge,
              "--query", workspace["query"]], 2, "error: no edge w1->w99#1\n"),
            (["export-dot", "--model", workspace["bushing"], "--kind", "manipulated"],
             4, "error: manipulated export needs --intervention\n"),
            (["fixtures", "--out", blocked], 4,
             f"error: cannot write {Path(blocked) / 'bushing.json'}: [Errno {errno.EEXIST}]"
             f" File exists: '{blocked}'\n"),
        ]
        for args, code, stderr in cases:
            result = runner.invoke(main, args)
            assert (result.exit_code, result.stdout, result.stderr) == (code, "", stderr), args

    def test_model_without_situations_has_no_graph(self, runner, workspace, tmp_path):
        # a lone vertex is a leaf: a tree with no situation has no position,
        # which every command that needs the graph names before any write
        lone = workspace["write"]("lone_vertex.json", {
            "vertices": ["v0"], "edges": [], "leaf_status": {"v0": "failed"},
            "theta": {}, "devents": []})
        documents = ["--intervention", workspace["stochastic"], "--query", workspace["query"]]
        out = tmp_path / "out"
        for args in (
            ["build", "--model", lone],
            ["build", "--model", lone, "--out", str(out)],
            ["query", "--model", lone, *documents],
            ["check-backdoor", "--model", lone, *documents],
            ["export-dot", "--model", lone, "--kind", "ceg"],
            ["export-dot", "--model", lone, "--kind", "ceg", "--out", str(out / "x.dot")],
        ):
            result = runner.invoke(main, args)
            assert (result.exit_code, result.stdout, result.stderr) == (
                2, "", "error: graph has no positions\n"), args
            assert not out.exists(), args
        for kind in ("tree", "staged"):  # these draw the tree, not the graph
            result = runner.invoke(main, ["export-dot", "--model", lone, "--kind", kind])
            assert (result.exit_code, result.stderr) == (0, ""), kind
            assert result.stdout.startswith('digraph "lone_vertex" {'), kind

    def test_help_is_unchanged(self, runner):
        group = click.Context(main, info_name="main")
        build = click.Context(main.commands["build"], parent=group, info_name="build")
        for args, ctx in (([], group), (["--help"], group), (["build", "--help"], build)):
            result = runner.invoke(main, args)
            assert (result.exit_code, result.stdout, result.stderr) == (
                0, ctx.get_help() + "\n", ""), args

    @pytest.mark.parametrize("raised, stderr", [
        (KeyboardInterrupt(), "\nAborted!\n"),  # Ctrl-C
        (BrokenPipeError(errno.EPIPE, "Broken pipe"), ""),
    ])
    def test_interrupt_and_broken_pipe_exit_1(self, runner, monkeypatch, raised, stderr):
        def load(path):
            raise raised

        monkeypatch.setattr(model_io, "load", load)
        result = runner.invoke(main, ["build", "--model", "m.json"])
        assert (result.exit_code, result.stdout, result.stderr) == (1, "", stderr)
