"""Command line front end.

Reports are plain key:value blocks so runs can be diffed; DOT files are
byte-stable.  Every failure leaves through ``_Group.main``, the one failure
boundary: a ``CegError`` or a click usage error (a bad flag value, a missing
or unknown option, an unknown command) prints one ``error:`` line on stderr.
Exit codes: 0 success, 2 validation error, 3 identification failure, 4 parse
or usage error.  A report that fails its check exits 3 after it is printed.
"""

from __future__ import annotations

import math
import os
import sys
from itertools import filterfalse
from operator import itemgetter
from pathlib import Path as FsPath
from typing import Optional

import click

from . import fixtures as fixture_lib
from . import model_io
from .causal import (
    backdoor_verdict,
    forced_edge_effect,
    idle_target_mass,
    remedial_breakdown,
    stochastic_answer,
)
from .ceg import Ceg, _collapse, _resolve_edge, ceg_from_document
from .dot import ceg_dot, staged_dot, tree_dot
from .errors import (
    CegError,
    ControlledEventLeaksOutsideIntervention,
    ParseError,
    PartitionNotValid,
    UndefinedConditional,
)
from .event_tree import DEFAULT_TOLERANCE, LeafStatus, build_event_tree, validate_tolerance
from .intervention import (
    DirichletFloretPrior,
    StochasticManipulation,
    classify_remedy,
    conditioned_ceg,
    manipulation_from_indicators,
    record_from_raw,
    validate_stochastic,
)
from .staging import compute_positions, staged_tree_from_document

EXIT_VALIDATION = 2
EXIT_IDENTIFICATION = 3
EXIT_PARSE = 4

_IDENTIFICATION_ERRORS = (
    PartitionNotValid,
    UndefinedConditional,
    ControlledEventLeaksOutsideIntervention,
)


def _tolerance_from(value: Optional[float]) -> float:
    """The tolerance of ``--tolerance``, else of ``CEG_TOLERANCE``, else the
    default; it must be a finite positive number."""
    name = "tolerance"
    if value is None:
        env = os.environ.get("CEG_TOLERANCE")
        if not env:
            return DEFAULT_TOLERANCE
        name = "CEG_TOLERANCE"
        try:
            value = float(env)
        except ValueError:
            raise ParseError(f"CEG_TOLERANCE is not a number: {env!r}") from None
    return validate_tolerance(value, name)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _exit_for(exc: CegError) -> int:
    if isinstance(exc, ParseError):
        return EXIT_PARSE
    if isinstance(exc, _IDENTIFICATION_ERRORS):
        return EXIT_IDENTIFICATION
    return EXIT_VALIDATION


def _echo(message: str, err: bool = False, nl: bool = True) -> None:
    # an explicit file keeps click from caching a wrapper keyed on the
    # current stream, which would keep every redirected buffer alive
    click.echo(message, file=sys.stderr if err else sys.stdout, nl=nl)


def _load_documents(
    model_path: str, intervention_path: str, query_path: str, tolerance: Optional[float]
):
    """Graph, intervention and query documents of a query-like command."""
    tol = _tolerance_from(tolerance)
    graph = ceg_from_document(model_io.load(model_path), tol)
    idoc = model_io.load_intervention(intervention_path)
    return graph, idoc, model_io.load_query(query_path)


def _write(path, text: str) -> None:
    """Write ``text`` as UTF-8, making the directory; a file that cannot be
    written is a ParseError."""
    try:
        FsPath(path).parent.mkdir(parents=True, exist_ok=True)
        FsPath(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from None


def _show_help(ctx: click.Context, _param, value: bool) -> None:
    if value and not ctx.resilient_parsing:
        _echo(ctx.get_help())
        ctx.exit()


class _HelpThroughEcho:
    """click's own ``--help`` writes without ``file=``; route it through
    ``_echo`` like every other write."""

    def get_help_option(self, ctx: click.Context):
        option = super().get_help_option(ctx)
        if option is not None:
            option.callback = _show_help
        return option


class _Command(_HelpThroughEcho, click.Command):
    pass


class _Group(_HelpThroughEcho, click.Group):
    command_class = _Command

    def main(self, *args, **kwargs):
        """The one failure boundary: a CegError from any command, or a usage
        error of click's, ends in one ``error:`` line and its exit code."""
        try:
            return super().main(*args, standalone_mode=False, **kwargs)
        except CegError as exc:
            message, code = str(exc), _exit_for(exc)
        except click.ClickException as exc:
            message, code = exc.format_message(), EXIT_PARSE
        except click.Abort:  # Ctrl-C, ended as click's standalone mode ends it
            _echo("Aborted!", err=True)
            sys.exit(1)
        _echo(f"error: {message}", err=True)
        sys.exit(code)


class _Path(click.Path):
    """A path option's type: an empty path is a usage error."""

    def convert(self, value, param, ctx):
        if value == "":
            self.fail("the path is empty", param, ctx)
        return super().convert(value, param, ctx)


@click.group(cls=_Group, invoke_without_command=True)
@click.pass_context
def main(ctx: click.Context) -> None:
    """Chain event graph toolkit for reliability causal analysis."""
    if ctx.invoked_subcommand is None:
        _echo(ctx.get_help())


@main.command()
@click.option("--model", "model_path", required=True, type=_Path())
@click.option("--out", "out_dir", type=_Path(), metavar="DIRECTORY", default=None)
@click.option("--tolerance", type=float, default=None)
def build(model_path: str, out_dir: Optional[str], tolerance: Optional[float]):
    """Validate a model, print its structure, optionally write DOT files."""
    tol = _tolerance_from(tolerance)
    doc = model_io.load(model_path)
    ptree = build_event_tree(doc, tol)
    staged = staged_tree_from_document(doc, ptree)
    positions = compute_positions(staged)
    tree, stages = ptree.tree, staged.stages
    # the graph's counts follow from the collapse: each position keeps its
    # first member's floret, and the members of a position have isomorphic
    # subtrees, leaf statuses included, so each leaf status has one sink and
    # each root-to-leaf path of the tree is one root-to-sink path
    statuses = list(tree.leaf_status.values())
    failed = statuses.count(LeafStatus.FAILED)
    heads = map(itemgetter(0), positions.blocks)
    lines = [
        f"model: {doc.name or model_path}",
        f"vertices: {len(tree.vertices)}",
        f"situations: {len(tree.situations)}",
        f"devents: {len(tree.devents)}",
        "[stages]",
        *(f"{sid}: {' '.join(block)}" for sid, block in zip(stages.ids, stages.blocks)),
        "[positions]",
        *(f"{wid}: {' '.join(block)}" for wid, block in zip(positions.ids, positions.blocks)),
        "[graph]",
        f"positions: {len(positions.ids)}",
        f"sinks: {(failed > 0) + (failed < len(statuses))}",
        f"edges: {sum(map(len, map(ptree.theta.__getitem__, heads)))}",
        f"root_to_sink_paths: {len(statuses)}",
        f"failed_paths: {failed}",
        # every path leaves the root, and the graph has no position
        # without out-edges, so the root alone is always a fine cut
        "fine_cut_root: YES",
    ]
    if out_dir is not None:
        base = doc.name or FsPath(model_path).stem
        graph = _collapse(staged, positions, doc.root_causes, doc.name)
        outputs = {
            f"{base}.tree.dot": tree_dot(ptree, name=base),
            f"{base}.staged.dot": staged_dot(staged, name=base),
            f"{base}.ceg.dot": ceg_dot(graph),
        }
        lines.append("[dot]")
        for fname, text in outputs.items():
            path = FsPath(out_dir) / fname
            _write(path, text)
            lines.append(str(path))
    _echo("\n".join(lines))


def _manipulation(graph: Ceg, idoc) -> Optional[StochasticManipulation]:
    """The manipulation of a stochastic or indicators document; None when
    nothing is remedied, or for any other type."""
    if idoc.type == "stochastic":
        return StochasticManipulation(idoc.positions)
    if idoc.type != "indicators":
        return None
    prior = DirichletFloretPrior(idoc.alpha, idoc.eta)  # a prior fault is named first
    indicators = {_resolve_edge(graph, ref): v for ref, v in idoc.indicators.items()}
    return manipulation_from_indicators(graph, indicators, prior)


def _criteria_lines(report) -> list[str]:
    lines = ["[criteria]", "criterion position devent edge block lhs rhs ok"]
    for c in report.comparisons:
        lhs = "-" if c.vacuous else _fmt(c.lhs)
        rhs = "-" if c.vacuous else _fmt(c.rhs)
        ok = "vacuous" if c.vacuous else ("yes" if c.ok else "NO")
        lines.append(
            f"{c.criterion} {c.position} {c.devent} {c.edge} {c.block}"
            f" {lhs} {rhs} {ok}"
        )
    return lines


def _singular_edge(graph: Ceg, ref):
    """The edge a singular intervention forces.  Both commands resolve it
    before the target, so both name an unknown position first, then an
    unknown edge, then an unknown target."""
    graph.out_edges(ref[0])
    return _resolve_edge(graph, ref)


def _query_stochastic(
    graph: Ceg, title: str, manipulation: StochasticManipulation, qdoc
) -> None:
    """Compute every value, then write the report, so an error leaves none."""
    target, w_star = qdoc.target, manipulation.intervened_positions
    answer = stochastic_answer(
        graph, manipulation, target, qdoc.partition_kind, qdoc.partition_blocks
    )
    partition, report = answer.partition, answer.report
    pruned = filterfalse(set(answer.kept).__contains__, graph.position_ids)
    lines = [
        title, "[manipulation]", "type: stochastic", f"positions: {' '.join(w_star)}",
        *(f"theta_hat[{w}]: {' '.join(_fmt(x) for x in manipulation.theta_hat[w])}"
          for w in w_star),
        "[manipulated-ceg]", f"positions: {' '.join(answer.kept)}",
        f"pruned: {' '.join(pruned) or '-'}", f"edges: {answer.kept_edges}",
        "[effects]", f"target: {target}",
        f"devent_formula: {_fmt(answer.devent)}",
        f"edge_formula: {_fmt(answer.edge)}",
        f"oracle: {_fmt(answer.oracle)}",
        "adjustment: -" if answer.adjustment is None
        else f"adjustment: {_fmt(answer.adjustment)}",
        f"agreement: {'OK' if answer.agree else 'FAIL'} (spread {_fmt(answer.spread)})",
        "[back-door]", f"fine_cut: {'YES' if answer.fine_cut else 'NO'}",
    ]
    if partition is None:
        lines.append("verdict: NOT FOUND")
    elif report.passed:
        blocks = "; ".join(partition.labels)
        lines.append(f"verdict: VERIFIED ({partition.kind} partition: {blocks})")
    else:
        lines.append("verdict: FAILED")
    if report is not None:
        lines += _criteria_lines(report)
    _echo("\n".join(lines))
    if not answer.agree:
        _echo("error: effect formulas disagree beyond tolerance", err=True)
        sys.exit(EXIT_IDENTIFICATION)
    if report is not None and not report.passed:
        sys.exit(EXIT_IDENTIFICATION)


def _query_remedial(graph: Ceg, title: str, record, prior, qdoc) -> None:
    target = qdoc.target
    rows = remedial_breakdown(graph, record, prior, target)
    lines = [
        title, "[manipulation]", "type: remedial",
        f"remedy_class: {classify_remedy(record).value}",
        "[mixture]", "weight remedied action effect",
    ]
    for weight, remedied, action, effect in rows:
        edges = "+".join(sorted(str(e) for e in remedied)) if remedied else "-"
        lines.append(f"{_fmt(weight)} {edges} {action or '-'} {_fmt(effect)}")
    total = math.fsum(w * eff for w, _, _, eff in rows)
    lines += ["[effects]", f"target: {target}", f"expected_effect: {_fmt(total)}"]
    _echo("\n".join(lines))


@main.command()
@click.option("--model", "model_path", required=True, type=_Path())
@click.option("--intervention", "intervention_path", required=True, type=_Path())
@click.option("--query", "query_path", required=True, type=_Path())
@click.option("--tolerance", type=float, default=None)
def query(
    model_path: str,
    intervention_path: str,
    query_path: str,
    tolerance: Optional[float],
):
    """Run an intervention and report the causal effect on a target."""
    graph, idoc, qdoc = _load_documents(model_path, intervention_path, query_path, tolerance)
    # each branch resolves and computes everything before its first write
    title = f"model: {graph.name or model_path}"
    if idoc.type == "singular":
        edge = _singular_edge(graph, idoc.edge)
        effect = forced_edge_effect(graph, edge, qdoc.target)
        _echo("\n".join([
            title, "[manipulation]", "type: singular",
            f"edge: {edge}",
            "[effects]", f"target: {qdoc.target}", f"forced_effect: {_fmt(effect)}",
        ]))
        return
    if idoc.type == "remedial":
        prior = DirichletFloretPrior(idoc.alpha, idoc.eta)
        _query_remedial(graph, title, record_from_raw(graph, idoc.record), prior, qdoc)
        return
    manipulation = _manipulation(graph, idoc)
    if manipulation is None:
        effect = idle_target_mass(graph, qdoc.target)
        _echo("\n".join([
            title, "[manipulation]", "type: indicators", "positions: -",
            "[effects]", f"target: {qdoc.target}", f"idle_effect: {_fmt(effect)}",
        ]))
        return
    _query_stochastic(graph, title, manipulation, qdoc)


@main.command("check-backdoor")
@click.option("--model", "model_path", required=True, type=_Path())
@click.option("--intervention", "intervention_path", required=True, type=_Path())
@click.option("--query", "query_path", required=True, type=_Path())
@click.option("--tolerance", type=float, default=None)
def check_backdoor(
    model_path: str,
    intervention_path: str,
    query_path: str,
    tolerance: Optional[float],
):
    """Verify a candidate back-door partition and print the comparison table."""
    graph, idoc, qdoc = _load_documents(model_path, intervention_path, query_path, tolerance)
    if idoc.type == "stochastic":
        # the checked set: the back-door step does not walk w* again
        w_star = validate_stochastic(graph, _manipulation(graph, idoc))
    elif idoc.type == "singular":
        w_star = (_singular_edge(graph, idoc.edge).src,)
    else:
        raise ParseError("check-backdoor needs a stochastic or singular intervention")
    partition, report = backdoor_verdict(
        graph, w_star, qdoc.target, qdoc.partition_kind, qdoc.partition_blocks
    )
    if partition is None:
        _echo("verdict: NOT FOUND")
        sys.exit(EXIT_IDENTIFICATION)
    verdict = "VERIFIED" if report.passed else "FAILED"
    blocks = "; ".join(partition.labels)
    _echo("\n".join([
        f"verdict: {verdict} ({partition.kind} partition: {blocks})",
        *_criteria_lines(report),
    ]))
    if not report.passed:
        sys.exit(EXIT_IDENTIFICATION)


@main.command("export-dot")
@click.option("--model", "model_path", required=True, type=_Path())
@click.option(
    "--kind",
    type=click.Choice(["tree", "staged", "ceg", "manipulated"]),
    default="ceg",
    show_default=True,
)
@click.option("--intervention", "intervention_path", type=_Path(), default=None)
@click.option("--out", "out_path", type=_Path(), metavar="FILE", default=None)
@click.option("--tolerance", type=float, default=None)
def export_dot(
    model_path: str,
    kind: str,
    intervention_path: Optional[str],
    out_path: Optional[str],
    tolerance: Optional[float],
):
    """Write one DOT graph to stdout or --out."""
    # --intervention goes with the manipulated kind alone: checked before any read
    if kind != "manipulated" and intervention_path is not None:
        raise ParseError("--intervention needs --kind manipulated")
    if kind == "manipulated" and intervention_path is None:
        raise ParseError("manipulated export needs --intervention")
    tol = _tolerance_from(tolerance)
    doc = model_io.load(model_path)
    base = doc.name or FsPath(model_path).stem
    if kind == "tree":  # draws no stage, so declared stages go unchecked
        text = tree_dot(build_event_tree(doc, tol), name=base)
    elif kind == "staged":
        text = staged_dot(staged_tree_from_document(doc, build_event_tree(doc, tol)), name=base)
    else:
        graph = ceg_from_document(doc, tol)
        if kind == "ceg":
            text = ceg_dot(graph)
        else:
            idoc = model_io.load_intervention(intervention_path)
            manipulation = _manipulation(graph, idoc)
            if manipulation is None:
                raise ParseError(
                    "manipulated export needs a stochastic or indicators"
                    " intervention that intervenes at least one position"
                )
            manipulated = conditioned_ceg(
                graph, manipulation.intervened_positions, manipulation
            )
            text = ceg_dot(manipulated, name=f"{base}.manipulated")
    if out_path is None:
        _echo(text, nl=False)
    else:
        _write(out_path, text)
        _echo(out_path)


@main.command("fixtures")
@click.option(
    "--out", "out_dir", type=_Path(), metavar="DIRECTORY", default="fixtures",
    show_default=True,
)
@click.option("--seed", type=int, default=None, help="Randomize bushing probabilities.")
def fixtures_cmd(out_dir: str, seed: Optional[int]):
    """Write the bundled example models as model documents."""
    docs = dict(fixture_lib.all_documents())
    if seed is not None:
        docs["bushing"] = fixture_lib.bushing_document(
            fixture_lib.bushing_theta(seed)
        )
    written = []
    for name, doc in sorted(docs.items()):
        path = FsPath(out_dir) / f"{name}.json"
        _write(path, model_io.dumps(doc))
        written.append(str(path))
    _echo("\n".join(written))


if __name__ == "__main__":
    main()
