"""Tests for the flow layer: CFG construction, the four analyses on
their golden fixtures (exact findings), interprocedural summaries,
suppressions, the GitHub renderer, and — the acceptance bar — static/
dynamic agreement: the fixture the flow pass flags deadlocks for real
under the runtime sanitizer.
"""

import ast
import textwrap
from pathlib import Path

import pytest

from repro.lint import (
    DeadlockError,
    FLOW_RULE_IDS,
    lint_paths,
    lint_text,
    render_github,
    RequestLeakError,
    Severity,
)
from repro.lint.flow import build_cfg
from repro.machines import BGP
from repro.simmpi import Cluster

FIXTURES = Path(__file__).parent / "flow_fixtures"
REPO = Path(__file__).resolve().parents[2]


def fixture_text(name):
    return (FIXTURES / name).read_text(encoding="utf-8")


def marker_line(text, marker="# FLAG"):
    for i, line in enumerate(text.splitlines(), start=1):
        if marker in line:
            return i
    raise AssertionError(f"no {marker!r} marker in fixture")


def flow_findings(text, path="fixture.py"):
    return [f for f in lint_text(text, path=path) if f.rule in FLOW_RULE_IDS]


def cfg_of(source):
    tree = ast.parse(textwrap.dedent(source))
    func = tree.body[0]
    return build_cfg(func)


# -- CFG construction -------------------------------------------------------


def test_cfg_straight_line_wires_entry_to_exit():
    cfg = cfg_of(
        """\
        def f():
            a = 1
            b = a + 1
        """
    )
    stmts = list(cfg.statements())
    assert len(stmts) == 2
    assert cfg.entry.successors() == [stmts[0]]
    assert stmts[1].successors("fall") == [cfg.exit]


def test_cfg_if_has_labelled_edges_and_joins():
    cfg = cfg_of(
        """\
        def f(x):
            if x:
                a = 1
            else:
                a = 2
            return a
        """
    )
    branch = next(n for n in cfg.statements() if n.kind == "branch")
    (true_succ,) = branch.successors("true")
    (false_succ,) = branch.successors("false")
    assert true_succ is not false_succ
    ret = next(n for n in cfg.statements() if isinstance(n.stmt, ast.Return))
    # Both arms fall through to the return, which edges to exit.
    assert {true_succ.successors()[0], false_succ.successors()[0]} == {ret}
    assert ret.successors("return") == [cfg.exit]


def test_cfg_while_loop_has_back_edge_and_exit():
    cfg = cfg_of(
        """\
        def f(n):
            while n:
                n -= 1
        """
    )
    branch = next(n for n in cfg.statements() if n.kind == "branch")
    (body,) = branch.successors("true")
    assert branch in body.successors()  # back edge
    assert cfg.exit in [s for s, _ in branch.succs]


def test_cfg_raise_routes_to_exc_exit_not_exit():
    cfg = cfg_of(
        """\
        def f():
            raise ValueError("no")
        """
    )
    (node,) = cfg.statements()
    assert node.successors("raise") == [cfg.exc_exit]
    assert cfg.exit not in [s for s, _ in node.succs]


def test_cfg_reachable_from_respects_stop_node():
    cfg = cfg_of(
        """\
        def f(x):
            while x:
                if x > 1:
                    a = 1
                else:
                    a = 2
        """
    )
    inner = next(
        n for n in cfg.statements() if n.kind == "branch" and isinstance(n.stmt, ast.If)
    )
    true_side = cfg.reachable_from(inner.successors("true"), stop=inner)
    false_side = cfg.reachable_from(inner.successors("false"), stop=inner)
    # Without the stop, the loop back edge would leak each arm into the
    # other; with it, the two arm statements stay exclusive.
    arm_stmts = {n for n in cfg.statements() if isinstance(n.stmt, ast.Assign)}
    assert len(arm_stmts & (true_side - false_side)) == 1
    assert len(arm_stmts & (false_side - true_side)) == 1


# -- golden fixtures: one exact finding each --------------------------------

GOLDEN = [
    ("rank_guarded_collective.py", "flow-collective-match", Severity.ERROR),
    ("leaked_request.py", "flow-request-leak", Severity.ERROR),
    ("blocking_cycle.py", "flow-blocking-cycle", Severity.WARNING),
    ("wallclock_taint.py", "flow-determinism-taint", Severity.ERROR),
]


@pytest.mark.parametrize("name,rule,severity", GOLDEN)
def test_golden_fixture_yields_exactly_its_finding(name, rule, severity):
    text = fixture_text(name)
    findings = lint_text(text, path=name)
    assert [f.rule for f in findings] == [rule]
    (finding,) = findings
    assert finding.severity is severity
    assert finding.line == marker_line(text)


def test_collective_finding_names_the_guard_line():
    text = fixture_text("rank_guarded_collective.py")
    (finding,) = flow_findings(text)
    guard = marker_line(text) - 1  # the `if comm.rank == 0:` line
    assert f"line {guard}" in finding.message
    assert "barrier" in finding.message


def test_blocking_cycle_message_shows_the_cycle():
    (finding,) = flow_findings(fixture_text("blocking_cycle.py"))
    assert "0->1" in finding.message and "1->0" in finding.message


def test_taint_finding_names_source_and_sink():
    (finding,) = flow_findings(fixture_text("wallclock_taint.py"))
    assert "perf_counter" in finding.message
    assert "comm.t_epoch" in finding.message


# -- static/dynamic agreement ----------------------------------------------


def test_rank_guarded_collective_agrees_with_sanitizer():
    from . import flow_fixtures  # noqa: F401  (package import sanity)
    from .flow_fixtures.rank_guarded_collective import program

    # Static verdict: the flow pass proves the deadlock from the text…
    text = fixture_text("rank_guarded_collective.py")
    (finding,) = flow_findings(text)
    assert finding.rule == "flow-collective-match"
    # …and the runtime sanitizer confirms it on a real 2-rank cluster.
    with pytest.raises(DeadlockError) as exc:
        Cluster(BGP, ranks=2, mode="SMP").run(program, sanitize=True)
    (blocked,) = exc.value.report.blocked
    assert blocked.rank == 0
    assert blocked.op == "collective"
    assert "barrier" in blocked.detail


def test_leaked_request_agrees_with_sanitizer():
    from .flow_fixtures.leaked_request import program

    (finding,) = flow_findings(fixture_text("leaked_request.py"))
    assert finding.rule == "flow-request-leak"
    with pytest.raises(RequestLeakError):
        Cluster(BGP, ranks=2, mode="SMP").run(program, sanitize=True)


# -- interprocedural summaries ----------------------------------------------


def test_collective_in_helper_is_flagged_at_rank_guarded_call():
    findings = flow_findings(
        textwrap.dedent(
            """\
            __all__ = []

            def sync(comm):
                yield from comm.barrier()

            def program(comm):
                if comm.rank == 0:
                    yield from sync(comm)
            """
        )
    )
    assert [f.rule for f in findings] == ["flow-collective-match"]
    assert findings[0].line == 8  # the call site, not the helper body


def test_request_returning_helper_transfers_the_obligation():
    body = """\
        __all__ = []

        def start(comm, peer):
            return comm.irecv(src=peer, tag=0)

        def program(comm):
            r = start(comm, 1)
            {tail}
        """
    leak = flow_findings(textwrap.dedent(body.format(tail="yield from comm.compute(seconds=1.0)")))
    assert [f.rule for f in leak] == ["flow-request-leak"]
    clean = flow_findings(textwrap.dedent(body.format(tail="yield from comm.wait(r)")))
    assert clean == []


# -- suppressions and opt-out -----------------------------------------------


def test_flow_findings_honor_line_suppressions():
    text = fixture_text("wallclock_taint.py").replace(
        "# FLAG: host clock value in simulated state",
        "# simlint: ignore[flow-determinism-taint]",
    )
    assert flow_findings(text) == []


def test_flow_false_disables_the_layer():
    text = fixture_text("rank_guarded_collective.py")
    assert lint_text(text, path="fixture.py", flow=False) == []
    assert len(lint_text(text, path="fixture.py", flow=True)) == 1


# -- no false positives on the shipped tree ---------------------------------


def test_shipped_tree_is_flow_clean():
    result = lint_paths(
        [str(REPO / "src"), str(REPO / "examples"), str(REPO / "benchmarks")]
    )
    assert result.findings == [], "\n".join(f.format() for f in result.findings)
    assert result.files_checked > 100


# -- GitHub renderer --------------------------------------------------------


def test_render_github_emits_workflow_commands():
    result = lint_paths([str(FIXTURES / "rank_guarded_collective.py")])
    out = render_github(result)
    (annotation, summary) = out.splitlines()
    assert annotation.startswith("::error file=")
    assert "line=14" in annotation
    assert "title=simlint [flow-collective-match]" in annotation
    assert summary.startswith("simlint: 1 error(s)")


def test_render_github_escapes_newlines_and_percent():
    from repro.lint import LintResult
    from repro.lint.findings import Finding

    result = LintResult(
        findings=[
            Finding(
                path="x.py",
                line=1,
                col=1,
                rule="demo",
                severity=Severity.WARNING,
                message="50% worse\nsecond line",
            )
        ],
        files_checked=1,
    )
    out = render_github(result).splitlines()[0]
    assert "50%25 worse%0Asecond line" in out
    assert "\n" not in out
