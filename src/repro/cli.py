"""Command-line interface: regenerate paper artifacts and run checks.

Usage::

    python -m repro list                 # available experiments
    python -m repro run table3           # regenerate one artifact
    python -m repro run all -o out/      # regenerate everything to files
    python -m repro run all -o out/ --jobs 4   # ... through the worker pool
    python -m repro run fig3 --trace t.json --metrics m.json
    python -m repro campaign run all -o camp/ --jobs 4   # cached campaign
    python -m repro campaign run all -o camp/ --chaos seed=42,kills=1  # fault drill
    python -m repro campaign status -o camp/
    python -m repro campaign status -o camp/ --json      # machine-readable
    python -m repro campaign clean -o camp/ --cache
    python -m repro chaos plan all --chaos seed=42,kills=1,torn=1  # dry-run
    python -m repro chaos plan all --chaos seed=42,kills=1 --json  # machine-readable
    python -m repro serve start -o srv/ --jobs 4         # durable campaign service
    python -m repro serve submit all -o srv/ --wait      # submit + poll a campaign
    python -m repro serve status -o srv/ --json
    python -m repro serve drain -o srv/ --wait           # finish queue, then exit
    python -m repro trace pop            # traced DES scenario -> Chrome trace
    python -m repro trace pingpong --param nbytes=65536
    python -m repro faults link-kill     # fault-injection scenario
    python -m repro recover pop-shrink   # checkpoint/restart + ULFM recovery
    python -m repro recover checkpoint-sim   # executed vs analytic
    python -m repro validate             # check the ten paper claims
    python -m repro machines             # show the machine catalog
    python -m repro lint src/            # simlint static analysis
    python -m repro bench list           # registered micro-benchmarks
    python -m repro bench run -o out/    # time the suite -> BENCH_<host>.json
    python -m repro bench compare base.json new.json --fail-over 15%
    python -m repro bench profile pop    # host time by layer + hotspots
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Any, Dict, List, Optional

from .params import parse_params

__all__ = ["main"]


def _cmd_list(_args: argparse.Namespace) -> int:
    from .core.evaluation import EXPERIMENTS

    descriptions = {
        "table1": "System configuration summary",
        "table2": "HPCC comparison, 4096 processes VN",
        "fig1": "HPCC HPL/FFT/PTRANS/RandomAccess scaling",
        "fig2": "HALO protocols/mappings/grids on BG/P",
        "fig3": "IMB Allreduce/Bcast latency",
        "top500": "TOP500 HPL run (Section II.C)",
        "fig4": "POP tenth-degree benchmark",
        "fig5": "CAM spectral/FV benchmarks",
        "fig6": "S3D weak scaling",
        "fig7": "GYRO strong/weak scaling",
        "fig8": "LAMMPS/PMEMD on RuBisCO",
        "table3": "Power comparison",
        "lists": "TOP500/Green500 placement + density (extension)",
    }
    for eid in EXPERIMENTS:
        print(f"  {eid:8s} {descriptions.get(eid, '')}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from .core.evaluation import EXPERIMENTS, run_experiment

    try:
        params = parse_params(args.params)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    jobs = getattr(args, "jobs", 1) or 1
    if args.experiment == "all" and args.output:
        # `run all -o` rides the campaign layer: worker pool, result
        # cache under <out>/.cache, and a manifest.json index.
        return _run_all_campaign(args, params, jobs)
    ids = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    outdir: Optional[pathlib.Path] = (
        pathlib.Path(args.output) if args.output else None
    )
    if outdir:
        outdir.mkdir(parents=True, exist_ok=True)
    if args.experiment == "all" and jobs > 1:
        # Parallel compute, ordered printing; no directory => no cache.
        # Pool workers trace nothing back, so a trace needs the campaign.
        if args.trace or args.metrics:
            print(
                "repro run: --trace/--metrics with 'all --jobs N' need -o DIR "
                "(the campaign path records the job track)",
                file=sys.stderr,
            )
            return 2
        from .campaign import CampaignSpec, SpecError, execute_job, pool_map

        try:
            expanded = CampaignSpec.from_ids(ids, params).expand()
        except (SpecError, KeyError) as exc:
            print(exc, file=sys.stderr)
            return 2
        with pool_map(jobs) as ex:
            outcomes = list(
                ex(
                    _execute_job_tuple,
                    [(j.job_id, j.experiment, j.params) for j in expanded],
                )
            )
        status = 0
        for outcome in outcomes:
            if outcome.ok:
                print(outcome.text)
                print()
            else:
                print(f"{outcome.job_id}: {outcome.error_type}: {outcome.error}",
                      file=sys.stderr)
                status = 1
        return status
    tracer = None
    if args.trace or args.metrics:
        from .obs import Tracer, tracing

        tracer = Tracer()
    for eid in ids:
        try:
            if tracer is not None:
                with tracing(tracer):
                    text = run_experiment(eid, **params)
            else:
                text = run_experiment(eid, **params)
        except KeyError as exc:
            print(exc, file=sys.stderr)
            return 2
        if outdir:
            from .campaign.ledger import Ledger

            path = outdir / f"{eid}.txt"
            Ledger(outdir).artifact(path.name, text)
            print(f"wrote {path}")
        else:
            print(text)
            print()
    if tracer is not None:
        from .obs import write_chrome_trace, write_metrics

        if args.trace:
            print(f"wrote {write_chrome_trace(tracer, args.trace)}")
        if args.metrics:
            print(f"wrote {write_metrics(tracer, args.metrics)}")
    return 0


def _execute_job_tuple(job):
    """Picklable shim: ``pool_map`` feeds (id, experiment, params)."""
    from .campaign import execute_job

    return execute_job(*job)


def _run_all_campaign(args: argparse.Namespace, params: Dict[str, float], jobs: int) -> int:
    """``repro run all -o out/``: campaign-backed regeneration + manifest."""
    from .campaign import MANIFEST_FILE, CampaignRunner, CampaignSpec, SpecError

    outdir = pathlib.Path(args.output)
    try:
        spec = CampaignSpec.from_ids(["all"], params, name="run-all")
    except KeyError as exc:
        print(exc, file=sys.stderr)
        return 2
    tracer = None
    if args.trace or args.metrics:
        from .obs import Tracer

        tracer = Tracer()
    runner = CampaignRunner(spec, outdir, jobs=jobs, tracer=tracer)
    try:
        result = _run_campaign(runner, tracer)
    except SpecError as exc:
        print(exc, file=sys.stderr)
        return 2
    status = 0
    for record in result.records:
        if record.ok:
            print(f"wrote {outdir / record.artifact}")
        else:
            print(
                f"{record.job_id}: {record.error_type}: {record.error}",
                file=sys.stderr,
            )
            status = 1
    print(f"wrote {outdir / MANIFEST_FILE}")
    print(result.summary_line())
    if tracer is not None:
        from .obs import write_chrome_trace, write_metrics

        if args.trace:
            print(f"wrote {write_chrome_trace(tracer, args.trace)}")
        if args.metrics:
            print(f"wrote {write_metrics(tracer, args.metrics)}")
    return status


def _run_campaign(runner, tracer, **kwargs):
    """Run a campaign pass, under the ambient tracer when one is given
    (inline jobs are then traced end-to-end; pool workers record only
    the campaign track, as documented)."""
    if tracer is None:
        return runner.run(**kwargs)
    from .obs import tracing

    with tracing(tracer):
        return runner.run(**kwargs)


def _scenario(args: argparse.Namespace, command: str, prog: str):
    """``--list`` one command's scenarios, or run the one ``args`` names.

    ``command`` keys the scenario table (trace, faults, recover) and
    ``prog`` names the subcommand in errors.  Returns ``(exit code,
    tracer)``: the tracer is ``None`` unless a scenario ran, whose
    result line is then printed.  A missing or unknown id or a bad
    ``--param`` exits 2.
    """
    from .obs.scenarios import run_scenario, scenario_ids

    if args.list_scenarios:
        for sid in scenario_ids(command):
            print(f"  {sid}")
        return 0, None
    if not args.scenario:
        print(f"repro {prog}: give a scenario id (or --list)", file=sys.stderr)
        return 2, None
    try:
        params = parse_params(args.params)
        tracer, result_line = run_scenario(args.scenario, command, **params)
    except (KeyError, ValueError) as exc:
        print(exc, file=sys.stderr)
        return 2, None
    print(result_line)
    return 0, tracer


def _cmd_trace(args: argparse.Namespace) -> int:
    from .obs import summary, write_chrome_trace, write_metrics

    code, tracer = _scenario(args, "trace", "trace")
    if tracer is None:
        return code
    out = args.output or f"{args.scenario}.trace.json"
    print(f"wrote {write_chrome_trace(tracer, out)}")
    if args.metrics:
        print(f"wrote {write_metrics(tracer, args.metrics)}")
    if not args.no_summary:
        print(summary(tracer, n=args.top))
    return 0


def _cmd_faults_or_recover(args: argparse.Namespace) -> int:
    from .obs import write_chrome_trace, write_metrics

    code, tracer = _scenario(args, args.command, args.command)
    if tracer is None:
        return code
    if args.output:
        print(f"wrote {write_chrome_trace(tracer, args.output)}")
    if args.metrics:
        print(f"wrote {write_metrics(tracer, args.metrics)}")
    return 0


DEFAULT_CAMPAIGN_DIR = "campaign-out"


def _campaign_spec(args: argparse.Namespace) -> Any:
    """The campaign a verb was given: ``--spec FILE``, one ``*.json``
    target, or experiment ids (with any ``--param``).  A bad command
    line raises ``ValueError``, an unreadable file ``OSError``; the
    verbs print either after their name and exit 2."""
    from .campaign import CampaignSpec

    params = parse_params(getattr(args, "params", None))
    targets = args.targets or []
    if args.spec and targets:
        raise ValueError("give either --spec or experiment ids, not both")
    if args.spec or (len(targets) == 1 and targets[0].endswith(".json")):
        return CampaignSpec.from_file(args.spec or targets[0])
    if targets:
        return CampaignSpec.from_ids(targets, params)
    raise ValueError("give a spec file, experiment ids, or 'all'")


def _chaos_spec(args: argparse.Namespace) -> Any:
    """The parsed ``--chaos`` spec (``None`` without one); a bad spec
    raises ``ChaosError``, a ``ValueError``."""
    from .chaos import ChaosSpec

    return ChaosSpec.parse(args.chaos) if args.chaos else None


def _serve_client(args: argparse.Namespace) -> Any:
    """The server a client verb talks to: ``--port`` directly, else the
    one ``<dir>/server.json`` advertises (``ServeError`` if none)."""
    from .serve import ServeClient, discover

    return ServeClient(args.host, args.port) if args.port else discover(args.dir)


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    from .campaign import CampaignRunner, SpecError
    from .chaos import ChaosError

    try:
        chaos = _chaos_spec(args)
        spec = _campaign_spec(args)
    except (OSError, ValueError) as exc:
        print(f"repro campaign run: {exc}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace or args.metrics:
        from .obs import Tracer

        tracer = Tracer()
    runner = CampaignRunner(
        spec,
        args.dir,
        jobs=args.jobs,
        retries=args.retries,
        cache_dir=args.cache_dir,
        tracer=tracer,
        deadline_s=args.deadline,
        backoff_base=args.backoff_base,
        quarantine_after=args.quarantine_after,
        chaos=chaos,
    )
    try:
        result = _run_campaign(runner, tracer, max_jobs=args.max_jobs, fresh=args.fresh)
    except (SpecError, ChaosError, KeyError) as exc:
        print(exc, file=sys.stderr)
        return 2
    for record in result.records:
        label = {"cache": "hit ", "computed": "run ", "journal": "skip"}.get(
            record.source, "----"
        )
        line = f"[{label}] {record.job_id:24s} {record.status}"
        if record.status == "failed":
            line += f"  {record.error_type}({record.classification}): {record.error}"
        elif record.status == "quarantined":
            line += f"  poison after {record.attempts} attempt(s): {record.error}"
        print(line)
    print(result.summary_line())
    if chaos is not None:
        print(runner.chaos_report())
    if tracer is not None:
        from .obs import write_chrome_trace, write_metrics

        if args.trace:
            print(f"wrote {write_chrome_trace(tracer, args.trace)}")
        if args.metrics:
            print(f"wrote {write_metrics(tracer, args.metrics)}")
    return 1 if result.failed else 0


def _cmd_campaign_status(args: argparse.Namespace) -> int:
    from .campaign import NEVER_RETRY, load_or_rebuild_manifest

    directory = pathlib.Path(args.dir)
    # A torn/truncated manifest (hard kill mid-rewrite, disk tear) is
    # not fatal: the fsync'd journal rebuilds everything that finished.
    doc = load_or_rebuild_manifest(directory)
    if doc is None:
        print(f"repro campaign status: no manifest under {directory}/ "
              "(run a campaign first)", file=sys.stderr)
        return 2
    jobs = doc.get("jobs", [])
    counts: Dict[str, int] = {}
    for job in jobs:
        status = job.get("status", "?")
        counts[status] = counts.get(status, 0) + 1
    if args.json:
        out = {
            "name": doc.get("name", ""),
            "rebuilt_from_journal": bool(doc.get("rebuilt_from_journal", False)),
            "counts": dict(sorted(counts.items())),
            "jobs": [
                {
                    "id": job.get("job_id", ""),
                    "status": job.get("status", ""),
                    "attempts": job.get("attempts", 0),
                    "classification": job.get("classification", ""),
                    "retryable": (
                        job.get("classification", "") not in NEVER_RETRY
                        if job.get("status") in ("failed", "pending")
                        else False
                    ),
                    "source": job.get("source", ""),
                    "artifact": job.get("artifact", ""),
                    "digest": job.get("digest", ""),
                    "backoff_s": job.get("backoff_s", []),
                    "error_type": job.get("error_type", ""),
                    "error": job.get("error", ""),
                }
                for job in jobs
            ],
        }
        print(json.dumps(out, indent=2, sort_keys=True))
        return 0
    print(f"campaign {doc.get('name', '?')!r}: {len(jobs)} job(s)")
    if doc.get("rebuilt_from_journal"):
        print("  (manifest unreadable - rebuilt from journal)")
    for job in jobs:
        status = job.get("status", "?")
        line = (
            f"  {job.get('job_id', '?'):24s} {status:8s} "
            f"{job.get('source') or '-':8s} "
            f"{(job.get('digest') or '')[:12]:12s} {job.get('artifact', '')}"
        )
        if status == "failed":
            line += (
                f"  {job.get('error_type', '')}({job.get('classification', '')}): "
                f"{job.get('error', '')}"
            )
        elif status == "quarantined":
            line += f"  poison after {job.get('attempts', 0)} attempt(s)"
        print(line)
    summary = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
    print(f"summary: {summary}")
    return 0


def _cmd_chaos_plan(args: argparse.Namespace) -> int:
    try:
        chaos = _chaos_spec(args)
        spec = _campaign_spec(args)
        plan = chaos.compile([job.job_id for job in spec.expand()])
    except (OSError, ValueError) as exc:
        print(f"repro chaos plan: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(plan.to_dict(), indent=2, sort_keys=True))
    else:
        print(plan.describe())
    return 0


def _cmd_campaign_clean(args: argparse.Namespace) -> int:
    from .campaign import (
        CAMPAIGN_FILE,
        JOURNAL_FILE,
        MANIFEST_FILE,
        ResultCache,
        load_campaign_file,
    )

    directory = pathlib.Path(args.dir)
    doc = load_campaign_file(directory / CAMPAIGN_FILE)
    removed = 0
    if doc:
        for job in doc.get("jobs", []):
            artifact = directory / f"{job.get('id', '')}.txt"
            if job.get("id") and artifact.is_file():
                artifact.unlink()
                removed += 1
    for name in (MANIFEST_FILE, JOURNAL_FILE, CAMPAIGN_FILE):
        path = directory / name
        if path.is_file():
            path.unlink()
            removed += 1
    print(f"removed {removed} campaign file(s) from {directory}/")
    if args.cache:
        cache = ResultCache(args.cache_dir or directory / ".cache")
        print(f"cleared {cache.clear()} cache entr(ies) from {cache.root}/")
    elif args.cache_orphans:
        cache = ResultCache(args.cache_dir or directory / ".cache")
        pruned = cache.prune_orphans()
        print(f"pruned {pruned} orphaned cache entr(ies) from {cache.root}/ "
              "(stale code fingerprint or corrupt meta)")
    return 0


DEFAULT_SERVE_DIR = "serve-out"


def _cmd_serve_start(args: argparse.Namespace) -> int:
    from .serve import CampaignServer, ServerConfig

    try:
        chaos = _chaos_spec(args)
    except ValueError as exc:
        print(f"repro serve start: {exc}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace or args.metrics:
        from .obs import Tracer

        tracer = Tracer()
    server = CampaignServer(
        ServerConfig(
            directory=args.dir,
            host=args.host,
            port=args.port,
            name=args.name,
            jobs=args.jobs,
            retries=args.retries,
            backoff_base=args.backoff_base,
            quarantine_after=args.quarantine_after,
            lease_ttl=args.lease_ttl,
            deadline_s=args.deadline,
            max_backlog=args.max_backlog,
            cache_dir=args.cache_dir,
            chaos=chaos,
            tracer=tracer,
        )
    )
    try:
        server.run()
    except KeyboardInterrupt:
        pass
    finally:
        if tracer is not None:
            from .obs import write_chrome_trace, write_metrics

            if args.trace:
                print(f"wrote {write_chrome_trace(tracer, args.trace)}")
            if args.metrics:
                print(f"wrote {write_metrics(tracer, args.metrics)}")
    return 0


def _cmd_serve_submit(args: argparse.Namespace) -> int:
    from .serve import ServeError

    try:
        spec = _campaign_spec(args)
    except (OSError, ValueError) as exc:
        print(f"repro serve submit: {exc}", file=sys.stderr)
        return 2
    try:
        client = _serve_client(args)
        receipt = client.submit_with_retry(spec.to_dict(), timeout=args.timeout)
        if args.wait:
            final = client.wait(receipt["campaign"], timeout=args.timeout)
            receipt = {**receipt, "counts": final["counts"], "done": final["done"]}
    except ServeError as exc:
        print(f"repro serve submit: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(receipt, indent=2, sort_keys=True))
    return 0


def _cmd_serve_status(args: argparse.Namespace) -> int:
    from .serve import ServeError

    try:
        client = _serve_client(args)
        if args.campaign:
            doc: Dict[str, Any] = client.campaign(args.campaign)
        else:
            doc = client.health()
            doc["campaigns"] = client.campaigns().get("campaigns", [])
            doc["counters"] = client.stats().get("counters", {})
    except ServeError as exc:
        print(f"repro serve status: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    if args.campaign:
        counts = ", ".join(f"{v} {k}" for k, v in sorted(doc["counts"].items()))
        print(f"campaign {doc['id']} {doc['name']!r}: {doc['total']} job(s); {counts}")
        for job in doc["jobs"]:
            line = f"  {job['job_id']:24s} {job['state']:12s} {job['artifact']}"
            if job["state"] in ("failed", "quarantined"):
                line += f"  {job['error_type']}({job['classification']}): {job['error']}"
            print(line)
    else:
        counts = ", ".join(f"{v} {k}" for k, v in sorted(doc["counts"].items()))
        drain = " (draining)" if doc.get("draining") else ""
        print(
            f"server {doc['name']!r} pid {doc['pid']}: {doc['jobs']} worker(s), "
            f"backlog {doc['backlog']}{drain}"
        )
        print(f"jobs: {counts}")
        print(f"campaigns: {', '.join(doc['campaigns']) or '(none)'}")
    return 0


def _cmd_serve_drain(args: argparse.Namespace) -> int:
    from .perf.hostclock import HostClock, host_sleep
    from .serve import ServeError

    try:
        client = _serve_client(args)
        doc = client.drain()
    except ServeError as exc:
        print(f"repro serve drain: {exc}", file=sys.stderr)
        return 1
    print(f"draining; backlog {doc.get('backlog', '?')}")
    if not args.wait:
        return 0
    # A draining server exits on its own once the queue empties; waiting
    # means polling until it stops answering.
    clock = HostClock()
    while clock.elapsed() < args.timeout:
        try:
            doc = client.health()
        except ServeError:
            print("server exited (queue drained)")
            return 0
        host_sleep(0.2)
    print(f"repro serve drain: backlog {doc.get('backlog', '?')} still "
          f"remaining after {args.timeout:g}s", file=sys.stderr)
    return 1


def _cmd_validate(_args: argparse.Namespace) -> int:
    from .core.validate import CLAIMS, ValidationError

    failed: List[str] = []
    for claim in CLAIMS:
        try:
            claim.verify()
            status = "PASS"
        except ValidationError:
            status = "FAIL"
            failed.append(claim.id)
        print(f"  [{status}] {claim.id}: {claim.statement}")
    if failed:
        print(f"\n{len(failed)} claim(s) failed: {failed}", file=sys.stderr)
        return 1
    print(f"\nall {len(CLAIMS)} paper claims hold")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from .machines import get_machine
    from .core.compare import render_comparison

    try:
        a = get_machine(args.machine_a)
        b = get_machine(args.machine_b)
    except KeyError as exc:
        print(exc, file=sys.stderr)
        return 2
    print(render_comparison(a, b, processes=args.processes))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .lint import all_rules, lint_paths, render_github, render_json, render_text

    if args.list_rules:
        from .lint.flow import FLOW_RULE_DESCRIPTIONS

        for rule in all_rules():
            print(f"  {rule.id:24s} {rule.severity}  {rule.description}")
        for rule_id, description in FLOW_RULE_DESCRIPTIONS.items():
            print(f"  {rule_id:24s} error  {description}")
        return 0
    paths = args.paths
    if not paths:
        default = pathlib.Path("src")
        paths = [str(default)] if default.is_dir() else ["."]
    missing = [p for p in paths if not pathlib.Path(p).exists()]
    if missing:
        print(f"repro lint: no such file or directory: {', '.join(missing)}", file=sys.stderr)
        return 2
    result = lint_paths(paths, flow=args.flow)
    renderers = {"json": render_json, "github": render_github, "text": render_text}
    print(renderers[args.format](result))
    return result.exit_code


def _cmd_bench_list(_args: argparse.Namespace) -> int:
    from .perf import benchmark_ids, get_benchmark

    print("registered micro-benchmarks:")
    for name in benchmark_ids():
        bench = get_benchmark(name)
        budget = f"  [budget {bench.budget_s:g}s]" if bench.budget_s else ""
        print(f"  {name:32s} {bench.description}{budget}")
    return 0


def _cmd_bench_run(args: argparse.Namespace) -> int:
    from .perf import run_benchmarks

    def progress(name, entry):
        print(
            f"  {name:40s} median {entry.median_s:.6f}s  "
            f"({entry.repeats} rep(s), warmup {entry.warmup})"
        )

    try:
        snap = run_benchmarks(
            args.names or None,
            repeats=args.repeats,
            warmup=args.warmup,
            progress=progress,
        )
    except (KeyError, ValueError) as exc:
        print(exc, file=sys.stderr)
        return 2
    path = snap.write(args.output)
    print(f"wrote {path}")
    over = snap.over_budget()
    if over:
        for entry in over:
            print(
                f"BUDGET: {entry.name} median {entry.median_s:.3f}s exceeds "
                f"its {entry.budget_s:g}s budget",
                file=sys.stderr,
            )
        return 1
    return 0


def _cmd_bench_compare(args: argparse.Namespace) -> int:
    from .perf import compare_snapshots, load_snapshot, parse_percent, SnapshotError

    try:
        fail_over = parse_percent(args.fail_over)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    try:
        base = load_snapshot(args.base)
        new = load_snapshot(args.new)
    except SnapshotError as exc:
        print(exc, file=sys.stderr)
        return 2
    comparison = compare_snapshots(base, new, fail_over=fail_over)
    print(comparison.render())
    return comparison.exit_code


def _cmd_bench_profile(args: argparse.Namespace) -> int:
    from .obs import summary, write_chrome_trace
    from .perf import HostProfiler

    with HostProfiler(top=args.top) as profiler:
        code, tracer = _scenario(args, "trace", "bench profile")
    if tracer is None:
        return code
    profiler.export(tracer)
    out = args.output or f"{args.scenario}.profile.trace.json"
    print(f"wrote {write_chrome_trace(tracer, out)}")
    counters = tracer.metrics.to_dict()["counters"]
    print(
        f"{counters.get('engine.events', 0)} engine events, "
        f"{counters.get('mpi.messages', 0)} messages"
    )
    print(profiler.report())
    if not args.no_summary:
        print(summary(tracer, n=args.top))
    return 0


def _cmd_machines(_args: argparse.Namespace) -> int:
    from .core.evaluation import table1_config

    print(table1_config())
    return 0


def _add_scenario_args(parser: argparse.ArgumentParser, example: str) -> None:
    """The arguments every scenario-running command shares (see
    :func:`_scenario`); ``example`` is a ``--param`` shown in the help."""
    parser.add_argument("scenario", nargs="?", help="scenario id (see --list)")
    parser.add_argument(
        "--list", dest="list_scenarios", action="store_true",
        help="list scenario ids and exit",
    )
    parser.add_argument(
        "--param", dest="params", action="append", metavar="KEY=VALUE",
        help=f"scenario parameter (repeatable; e.g. --param {example})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Early Evaluation of IBM BlueGene/P' (SC'08): "
            "regenerate the paper's tables and figures from machine models."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiment ids").set_defaults(fn=_cmd_list)

    p_run = sub.add_parser("run", help="regenerate an artifact (or 'all')")
    p_run.add_argument("experiment", help="experiment id, or 'all'")
    p_run.add_argument("-o", "--output", help="directory to write .txt artifacts")
    p_run.add_argument(
        "--trace",
        metavar="FILE",
        help="record any message-level simulation into a Chrome trace JSON",
    )
    p_run.add_argument(
        "--metrics", metavar="FILE", help="write the metrics-registry JSON"
    )
    p_run.add_argument(
        "--param", dest="params", action="append", metavar="KEY=VALUE",
        help="experiment parameter override (repeatable; numeric values)",
    )
    p_run.add_argument(
        "-j", "--jobs", type=int, default=1, metavar="N",
        help="worker processes for 'run all' (default: 1; with -o the "
             "run rides the campaign cache and emits a manifest.json)",
    )
    p_run.set_defaults(fn=_cmd_run)

    p_camp = sub.add_parser(
        "campaign",
        help="parallel, cached, resumable experiment campaigns",
    )
    camp_sub = p_camp.add_subparsers(dest="campaign_command", required=True)

    p_crun = camp_sub.add_parser(
        "run", help="run a campaign (spec file, experiment ids, or 'all')"
    )
    p_crun.add_argument(
        "targets", nargs="*", metavar="TARGET",
        help="experiment ids, 'all', or a single spec.json path",
    )
    p_crun.add_argument("--spec", metavar="FILE", help="campaign spec JSON file")
    p_crun.add_argument(
        "-o", "--dir", default=DEFAULT_CAMPAIGN_DIR, metavar="DIR",
        help=f"campaign directory (default: {DEFAULT_CAMPAIGN_DIR}/)",
    )
    p_crun.add_argument(
        "-j", "--jobs", type=int, default=1, metavar="N",
        help="worker processes (default: 1 = inline)",
    )
    p_crun.add_argument(
        "--retries", type=int, default=1, metavar="N",
        help="extra attempts for retryable job failures (transient, "
             "timeout, worker crash; default: 1 - deterministic "
             "budget/fault/config failures never retry)",
    )
    p_crun.add_argument(
        "--deadline", type=float, default=None, metavar="SEC",
        help="per-job watchdog deadline in host seconds (timed-out jobs "
             "are cancelled, classified, and requeued with backoff)",
    )
    p_crun.add_argument(
        "--backoff-base", type=float, default=0.05, metavar="SEC",
        help="base of the seeded exponential retry backoff (default: 0.05)",
    )
    p_crun.add_argument(
        "--quarantine-after", type=int, default=2, metavar="N",
        help="quarantine a job as poison after it kills N workers "
             "(default: 2)",
    )
    p_crun.add_argument(
        "--chaos", metavar="SPEC",
        help="inject host faults from a chaos spec: a JSON file or "
             "'seed=42,kills=1,hangs=1,torn=1,ioerr=1' (see 'repro chaos')",
    )
    p_crun.add_argument(
        "--param", dest="params", action="append", metavar="KEY=VALUE",
        help="shared experiment parameter for id targets (repeatable)",
    )
    p_crun.add_argument(
        "--max-jobs", type=int, default=None, metavar="N",
        help="compute at most N jobs this pass (incremental/interrupt "
             "testing; the rest stays pending and resumes next run)",
    )
    p_crun.add_argument(
        "--fresh", action="store_true",
        help="truncate the journal first (cache and artifacts are kept; "
             "use 'campaign clean' for those)",
    )
    p_crun.add_argument(
        "--cache-dir", metavar="DIR",
        help="result-cache location (default: <dir>/.cache; share one "
             "across campaigns to reuse results)",
    )
    p_crun.add_argument(
        "--trace", metavar="FILE",
        help="write the campaign track (job spans, cache hits, worker "
             "utilization) as Chrome trace JSON",
    )
    p_crun.add_argument(
        "--metrics", metavar="FILE", help="write the campaign.* metrics JSON"
    )
    p_crun.set_defaults(fn=_cmd_campaign_run)

    p_cstat = camp_sub.add_parser("status", help="per-job status of a campaign")
    p_cstat.add_argument(
        "-o", "--dir", default=DEFAULT_CAMPAIGN_DIR, metavar="DIR",
        help=f"campaign directory (default: {DEFAULT_CAMPAIGN_DIR}/)",
    )
    p_cstat.add_argument(
        "--json", action="store_true",
        help="machine-readable output (job id, status, attempts, retry "
             "class, backoff); works even off a torn manifest",
    )
    p_cstat.set_defaults(fn=_cmd_campaign_status)

    p_cclean = camp_sub.add_parser(
        "clean", help="remove a campaign's artifacts, journal, and manifest"
    )
    p_cclean.add_argument(
        "-o", "--dir", default=DEFAULT_CAMPAIGN_DIR, metavar="DIR",
        help=f"campaign directory (default: {DEFAULT_CAMPAIGN_DIR}/)",
    )
    p_cclean.add_argument(
        "--cache", action="store_true", help="also clear the result cache"
    )
    p_cclean.add_argument(
        "--cache-dir", metavar="DIR",
        help="cache location if it was overridden at run time",
    )
    p_cclean.add_argument(
        "--cache-orphans", action="store_true",
        help="prune cache entries whose content address no longer matches "
             "the current code fingerprint (stale results from an older "
             "tree; keeps live entries, unlike --cache)",
    )
    p_cclean.set_defaults(fn=_cmd_campaign_clean)

    p_chaos = sub.add_parser(
        "chaos",
        help="deterministic host-level fault injection for campaigns",
    )
    chaos_sub = p_chaos.add_subparsers(dest="chaos_command", required=True)
    p_cplan = chaos_sub.add_parser(
        "plan",
        help="compile a chaos spec against a job list and show the "
             "injection schedule (dry run; same seed => same plan)",
    )
    p_cplan.add_argument(
        "targets", nargs="*", metavar="TARGET",
        help="experiment ids, 'all', or a single campaign spec.json path",
    )
    p_cplan.add_argument("--spec", metavar="FILE", help="campaign spec JSON file")
    p_cplan.add_argument(
        "--chaos", default="seed=0", metavar="SPEC",
        help="chaos spec: JSON file or compact string "
             "'seed=42,kills=1,hangs=1,torn=1,ioerr=1,hang_seconds=0.25,"
             "hard=1' (default: seed=0, no injections)",
    )
    p_cplan.add_argument(
        "--json", action="store_true",
        help="machine-readable plan (seed, event keys, per-event targets) "
             "instead of the prose schedule",
    )
    p_cplan.set_defaults(fn=_cmd_chaos_plan)

    p_serve = sub.add_parser(
        "serve",
        help="durable campaign service: SQLite-backed queue over HTTP",
    )
    serve_sub = p_serve.add_subparsers(dest="serve_command", required=True)

    p_sstart = serve_sub.add_parser(
        "start", help="run a campaign server (blocks; SIGKILL-safe)"
    )
    p_sstart.add_argument(
        "-o", "--dir", default=DEFAULT_SERVE_DIR, metavar="DIR",
        help=f"serve directory: queue db, artifacts, journal, manifest "
             f"(default: {DEFAULT_SERVE_DIR}/)",
    )
    p_sstart.add_argument("--host", default="127.0.0.1", metavar="ADDR")
    p_sstart.add_argument(
        "--port", type=int, default=0, metavar="PORT",
        help="listen port (default: 0 = pick a free one; the bound port "
             "lands in <dir>/server.json for discovery)",
    )
    p_sstart.add_argument("--name", default="serve", metavar="NAME")
    p_sstart.add_argument(
        "-j", "--jobs", type=int, default=2, metavar="N",
        help="worker processes (default: 2)",
    )
    p_sstart.add_argument(
        "--retries", type=int, default=1, metavar="N",
        help="extra attempts for retryable failures (default: 1)",
    )
    p_sstart.add_argument(
        "--deadline", type=float, default=None, metavar="SEC",
        help="per-job watchdog deadline in host seconds",
    )
    p_sstart.add_argument(
        "--lease-ttl", type=float, default=5.0, metavar="SEC",
        help="heartbeat contract: a lease silent this long is requeued "
             "(default: 5)",
    )
    p_sstart.add_argument(
        "--max-backlog", type=int, default=64, metavar="N",
        help="bound on accepted-but-unfinished jobs; submissions past it "
             "shed with 429 + Retry-After (default: 64)",
    )
    p_sstart.add_argument(
        "--backoff-base", type=float, default=0.05, metavar="SEC",
        help="base of the seeded exponential retry backoff (default: 0.05)",
    )
    p_sstart.add_argument(
        "--quarantine-after", type=int, default=2, metavar="N",
        help="quarantine a job as poison after it kills N workers "
             "(default: 2)",
    )
    p_sstart.add_argument(
        "--cache-dir", metavar="DIR",
        help="result-cache location (default: <dir>/.cache)",
    )
    p_sstart.add_argument(
        "--chaos", metavar="SPEC",
        help="inject service faults from a chaos spec (adds server_kills= "
             "and heartbeat_losses= to the batch kinds; see 'repro chaos')",
    )
    p_sstart.add_argument(
        "--trace", metavar="FILE",
        help="write the serve track (request spans, job spans, chaos "
             "instants) as Chrome trace JSON on exit",
    )
    p_sstart.add_argument(
        "--metrics", metavar="FILE", help="write the serve.* metrics JSON on exit"
    )
    p_sstart.set_defaults(fn=_cmd_serve_start)

    p_ssub = serve_sub.add_parser(
        "submit", help="submit a campaign spec to a running server"
    )
    p_ssub.add_argument(
        "targets", nargs="*", metavar="TARGET",
        help="experiment ids, 'all', or a single spec.json path",
    )
    p_ssub.add_argument("--spec", metavar="FILE", help="campaign spec JSON file")
    p_ssub.add_argument(
        "-o", "--dir", default=DEFAULT_SERVE_DIR, metavar="DIR",
        help=f"serve directory to discover the server from "
             f"(default: {DEFAULT_SERVE_DIR}/)",
    )
    p_ssub.add_argument("--host", default="127.0.0.1", metavar="ADDR")
    p_ssub.add_argument(
        "--port", type=int, default=0, metavar="PORT",
        help="connect directly instead of via <dir>/server.json",
    )
    p_ssub.add_argument(
        "--param", dest="params", action="append", metavar="KEY=VALUE",
        help="shared experiment parameter for id targets (repeatable)",
    )
    p_ssub.add_argument(
        "--wait", action="store_true",
        help="poll until every submitted job is terminal",
    )
    p_ssub.add_argument(
        "--timeout", type=float, default=120.0, metavar="SEC",
        help="budget for shedding retries and --wait polling (default: 120)",
    )
    p_ssub.set_defaults(fn=_cmd_serve_submit)

    p_sstat = serve_sub.add_parser(
        "status", help="server health, or one campaign's per-job states"
    )
    p_sstat.add_argument(
        "campaign", nargs="?", default="", metavar="CAMPAIGN_ID",
        help="campaign id from 'serve submit' (omit for server health)",
    )
    p_sstat.add_argument(
        "-o", "--dir", default=DEFAULT_SERVE_DIR, metavar="DIR",
        help=f"serve directory (default: {DEFAULT_SERVE_DIR}/)",
    )
    p_sstat.add_argument("--host", default="127.0.0.1", metavar="ADDR")
    p_sstat.add_argument(
        "--port", type=int, default=0, metavar="PORT",
        help="connect directly instead of via <dir>/server.json",
    )
    p_sstat.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    p_sstat.set_defaults(fn=_cmd_serve_status)

    p_sdrain = serve_sub.add_parser(
        "drain", help="stop accepting submissions; exit once the queue empties"
    )
    p_sdrain.add_argument(
        "-o", "--dir", default=DEFAULT_SERVE_DIR, metavar="DIR",
        help=f"serve directory (default: {DEFAULT_SERVE_DIR}/)",
    )
    p_sdrain.add_argument("--host", default="127.0.0.1", metavar="ADDR")
    p_sdrain.add_argument(
        "--port", type=int, default=0, metavar="PORT",
        help="connect directly instead of via <dir>/server.json",
    )
    p_sdrain.add_argument(
        "--wait", action="store_true",
        help="block until the drained server exits",
    )
    p_sdrain.add_argument(
        "--timeout", type=float, default=120.0, metavar="SEC",
        help="--wait budget (default: 120)",
    )
    p_sdrain.set_defaults(fn=_cmd_serve_drain)

    p_trace = sub.add_parser(
        "trace",
        help="run a traceable DES scenario and export its Chrome trace",
    )
    _add_scenario_args(p_trace, "nbytes=65536")
    p_trace.add_argument(
        "-o", "--output", help="trace file (default: <scenario>.trace.json)"
    )
    p_trace.add_argument(
        "--metrics", metavar="FILE", help="also write the metrics-registry JSON"
    )
    p_trace.add_argument(
        "-n", "--top", type=int, default=10, help="summary rows (default: 10)"
    )
    p_trace.add_argument(
        "--no-summary", action="store_true", help="skip the ASCII summary"
    )
    p_trace.set_defaults(fn=_cmd_trace)

    p_faults = sub.add_parser(
        "faults",
        help="run a fault-injection/resilience scenario (deterministic)",
    )
    _add_scenario_args(p_faults, "nbytes=65536")
    p_faults.add_argument(
        "-o", "--output", metavar="FILE",
        help="write the run's Chrome trace JSON (includes fault instants)",
    )
    p_faults.add_argument(
        "--metrics", metavar="FILE", help="write the metrics-registry JSON"
    )
    p_faults.set_defaults(fn=_cmd_faults_or_recover)

    p_recover = sub.add_parser(
        "recover",
        help=(
            "run a checkpoint/restart + ULFM recovery scenario "
            "(deterministic)"
        ),
    )
    _add_scenario_args(p_recover, "steps=8")
    p_recover.add_argument(
        "-o", "--output", metavar="FILE",
        help="write the run's Chrome trace JSON (includes recovery spans)",
    )
    p_recover.add_argument(
        "--metrics", metavar="FILE", help="write the metrics-registry JSON"
    )
    p_recover.set_defaults(fn=_cmd_faults_or_recover)

    sub.add_parser(
        "validate", help="check the ten qualitative paper claims"
    ).set_defaults(fn=_cmd_validate)

    p_cmp = sub.add_parser("compare", help="compare two machines across the suite")
    p_cmp.add_argument("machine_a")
    p_cmp.add_argument("machine_b")
    p_cmp.add_argument("-p", "--processes", type=int, default=1024)
    p_cmp.set_defaults(fn=_cmd_compare)

    sub.add_parser("machines", help="print the machine catalog (Table 1)").set_defaults(
        fn=_cmd_machines
    )

    p_bench = sub.add_parser(
        "bench",
        help=(
            "host-side performance: micro-benchmark suite, BENCH_*.json "
            "snapshots, regression gate, self-profiling"
        ),
    )
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)

    bench_sub.add_parser(
        "list", help="list the registered micro-benchmarks"
    ).set_defaults(fn=_cmd_bench_list)

    p_brun = bench_sub.add_parser(
        "run", help="time the suite into a BENCH_<host>.json snapshot"
    )
    p_brun.add_argument(
        "names", nargs="*", metavar="NAME",
        help="benchmark subset (default: the whole registered suite)",
    )
    p_brun.add_argument(
        "-o", "--output", default=".", metavar="PATH",
        help="snapshot file, or a directory for the canonical "
             "BENCH_<host-fingerprint>.json name (default: .)",
    )
    p_brun.add_argument(
        "-r", "--repeats", type=int, default=3, metavar="K",
        help="timed repetitions per benchmark (default: 3)",
    )
    p_brun.add_argument(
        "--warmup", type=int, default=1, metavar="N",
        help="discarded warmup repetitions (default: 1)",
    )
    p_brun.set_defaults(fn=_cmd_bench_run)

    p_bcmp = bench_sub.add_parser(
        "compare", help="gate one snapshot against a baseline"
    )
    p_bcmp.add_argument("base", help="baseline BENCH_*.json")
    p_bcmp.add_argument("new", help="candidate BENCH_*.json")
    p_bcmp.add_argument(
        "--fail-over", default="15%", metavar="PCT",
        help="relative regression tolerance, e.g. '15%%' or '0.15' "
             "(default: 15%%; per-benchmark thresholds can widen it)",
    )
    p_bcmp.set_defaults(fn=_cmd_bench_compare)

    p_bprof = bench_sub.add_parser(
        "profile",
        help="self-profile a traced scenario (host time by layer + hotspots)",
    )
    _add_scenario_args(p_bprof, "nbytes=65536")
    p_bprof.add_argument(
        "-o", "--output", metavar="FILE",
        help="trace file (default: <scenario>.profile.trace.json)",
    )
    p_bprof.add_argument(
        "-n", "--top", type=int, default=10,
        help="hotspot/summary rows (default: 10)",
    )
    p_bprof.add_argument(
        "--no-summary", action="store_true", help="skip the ASCII summary"
    )
    p_bprof.set_defaults(fn=_cmd_bench_profile)

    p_lint = sub.add_parser(
        "lint",
        help=(
            "simlint static analysis (yield-from, determinism, API hygiene, "
            "CFG/dataflow comm checks)"
        ),
    )
    p_lint.add_argument(
        "paths", nargs="*", help="files/directories to lint (default: src/)"
    )
    p_lint.add_argument(
        "-f", "--format", choices=["text", "json", "github"], default="text",
        help="output format (github = Actions ::error annotations)",
    )
    p_lint.add_argument(
        "--flow", dest="flow", action="store_true", default=True,
        help="run the CFG/dataflow analyses (default)",
    )
    p_lint.add_argument(
        "--no-flow", dest="flow", action="store_false",
        help="syntactic rules only, skip the flow analyses",
    )
    p_lint.add_argument(
        "--list-rules", action="store_true", help="list rule ids and exit"
    )
    p_lint.set_defaults(fn=_cmd_lint)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # Piped into `head` and the reader closed early; that is fine.
        sys.stderr.close()
        return 0
