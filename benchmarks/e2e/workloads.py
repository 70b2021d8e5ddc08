"""The four benchmark workloads: seeded inputs, one repetition, checks.

``make_inputs(workload, seed)`` is the only place randomness enters the
benchmark.  It turns the seed into a JSON document, and the program
only ever receives what that document holds.  ``run_task`` runs one
repetition (or only its set-up) of a workload in the current process;
``rep.py`` calls it in a fresh child process per repetition, so no
in-process memo survives from one repetition to the next.

Each workload loads a different group of layers:

* ``paper``: the 13 artifacts through ``run_experiment``.  The analytic
  layers (HALO routing analysis, POP land masks) do almost all the work;
  the seed permutes the artifact order.
* ``des``: six message-level simulations.  ``simengine``, ``simmpi`` and
  torus routing do the work; the analytic models do none.
* ``campaign``: ~1200 cheap jobs through ``CampaignRunner(jobs=2)``, one
  cold pass then five all-hit passes, so the batch front door's I/O and
  dispatch dominate.
* ``serve``: the same job mix through ``repro serve start`` and one
  closed-loop client, so the service front door dominates.

Only stable public APIs are imported: ``run_experiment``, ``Cluster``
and the ``RankComm`` methods, ``FaultPlan``/``LinkFail``/
``ReliabilityPolicy``, ``replay_steps``, ``CampaignSpec``/
``CampaignRunner`` and ``repro serve start`` with ``ServeClient`` (plus
the machine and grid values their arguments need).
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional, Tuple

from repro.perf.hostclock import HostClock, host_counter, host_sleep

__all__ = [
    "ARTIFACTS",
    "DES_RUNS",
    "SRC",
    "WORKLOADS",
    "digest",
    "layer_metrics",
    "make_inputs",
    "run_task",
]

WORKLOADS = ("paper", "des", "campaign", "serve")

#: The 13 paper artifacts, in paper order.
ARTIFACTS = (
    "table1", "table2", "fig1", "fig2", "fig3", "top500", "fig4",
    "fig5", "fig6", "fig7", "fig8", "table3", "lists",
)

#: The six ``des`` runs, in the order a repetition runs them.
DES_RUNS = ("halo", "allreduce_sw", "ring_rdv", "tree", "link_kill", "pop")

#: The ``src`` directory of the checkout this benchmark lives in.
SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

#: All-hit passes after the cold campaign pass (the read path).
WARM_PASSES = 5
#: Seeded jobs re-run directly through ``run_experiment`` as a check.
SAMPLES = 5
#: Serve client poll interval, host seconds.
POLL_S = 0.01
#: Healthy simulated duration of the ``link_kill`` allreduces (8 x 16 KiB
#: float32 on 64 BG/P ranks); the link dies at a seeded fraction of it.
LINK_KILL_HEALTHY_S = 1.9e-3
#: fig3 process counts the campaign and serve jobs draw from.
_PROCESSES = (64, 128, 256, 512, 1024, 2048, 4096, 8192)


def digest(value: Any) -> str:
    """sha256 of a JSON-able value (floats keep every digit)."""
    text = value if isinstance(value, str) else json.dumps(value, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------
def make_inputs(workload: str, seed: int, mini: bool = False) -> Dict[str, Any]:
    """The seeded inputs of one workload, as a JSON-able document.

    ``mini`` shrinks every input to a size that runs in about a second,
    for the harness's own tests; the benchmark never sets it.
    """
    import numpy as np

    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])
    if workload == "paper":
        ids = ("table1", "fig6", "lists") if mini else ARTIFACTS
        return {"order": [ids[i] for i in rng.permutation(len(ids))]}
    if workload == "des":
        return {"runs": _des_runs(rng, mini)}
    if workload == "campaign":
        n = 40 if mini else 1200
        jobs = _job_points(rng, n)
        return {
            "jobs": jobs,
            "samples": sorted(int(i) for i in rng.choice(n, SAMPLES, replace=False)),
        }
    n = 8 if mini else 200
    # A fixed multiset of campaign sizes (1-4 jobs) keeps the job total
    # the same on every seed; the seed decides the order and the points.
    sizes = [int(s) for s in rng.permutation(np.repeat([1, 2, 3, 4], n // 4))]
    points = _job_points(rng, sum(sizes))
    campaigns, at = [], 0
    for size in sizes:
        campaigns.append(points[at:at + size])
        at += size
    after = sorted(int(i) for i in rng.choice(n, n // 4, replace=False))
    picks = sorted(int(i) for i in rng.choice(n, SAMPLES, replace=False))
    return {
        "campaigns": campaigns,
        "resubmits": [[i, int(rng.integers(0, i + 1))] for i in after],
        "samples": [[i, int(rng.integers(0, sizes[i]))] for i in picks],
    }


def _des_runs(rng: Any, mini: bool) -> List[Dict[str, Any]]:
    """The six des runs; each names a rank program of ``programs.py``."""
    node = [int(c) for c in rng.integers(0, 4, size=3)]
    dim = int(rng.integers(0, 3))
    peer = list(node)
    peer[dim] = (peer[dim] + 1) % 4
    ring_shape = (2, 16) if mini else (24, 512)
    return [
        {
            # Eager on BG/P: the 2N-word message stays under 1200 bytes.
            "name": "halo", "machine": "BGP", "ranks": 64 if mini else 4096,
            "mode": "VN", "program": "halo",
            "args": [[8, 8] if mini else [64, 64], rng.integers(16, 151, size=2).tolist()],
        },
        {
            # Small payloads keep the software allreduce on recursive
            # doubling; XT has no collective tree.
            "name": "allreduce_sw", "machine": "XT4_QC", "ranks": 16 if mini else 512,
            "mode": "VN", "program": "allreduce",
            "args": [rng.choice([8, 64, 256, 1024, 2048], size=8).tolist(), "float64"],
        },
        {
            "name": "ring_rdv", "machine": "BGP", "ranks": ring_shape[1],
            "mode": "VN", "program": "ring",
            "args": [rng.integers(32 * 1024, 256 * 1024 + 1, size=ring_shape).tolist()],
        },
        {
            "name": "tree", "machine": "BGP", "ranks": 32 if mini else 1024,
            "mode": "VN", "program": "tree",
            "args": [rng.choice([8, 64, 512, 4096], size=3).tolist()],
        },
        {
            # float32: the BG/P tree ALU cannot reduce it, so the
            # allreduce runs over the torus, where the link dies.
            "name": "link_kill", "machine": "BGP", "ranks": 64, "mode": "SMP",
            "program": "allreduce", "args": [[16384] * (2 if mini else 8), "float32"],
            "fail_link": [node, peer],
            "fail_time": float(rng.uniform(0.2, 0.8)) * LINK_KILL_HEALTHY_S,
        },
        {
            "name": "pop", "machine": "BGP", "ranks": 16 if mini else 256, "mode": "VN",
            "grid": [int(rng.choice([3200, 3400, 3600])), int(rng.choice([2000, 2200, 2400])), 40],
            "solver_iterations": 2 if mini else 20,
        },
    ]


def _job_points(rng: Any, n: int) -> List[Dict[str, Any]]:
    """``n`` distinct fig3/fig6 jobs, half of each, in seeded order."""
    fig3: Dict[Tuple[int, int], Dict[str, Any]] = {}
    while len(fig3) < n // 2:
        nbytes = int(rng.integers(1, 1 << 20))
        processes = int(rng.choice(_PROCESSES))
        fig3[(nbytes, processes)] = {
            "experiment": "fig3",
            "params": {"nbytes": nbytes, "processes": processes},
        }
    edges = rng.choice(range(8, 4097), n - n // 2, replace=False)
    jobs = list(fig3.values()) + [
        {"experiment": "fig6", "params": {"edge": int(e)}} for e in edges
    ]
    return [jobs[i] for i in rng.permutation(n)]


# ---------------------------------------------------------------------------
# One repetition
# ---------------------------------------------------------------------------
def run_task(task: Dict[str, Any], recorder: Any) -> Dict[str, Any]:
    """Run one repetition of ``task["workload"]`` (or, with
    ``task["setup_only"]``, only its set-up).

    Returns ``setup_s`` and, for a full repetition, ``wall_s`` (the
    timed phase), ``work``/``work_s`` (units of work and the seconds
    that did them), ``attempted``/``failures`` (this repetition's
    checks), ``digests`` (compared across repetitions and against
    ``expected.json``) and ``detail`` (workload-specific measurements).
    """
    inputs = json.loads(pathlib.Path(task["inputs"]).read_text(encoding="utf-8"))
    work = pathlib.Path(task["work"])
    work.mkdir(parents=True, exist_ok=True)
    fn = {
        "paper": _paper,
        "des": _des,
        "campaign": _campaign,
        "serve": _serve,
    }[task["workload"]]
    return fn(inputs, work, recorder, bool(task.get("setup_only")))


def _paper(inputs: Dict[str, Any], work: pathlib.Path, rec: Any, setup_only: bool):
    t0 = host_counter()
    from repro.core.evaluation import run_experiment

    setup = host_counter() - t0
    if setup_only:
        return {"setup_s": setup}
    digests = {}
    t1 = host_counter()
    for eid in inputs["order"]:
        with rec.span(f"core.{eid}", op=eid):
            digests[eid] = digest(run_experiment(eid))
    wall = host_counter() - t1
    return {
        "setup_s": setup,
        "wall_s": wall,
        "work": len(digests),
        "work_s": wall,
        "attempted": 0,
        "failures": [],
        "digests": digests,
        "detail": {},
    }


def _des(inputs: Dict[str, Any], work: pathlib.Path, rec: Any, setup_only: bool):
    t0 = host_counter()
    import programs
    import repro.machines
    from repro.apps.pop.des_replay import replay_steps
    from repro.apps.pop.grid import PopGrid
    from repro.faults import FaultPlan, LinkFail
    from repro.simmpi import Cluster, ReliabilityPolicy

    setup = host_counter() - t0
    clusters = {}
    for run in inputs["runs"]:
        if run["name"] == "pop":
            continue  # replay_steps builds its own cluster
        a = host_counter()
        clusters[run["name"]] = Cluster(
            getattr(repro.machines, run["machine"]),
            ranks=run["ranks"],
            mode=run["mode"],
            reliability=ReliabilityPolicy() if "fail_link" in run else None,
        )
        setup += host_counter() - a
    if setup_only:
        return {"setup_s": setup}

    failures: List[str] = []
    digests: Dict[str, str] = {}
    messages, run_s = 0, 0.0
    t1 = host_counter()
    for run in inputs["runs"]:
        name = run["name"]
        with rec.span(f"des.{name}", op=name):
            a = host_counter()
            if name == "pop":
                nx, ny, levels = run["grid"]
                with rec.span("apps.pop.replay_steps"):
                    res = replay_steps(
                        getattr(repro.machines, run["machine"]),
                        run["ranks"],
                        PopGrid(nx=nx, ny=ny, levels=levels),
                        steps=1,
                        mode=run["mode"],
                        solver_iterations=run["solver_iterations"],
                    )
                run_s += host_counter() - a
                outcome = {"seconds_per_step": res.seconds_per_step, "messages": res.messages}
                if res.messages <= 0:
                    failures.append("des/pop: no messages simulated")
            else:
                faults = None
                if "fail_link" in run:
                    link = tuple(tuple(c) for c in run["fail_link"])
                    faults = FaultPlan((LinkFail(time=run["fail_time"], link=link),))
                program = getattr(programs, run["program"])
                res = clusters[name].run(program, *run["args"], faults=faults)
                run_s += host_counter() - a
                outcome = {
                    "elapsed": res.elapsed,
                    "messages": res.messages,
                    "bytes": res.bytes_sent,
                    "returns": res.returns,
                }
                if res.faults is not None:
                    outcome["faults"] = {
                        "drops": res.faults.drops,
                        "retries": res.faults.retries,
                        "reroutes": res.faults.reroutes,
                        "kills": res.faults.fault_kills,
                    }
                failures += _des_check(run, res)
            messages += outcome["messages"]
            # events_processed stays out: an engine optimisation may change it.
            digests[name] = digest(outcome)
    wall = host_counter() - t1
    return {
        "setup_s": setup,
        "wall_s": wall,
        "work": messages,
        "work_s": run_s,
        "attempted": len(inputs["runs"]),
        "failures": failures,
        "digests": digests,
        "detail": {"sim_msgs_per_s": messages / run_s},
    }


def _des_check(run: Dict[str, Any], res: Any) -> List[str]:
    """What the rank programs and counts say about one finished run."""
    name, ranks = run["name"], run["ranks"]
    out = []
    if name == "halo":
        words = run["args"][1]
        want = 24 * sum(words)
        if any(got != want for _t, got in res.returns):
            out.append(f"des/halo: a rank did not receive {want} bytes")
        if res.messages != ranks * 4 * len(words):
            out.append(f"des/halo: {res.messages} messages")
    elif name == "ring_rdv":
        if any(bad for _t, bad in res.returns):
            out.append("des/ring_rdv: message sizes did not match")
        if res.messages != ranks * len(run["args"][0]):
            out.append(f"des/ring_rdv: {res.messages} messages")
    elif name == "tree" and res.messages != 0:
        out.append(f"des/tree: {res.messages} torus messages on the tree path")
    elif name == "link_kill" and (res.faults is None or res.faults.fault_kills):
        out.append("des/link_kill: a sender gave up")
    return out


def _campaign(inputs: Dict[str, Any], work: pathlib.Path, rec: Any, setup_only: bool):
    t0 = host_counter()
    from repro.campaign import CampaignRunner, CampaignSpec

    spec = CampaignSpec.from_dict({"name": "bench", "jobs": inputs["jobs"]})
    n = len(spec.expand())
    tracer = None
    if rec.traced:
        from repro.obs import Tracer

        tracer = Tracer()
    directory = work / "campaign"
    runner = CampaignRunner(spec, directory, jobs=2, tracer=tracer)
    setup = host_counter() - t0
    if setup_only:
        return {"setup_s": setup}

    t1 = host_counter()
    with rec.span("campaign.pass", op="cold"):
        cold = runner.run()
    cold_s = host_counter() - t1
    warm, warm_s = [], []
    for k in range(WARM_PASSES):
        a = host_counter()
        with rec.span("campaign.pass", op=f"warm{k + 1}"):
            warm.append(runner.run())
        warm_s.append(host_counter() - a)
    wall = host_counter() - t1

    failures = []
    if (cold.done, cold.failed, cold.artifacts_written) != (n, 0, n):
        failures.append(
            f"campaign cold pass: {cold.done} done, {cold.failed} failed, "
            f"{cold.artifacts_written} written of {n}"
        )
    for k, result in enumerate(warm, 1):
        if (result.cache_hits, result.artifacts_written, len(result.executed)) != (n, 0, 0):
            failures.append(
                f"campaign warm pass {k}: {result.cache_hits}/{n} hits, "
                f"{result.artifacts_written} written, {len(result.executed)} computed"
            )
    failures += _campaign_files(inputs, directory)
    hits = cold.cache_hits + sum(r.cache_hits for r in warm)
    lookups = hits + cold.cache_misses + sum(r.cache_misses for r in warm)
    rec.count("campaign.cache_hits", hits)
    rec.count("campaign.cache_lookups", lookups)
    if tracer is not None:
        spans = [e for e in tracer.events if e.get("cat") == "campaign.job"]
        rec.count("campaign.execute_job.calls", len(spans))
        rec.count("campaign.execute_job.s", sum(e["dur"] for e in spans) / 1e6)
    return {
        "setup_s": setup,
        "wall_s": wall,
        "work": n,
        "work_s": cold_s,
        "attempted": n * (1 + WARM_PASSES) + len(inputs["samples"]),
        "failures": failures,
        "digests": {},
        "detail": {
            "jobs_per_s": n / cold_s,
            "warm_jobs_per_s": n / statistics.median(warm_s),
            "hit_ratio": hits / lookups if lookups else 0.0,
            "lookups": lookups,
        },
    }


def _campaign_files(inputs: Dict[str, Any], directory: pathlib.Path) -> List[str]:
    """Artifact bytes match their manifest digests; sampled jobs match a
    direct ``run_experiment``."""
    from repro.core.evaluation import run_experiment

    failures = []
    manifest = json.loads((directory / "manifest.json").read_text(encoding="utf-8"))
    records = manifest["jobs"]
    for record in records:
        path = directory / record["artifact"]
        if hashlib.sha256(path.read_bytes()).hexdigest() != record["digest"]:
            failures.append(f"campaign: {record['artifact']} does not match its digest")
    for i in inputs["samples"]:
        job, record = inputs["jobs"][i], records[i]
        text = (directory / record["artifact"]).read_text(encoding="utf-8")
        if text.rstrip("\n") != run_experiment(job["experiment"], **job["params"]).rstrip("\n"):
            failures.append(f"campaign: {record['job_id']} differs from run_experiment")
    return failures


def _serve(inputs: Dict[str, Any], work: pathlib.Path, rec: Any, setup_only: bool):
    # Imported before the set-up clock starts: loading the client is not
    # part of the server's set-up.
    import repro.serve.client  # noqa: F401

    t0 = host_counter()
    proc, client = _start_server(work / "serve", work / "server.err")
    setup = host_counter() - t0
    try:
        if setup_only:
            return {"setup_s": setup}
        return _serve_session(inputs, client, rec, setup)
    finally:
        _stop_server(proc, client)


def _serve_session(inputs: Dict[str, Any], client: Any, rec: Any, setup: float):
    campaigns = inputs["campaigns"]
    resubmit_after: Dict[int, List[int]] = {}
    for after, which in inputs["resubmits"]:
        resubmit_after.setdefault(after, []).append(which)
    failures: List[str] = []
    turnaround, submit, resubmit = [], [], []
    keys: Dict[Tuple[int, int], str] = {}
    t1 = host_counter()
    for i, jobs in enumerate(campaigns):
        with rec.span("serve.campaign", op=f"c{i}"):
            start = host_counter()
            with rec.span("serve.http.submit"):
                receipt = client.submit({"name": f"c{i}", "jobs": jobs})
            submit.append(host_counter() - start)
            doc = _poll_done(client, receipt["campaign"], rec)
            turnaround.append(host_counter() - start)
        for j, job in enumerate(doc["jobs"]):
            keys[(i, j)] = job["key"]
        bad = [job["job_id"] for job in doc["jobs"] if job["state"] != "done"]
        if bad or len(doc["jobs"]) != len(jobs):
            failures.append(f"serve: campaign c{i} finished with {bad or 'missing'} jobs")
        for which in resubmit_after.get(i, []):
            with rec.span("serve.campaign", op=f"c{which}-again"):
                start = host_counter()
                with rec.span("serve.http.submit"):
                    again = client.submit({"name": f"c{which}", "jobs": campaigns[which]})
                _poll_done(client, again["campaign"], rec)
                resubmit.append(host_counter() - start)
            if again["dedup"] != len(campaigns[which]):
                failures.append(f"serve: resubmitted c{which} deduped {again['dedup']} jobs")
    session = host_counter() - t1
    counters = client.stats().get("counters", {})
    for name in ("dispatched", "cache_hits", "dedup", "shed", "retries", "lease_expiries"):
        rec.count(f"serve.{name}", counters.get(name, 0))

    from repro.core.evaluation import run_experiment

    for i, j in inputs["samples"]:
        job = campaigns[i][j]
        text = client.artifact(keys[(i, j)]).decode("utf-8")
        if text.rstrip("\n") != run_experiment(job["experiment"], **job["params"]).rstrip("\n"):
            failures.append(f"serve: sampled job c{i}/{j} differs from run_experiment")
    n_jobs = sum(len(c) for c in campaigns)
    return {
        "setup_s": setup,
        "wall_s": session,
        "work": n_jobs,
        "work_s": session,
        "attempted": n_jobs + len(inputs["resubmits"]) + len(inputs["samples"]),
        "failures": failures,
        "digests": {},
        "detail": {
            "jobs_per_s": n_jobs / session,
            "turnaround_s": turnaround,
            "submit_s": submit,
            "resubmit_s": resubmit,
        },
    }


def _poll_done(client: Any, cid: str, rec: Any) -> Dict[str, Any]:
    while True:
        with rec.span("serve.http.poll"):
            doc = client.campaign(cid)
        if doc["done"]:
            return doc
        host_sleep(POLL_S)


def _start_server(directory: pathlib.Path, errlog: pathlib.Path):
    """Spawn ``repro serve start -j 2``; return once ``/v1/health`` answers."""
    from repro.serve.client import ServeClient, ServeError

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    with open(errlog, "w", encoding="utf-8") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "start", "-o", str(directory), "-j", "2"],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=err,
        )
    clock = HostClock()
    try:
        while True:
            if proc.poll() is not None:
                raise RuntimeError(
                    f"serve start exited with {proc.returncode}: "
                    + errlog.read_text(encoding="utf-8")[-2000:]
                )
            if clock.elapsed() > 60.0:
                raise RuntimeError("serve start did not answer /v1/health within 60 s")
            try:
                doc = json.loads((directory / "server.json").read_text(encoding="utf-8"))
                client = ServeClient(doc["host"], int(doc["port"]))
                client.health()
                return proc, client
            except (OSError, ValueError, KeyError, ServeError):
                host_sleep(0.005)  # not listening yet
    except BaseException:
        _stop_server(proc, None)
        raise


def _stop_server(proc: subprocess.Popen, client: Optional[Any]) -> None:
    """Drain the server and wait for it; kill it if it does not exit."""
    from repro.serve.client import ServeError

    if client is not None and proc.poll() is None:
        try:
            client.drain()
            proc.communicate(timeout=60)
        except (ServeError, subprocess.TimeoutExpired):
            pass  # killed below
    if proc.poll() is None:
        proc.kill()
    proc.communicate()


# ---------------------------------------------------------------------------
# Per-layer metrics of a traced repetition
# ---------------------------------------------------------------------------
def layer_metrics(rec: Any) -> Dict[str, float]:
    """Every per-layer metric, read from a traced repetition's recorder.

    A layer the workload does not exercise reads 0.
    """
    table = rec.layer_table()
    counts = rec.counts

    def row(name: str, col: int) -> float:
        return table.get(name, [0, 0.0, 0.0])[col]

    def median(name: str) -> float:
        values = rec.durations(name)
        return statistics.median(values) if values else 0.0

    out: Dict[str, float] = {f"core.{eid}.s": row(f"core.{eid}", 1) for eid in ARTIFACTS}
    out.update(
        {
            "halo.time_analytic.calls": row("halo.time_analytic", 0),
            "halo.time_analytic.self_s": row("halo.time_analytic", 2),
            "topology.route.calls": row("topology.route", 0),
            "topology.route.s": row("topology.route", 1),
            "topology.node_of.calls": row("topology.node_of", 0),
            "topology.node_of.s": row("topology.node_of", 1),
            "topology.fail_link.calls": row("topology.fail_link", 0),
            "apps.pop.land_mask.calls": row("apps.pop.land_mask", 0),
            "apps.pop.land_mask.s": row("apps.pop.land_mask", 1),
            "apps.pop.imbalance.s": row("apps.pop.imbalance", 1),
            "apps.pop.replay_steps.s": row("apps.pop.replay_steps", 1),
            "simmpi.cluster_init.s": row("simmpi.cluster_init", 1),
        }
    )
    for run in DES_RUNS:
        out[f"simmpi.cluster_run.{run}.s"] = sum(rec.durations("simmpi.cluster_run", op=run))
    messages = counts.get("simmpi.messages", 0)
    events = counts.get("simengine.events", 0)
    lookups = counts.get("campaign.cache_lookups", 0)
    out.update(
        {
            "simmpi.messages": messages,
            "simmpi.bytes": counts.get("simmpi.bytes", 0),
            "simengine.events": events,
            "simengine.events_per_msg": events / messages if messages else 0.0,
            "faults.retries": counts.get("faults.retries", 0),
            "faults.reroutes": counts.get("faults.reroutes", 0),
            "campaign.execute_job.calls": counts.get("campaign.execute_job.calls", 0),
            "campaign.execute_job.s": counts.get("campaign.execute_job.s", 0.0),
            "campaign.cache_get.s": row("campaign.cache_get", 1),
            "campaign.cache_put.s": row("campaign.cache_put", 1),
            "campaign.write_manifest.calls": row("campaign.write_manifest", 0),
            "campaign.write_manifest.s": row("campaign.write_manifest", 1),
            "campaign.hit_ratio": (
                counts.get("campaign.cache_hits", 0) / lookups if lookups else 0.0
            ),
            "serve.http.submit.p50_s": median("serve.http.submit"),
            "serve.http.poll.p50_s": median("serve.http.poll"),
        }
    )
    for name in ("dispatched", "cache_hits", "dedup", "shed", "retries", "lease_expiries"):
        out[f"serve.{name}"] = counts.get(f"serve.{name}", 0)
    return out
