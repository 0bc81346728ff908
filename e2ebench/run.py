"""End-to-end benchmark of ``repro``, split by layer from a traced run.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload batch|serve|grid --seed N \\
        --seconds S --trace 0|1

Drives ``repro`` only from outside: ``python -m repro ...`` children and
HTTP to ``repro serve``.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced cycles of the same work and
reports the per-layer metrics (see ``launcher.py``).  The last line of
stdout is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; a human summary goes to stderr.  ``correct`` is true only
when every output byte matched: ``run all`` stdout against a pinned
digest, each ``/profile`` and ``/perfetto`` body against pinned digests
(and each hot body against its cold body), each ``/grid`` body against
a recomputation in a separate process, and that recomputation of one
fixed spec against a pinned digest.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import random
import re
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from importlib import metadata

import procs
from launcher import COUNTED, IMPORT_SPAN, TIMED
from selftime import SpanSet

PINNED = json.loads((procs.BENCH_DIR / "pinned.json").read_text())
NPROC = len(os.sched_getaffinity(0))

#: batch: one cycle per step list; "fresh" switches to empty cache and
#: runs directories.  The registry is fixed, so batch ignores the seed.
BATCH_STEPS = ("fresh", "list", "cold", "warm", "warm", "fresh", "cold",
               "warm", "list", "fresh", "cold_n")
BATCH_TRACED_STEPS = ("fresh", "list", "cold", "warm")

#: serve: closed-loop hot requests per cycle, their /perfetto share and
#: the Zipf exponent of point popularity.
HOT_REQUESTS = 3000
PERFETTO_SHARE = 0.1
ZIPF_S = 1.0

#: grid: one bert-large spec is 20 batch sizes x 25 sequence lengths x
#: {fp32, mixed} = 1000 points, drawn from pools wide enough that two
#: specs share few (B, n) pairs, so a cold request stays cold.
GRID_BATCHES = range(1, 257)
GRID_SEQ_LENS = range(16, 1025, 16)
#: extra servers started (and stopped) to sample grid setup time.
GRID_SETUP_STARTS = 5
#: specs covered by the grid schedule digest.
GRID_DIGEST_SPECS = 64

#: Every wait of a run ends this long after it starts, so that a run on
#: a hung or broken program still exits within three minutes.
HARD_LIMIT_S = 150.0


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Run:
    """Per-run state: the deadline, operation tally and samples."""

    def __init__(self, seconds: float):
        self.deadline = time.perf_counter() + seconds
        self.attempted = 0
        self.failed = 0
        self.samples: dict[str, list[float]] = defaultdict(list)
        #: CPU seconds of the cold operations, and how many there were.
        self.cold_cpu = [0.0, 0]
        self.cycle_s: list[float] = []

    def op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)
        return ok

    def add_cold_cpu(self, seconds: float, operations: int) -> None:
        self.cold_cpu[0] += seconds
        self.cold_cpu[1] += operations

    def more(self) -> bool:
        """Another cycle fits before the deadline (always one cycle)."""
        if not self.cycle_s:
            return True
        return (time.perf_counter() + statistics.mean(self.cycle_s)
                <= self.deadline)

    def cycles(self):
        while self.more():
            start = time.perf_counter()
            yield len(self.cycle_s)
            self.cycle_s.append(time.perf_counter() - start)


class Cycle:
    """The processes of one cycle, all traced or all untraced, as
    (exit, span dump or None, step), and its scraped serve counters."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.procs: list[tuple] = []
        self.scrape: dict[str, float] = defaultdict(float)

    def add(self, exit_, spans_path, step: str) -> None:
        # A traced child that died wrote no spans; its exit code is
        # already counted as a failed operation.
        dump = None
        if spans_path is not None and spans_path.exists():
            dump = json.loads(spans_path.read_text())
        self.procs.append((exit_, dump, step))


def traced_pair(cycle: int, spans) -> tuple:
    """Spans targets for the untraced (None) and traced halves of one
    traced-run cycle; which half runs first alternates."""
    return (None, spans) if cycle % 2 == 0 else (spans, None)


def start_server(run: Run, sandbox: procs.Sandbox,
                 spans_path=None) -> procs.Server | None:
    """A ready server, or None (one failed operation)."""
    try:
        server = procs.Server(sandbox, spans_path)
    except RuntimeError as error:
        run.op(False, f"server start: {error}")
        run.samples["setup"].append(procs.READY_TIMEOUT_S)
        return None
    run.samples["setup"].append(server.ready_s)
    return server


# ------------------------------------------------------------------ batch
def batch_schedule(seed: int) -> dict:
    del seed  # the experiment registry is fixed
    return {"steps": BATCH_STEPS, "traced": BATCH_TRACED_STEPS,
            "jobs_n": NPROC}


def batch_cycle(run: Run, sandbox: procs.Sandbox, steps, spans_dir):
    result = Cycle(spans_dir is not None)
    for index, step in enumerate(steps):
        if step == "fresh":
            sandbox.fresh()
            continue
        argv = {"list": ["list"],
                "cold": ["run", "all", "--jobs", "1"],
                "warm": ["run", "all", "--jobs", "1"],
                "cold_n": ["run", "all", "--jobs", str(NPROC)]}[step]
        spans_path = (spans_dir / f"{step}{index}.json"
                      if spans_dir is not None else None)
        exit_, out = procs.run_cli(sandbox, argv, spans_path)
        pinned = PINNED["list"] if step == "list" else PINNED["run_all"]
        ok = run.op(exit_.code == 0 and sha256(out) == pinned,
                    f"{' '.join(argv)}: exit {exit_.code}, "
                    f"stdout sha256 {sha256(out)[:12]}")
        result.add(exit_, spans_path, step)
        wall = exit_.wall_s if ok else procs.OP_TIMEOUT_S
        metric = {"list": "setup", "cold": "cold", "warm": "hot",
                  "cold_n": "wide"}[step]
        run.samples[metric].append(wall)
        if step == "cold" and ok:
            run.add_cold_cpu(exit_.cpu_s, 1)
            run.samples["rss"].append(exit_.maxrss_mb)
    return result


def batch(run: Run, seed: int, trace: bool) -> list[Cycle]:
    del seed
    cycles = []
    with procs.Sandbox() as sandbox:
        for cycle in run.cycles():
            if not trace:
                cycles.append(batch_cycle(run, sandbox, BATCH_STEPS, None))
                continue
            for spans_dir in traced_pair(cycle, sandbox.path):
                cycles.append(batch_cycle(run, sandbox, BATCH_TRACED_STEPS,
                                          spans_dir))
    return cycles


# ------------------------------------------------------------------ serve
def serve_schedule(seed: int) -> dict:
    """Zipf ranking of the points and the hot request sequence."""
    rng = random.Random(f"serve:{seed}")
    ranking = sorted(PINNED["profile"])
    rng.shuffle(ranking)
    weights = [1 / (rank + 1) ** ZIPF_S for rank in range(len(ranking))]
    points = rng.choices(ranking, weights, k=HOT_REQUESTS)
    routes = ["perfetto" if rng.random() < PERFETTO_SHARE else "profile"
              for _ in range(HOT_REQUESTS)]
    return {"ranking": ranking, "hot": list(zip(routes, points))}


def scrape_metrics(run: Run, client: procs.Client) -> dict[str, float]:
    """Serve counters from ``/metrics`` (Prometheus text)."""
    status, body, _ = client.request("GET", "/metrics")
    run.op(status == 200, f"/metrics: {status}")
    found: dict[str, float] = defaultdict(float)
    pattern = re.compile(r'^(serve_computations_total|serve_shed_total|'
                         r'serve_hot_cache_requests_total)(\{[^}]*\})? (\S+)$')
    for line in body.decode().splitlines():
        match = pattern.match(line)
        if match:
            name, labels = match.group(1), match.group(2) or ""
            if name == "serve_hot_cache_requests_total":
                name += ".hit" if 'result="hit"' in labels else ".other"
            found[name] += float(match.group(3))
    return found


def hot_loop(run: Run, server: procs.Server, requests, cold: dict,
             latencies: list[float]) -> None:
    """Closed loop over ``requests`` on NPROC keep-alive connections."""
    results: list[list] = [[] for _ in range(NPROC)]

    def connection(lane: int) -> None:
        client = server.connect()
        try:
            for route, point in requests[lane::NPROC]:
                status, body, seconds = client.request(
                    "GET", f"/{route}/{point}")
                ok = status == 200 and body == cold[route, point]
                results[lane].append((ok, seconds, route, point, status))
        finally:
            client.close()

    threads = [threading.Thread(target=connection, args=(lane,))
               for lane in range(NPROC)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for lane in results:
        for ok, seconds, route, point, status in lane:
            run.op(ok, f"hot /{route}/{point}: {status}")
            latencies.append(seconds if ok else procs.OP_TIMEOUT_S)


def serve_cycle(run: Run, schedule: dict, spans_path) -> Cycle:
    result = Cycle(spans_path is not None)
    with procs.Sandbox() as sandbox:
        server = start_server(run, sandbox, spans_path)
        if server is None:
            return result
        try:
            client = server.connect()
            status, body, _ = client.request("GET", "/points")
            listed = json.loads(body)["points"] if status == 200 else []
            run.op([p["id"] for p in listed] == sorted(PINNED["profile"]),
                   f"/points: {status}")
            # Points with the same model and training share a content
            # address with an earlier point: their first touch is hot.
            seen, first_touch = set(), []
            for point in listed:
                address = (point["model"], point["label"],
                           point["batch_size"], point["seq_len"],
                           point["precision"])
                if address not in seen:
                    first_touch.append(point["id"])
                seen.add(address)
            cold = {}
            for route, metric in (("profile", "cold"), ("perfetto", "wide")):
                cpu_before = server.cpu_s()
                for point in sorted(PINNED[route]):
                    status, body, seconds = client.request(
                        "GET", f"/{route}/{point}")
                    ok = run.op(status == 200
                                and sha256(body) == PINNED[route][point],
                                f"cold /{route}/{point}: {status}")
                    cold[route, point] = body
                    if point in first_touch:
                        run.samples[metric].append(
                            seconds if ok else procs.OP_TIMEOUT_S)
                if route == "profile":
                    run.add_cold_cpu(server.cpu_s() - cpu_before,
                                     len(first_touch))
            started = time.perf_counter()
            hot_loop(run, server, schedule["hot"], cold,
                     run.samples["hot"])
            run.samples["hot_rps"].append(
                len(schedule["hot"]) / (time.perf_counter() - started))
            result.scrape.update(scrape_metrics(run, client))
            client.close()
        finally:
            exit_ = server.stop()
        run.op(exit_.code == 0, f"serve exit {exit_.code}")
        run.samples["rss"].append(exit_.maxrss_mb)
        result.add(exit_, spans_path, "serve")
    return result


def serve(run: Run, seed: int, trace: bool) -> list[Cycle]:
    schedule = serve_schedule(seed)
    cycles = []
    with procs.Sandbox() as spans_dir:
        for cycle in run.cycles():
            if not trace:
                cycles.append(serve_cycle(run, schedule, None))
                continue
            for spans_path in traced_pair(
                    cycle, spans_dir.file(f"serve{cycle}.json")):
                cycles.append(serve_cycle(run, schedule, spans_path))
    return cycles


# ------------------------------------------------------------------- grid
def grid_specs(seed: int):
    """Endless seeded sequence of distinct 1000-point specs."""
    rng = random.Random(f"grid:{seed}")
    seen = set()
    while True:
        spec = {"model": "bert-large",
                "batch_sizes": sorted(rng.sample(GRID_BATCHES, 20)),
                "seq_lens": sorted(rng.sample(GRID_SEQ_LENS, 25)),
                "precisions": ["fp32", "mixed"]}
        if spec_key(spec) not in seen:
            seen.add(spec_key(spec))
            yield spec


def spec_key(spec: dict) -> str:
    return json.dumps(spec, sort_keys=True)


def grid_schedule(seed: int) -> dict:
    specs = grid_specs(seed)
    return {"specs": [next(specs) for _ in range(GRID_DIGEST_SPECS)]}


def post_grid(client: procs.Client, spec: dict):
    """(body or None, latency); a failed request costs the timeout."""
    status, body, seconds = client.request(
        "POST", "/grid", json.dumps(spec).encode())
    if status != 200:
        return None, procs.OP_TIMEOUT_S
    return body, seconds


def grid_round(run: Run, server: procs.Server, specs, sent: list) -> None:
    """One cold spec, hot; two cold specs in flight at once, both hot."""
    client = server.connect()
    try:
        first, pair = next(specs), [next(specs), next(specs)]
        cpu_before = server.cpu_s()
        body, seconds = post_grid(client, first)
        run.add_cold_cpu(server.cpu_s() - cpu_before, 1)
        run.samples["cold"].append(seconds)
        bodies = [(first, body)]

        results = [None, None]

        def cold_lane(lane: int) -> None:
            lane_client = server.connect()
            try:
                results[lane] = post_grid(lane_client, pair[lane])
            finally:
                lane_client.close()

        threads = [threading.Thread(target=cold_lane, args=(lane,))
                   for lane in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for spec, (body, seconds) in zip(pair, results):
            run.samples["wide"].append(seconds)
            bodies.append((spec, body))

        for spec, body in bodies:
            hot, seconds = post_grid(client, spec)
            run.samples["hot"].append(seconds if hot is not None
                                      and hot == body
                                      else procs.OP_TIMEOUT_S)
            run.op(hot is not None and hot == body, "hot /grid != cold")
            sent.append((spec, body))
    finally:
        client.close()


def verify_grid(run: Run, sent: list) -> None:
    """Recompute every distinct spec in NPROC separate processes, each on
    a fresh cache, and compare bytes; outside the timed window.

    The recomputation runs the same engine as the server, so it also
    computes a fixed canary spec whose digest is pinned: that catches a
    change to the engine's output, which both sides would share."""
    canary = PINNED["grid"]["spec"]
    distinct = list({spec_key(spec): spec
                     for spec in [spec for spec, _ in sent] + [canary]
                     }.values())
    lanes = [lane for lane in (distinct[i::NPROC] for i in range(NPROC))
             if lane]
    expected = {}
    with contextlib.ExitStack() as stack:
        started = []
        for lane in lanes:
            sandbox = stack.enter_context(procs.Sandbox())
            specs_path = sandbox.file("specs.json")
            specs_path.write_text(json.dumps(lane))
            started.append((time.perf_counter(), procs.start(sandbox, [
                sys.executable, str(procs.BENCH_DIR / "verify_grid.py"),
                str(specs_path)])))
        for lane, (begun, proc) in zip(lanes, started):
            exit_, out = procs.reap(proc, begun,
                                    procs.wait_s(procs.OP_TIMEOUT_S))
            try:
                digests = json.loads(out) if exit_.code == 0 else []
            except ValueError:
                digests = []
            if len(digests) == len(lane):
                expected.update((spec_key(spec), want)
                                for spec, want in zip(lane, digests))
    want = expected.get(spec_key(canary))
    run.op(want is not None and want["failed"] == 0
           and want["sha256"] == PINNED["grid"]["sha256"],
           "grid canary spec: recomputed body differs from its pin")
    for spec, body in sent:
        want = expected.get(spec_key(spec))
        ok = (body is not None and want is not None
              and sha256(body) == want["sha256"] and want["failed"] == 0)
        run.op(ok, f"/grid body of {spec_key(spec)[:60]}...")


def grid(run: Run, seed: int, trace: bool) -> list[Cycle]:
    specs = grid_specs(seed)
    sent: list = []
    cycles = []
    with procs.Sandbox() as sandbox:
        if not trace:
            for _ in range(GRID_SETUP_STARTS):
                server = start_server(run, sandbox)
                if server is not None:
                    run.op(server.stop().code == 0, "grid setup server exit")
            server = start_server(run, sandbox)
            if server is not None:
                try:
                    for _ in run.cycles():
                        grid_round(run, server, specs, sent)
                finally:
                    exit_ = server.stop()
                run.op(exit_.code == 0, f"grid server exit {exit_.code}")
                run.samples["rss"].append(exit_.maxrss_mb)
        else:
            for cycle in run.cycles():
                round_specs = [next(specs) for _ in range(3)]
                for spans_path in traced_pair(
                        cycle, sandbox.file(f"grid{cycle}.json")):
                    sandbox.fresh()
                    result = Cycle(spans_path is not None)
                    cycles.append(result)
                    server = start_server(run, sandbox, spans_path)
                    if server is None:
                        continue
                    try:
                        grid_round(run, server, iter(round_specs), sent)
                        client = server.connect()
                        result.scrape.update(scrape_metrics(run, client))
                        client.close()
                    finally:
                        exit_ = server.stop()
                    run.op(exit_.code == 0, f"grid server exit {exit_.code}")
                    result.add(exit_, spans_path, "grid")
    verify_grid(run, sent)
    return cycles


WORKLOADS = {
    "batch": (batch, batch_schedule),
    "serve": (serve, serve_schedule),
    "grid": (grid, grid_schedule),
}


# ---------------------------------------------------------------- metrics
def schedule_digest(workload: str, seed: int) -> str:
    schedule = WORKLOADS[workload][1](seed)
    return sha256(json.dumps(schedule, sort_keys=True).encode())


def check_schedule(workload: str, seed: int) -> str:
    """Equal seeds give one schedule; other seeds another (not batch)."""
    digest = schedule_digest(workload, seed)
    if schedule_digest(workload, seed) != digest:
        raise SystemExit("schedule self-check: same seed, other schedule")
    if workload != "batch" and schedule_digest(workload, seed + 1) == digest:
        raise SystemExit("schedule self-check: seed does not vary load")
    return digest


def end_to_end(run: Run) -> dict:
    # Latencies are means: the host switches between a fast and a
    # ~1.5x slower state every few seconds, so samples are bimodal, and
    # the median of a bimodal sample jumps between the modes from run to
    # run while the mean moves with the share of time in each.  For the
    # closed serve loop the mean is also connections / throughput.
    scale = {"setup_s": ("setup", 1.0, "s", statistics.median),
             "cold_ms": ("cold", 1e3, "ms", statistics.mean),
             "wide_ms": ("wide", 1e3, "ms", statistics.mean),
             "hot_ms": ("hot", 1e3, "ms", statistics.mean),
             "peak_rss_mb": ("rss", 1.0, "MB", statistics.median)}
    metrics = {}
    for name, (sample, factor, unit, statistic) in scale.items():
        # No sample at all means every attempt failed: report the timeout.
        values = run.samples[sample] or [procs.OP_TIMEOUT_S]
        metrics[name] = {"value": statistic(values) * factor, "unit": unit}
        tail = ""
        if len(values) >= 20:
            # Report the highest percentile with >= 10 samples beyond it.
            cuts = 100 if len(values) >= 1000 else 10
            tail = (f"  p50 {statistics.median(values) * factor:.4g}"
                    f"  p{100 - 100 // cuts} "
                    f"{statistics.quantiles(values, n=cuts)[-1] * factor:.4g}")
        print(f"  {name:12s} {metrics[name]['value']:10.4g} {unit:3s} "
              f"{statistic.__name__} of {len(values)}{tail}",
              file=sys.stderr)
    # Mean, not median: CPU time is read in clock ticks (10 ms), which a
    # total over many operations resolves and a per-operation median
    # would not.
    seconds, operations = run.cold_cpu
    cpu_ms = (seconds / operations if operations else procs.OP_TIMEOUT_S) * 1e3
    metrics["cold_cpu_ms"] = {"value": cpu_ms, "unit": "ms"}
    print(f"  cold_cpu_ms  {cpu_ms:10.4g} ms  mean of {operations}",
          file=sys.stderr)
    for sample in sorted(set(run.samples) - {s[0] for s in scale.values()}):
        values = run.samples[sample]
        print(f"  {sample:12s} {statistics.median(values):10.4g}     "
              f"median of {len(values)}", file=sys.stderr)
    return metrics


def _ratio(hits: float, total: float) -> float:
    return hits / total if total else 0.0


def _hit_miss(series: dict) -> tuple[float, float]:
    hits = sum(v for k, v in series.items() if "result=hit" in k)
    misses = sum(v for k, v in series.items() if "result=miss" in k)
    return hits, hits + misses


def per_layer(cycles: list[Cycle]) -> dict:
    """Per-layer metrics per traced cycle, and the accounting that ties
    them to the untraced cycles of the same work."""
    traced = [c for c in cycles if c.traced]
    untraced = [c for c in cycles if not c.traced]
    n = max(len(traced), 1)
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, int] = defaultdict(int)
    cache, memo = [0.0, 0.0], [0.0, 0.0]
    wall = covered = queue_wait = 0.0
    scrape: dict[str, float] = defaultdict(float)
    for cycle in traced:
        for key, value in cycle.scrape.items():
            scrape[key] += value
        for exit_, dump, step in cycle.procs:
            if dump is None:
                continue
            if dump["stale"] or dump["unwrapped"]:
                raise SystemExit(f"traced {step}: stale bindings "
                                 f"{dump['stale']}, unwrapped "
                                 f"{dump['unwrapped']}")
            spans = SpanSet(dump)
            bounds = spans.bounds()
            if bounds and (bounds[0] < exit_.start or bounds[1] > exit_.end):
                raise SystemExit(f"traced {step}: spans outside the "
                                 "process lifetime")
            for name, value in spans.self_s.items():
                self_s[name] += value
            for name, value in spans.calls.items():
                calls[name] += value
            for name, value in dump["counts"].items():
                counts[name] += value
            for sid in (spans.of("serve.profile_payload")
                        + spans.of("serve.perfetto_payload")
                        + spans.of("serve.grid_payload")):
                begun = spans.ancestor_start(sid, "serve.handle")
                if begun is not None:
                    queue_wait += spans.spans[sid][1] - begun
            registry = dump["registry"]
            if step != "cold":  # a cold batch run misses by design
                hits, total = _hit_miss(registry.get(
                    "result_cache.requests", {}))
                cache[0] += hits
                cache[1] += total
            hits, total = _hit_miss(registry.get("gemm_memo.lookups", {}))
            memo[0] += hits
            memo[1] += total
            wall += exit_.wall_s
            covered += spans.covered_s
    untraced_s = wall - covered
    layer_sum = sum(self_s.values())
    if any(value < 0 for value in self_s.values()) or untraced_s < 0 \
            or abs(layer_sum + untraced_s - wall) > 1e-9 * max(wall, 1.0):
        raise SystemExit("self times do not add up to the wall time")
    untraced_wall = sum(p[0].wall_s for c in untraced for p in c.procs)

    metrics = {"cli.import_s": (self_s.get(IMPORT_SPAN, 0.0) / n, "s")}
    for _, _, name in TIMED:
        metrics[f"{name}.calls"] = (calls.get(name, 0) / n, "count")
        metrics[f"{name}.self_s"] = (self_s.get(name, 0.0) / n, "s")
    for _, _, name in COUNTED:
        metrics[name] = (counts[name] / n, "count")
    hot_hits = scrape.get("serve_hot_cache_requests_total.hit", 0.0)
    hot_total = hot_hits + scrape.get(
        "serve_hot_cache_requests_total.other", 0.0)
    metrics.update({
        "runner.cache.hit_ratio": (_ratio(*cache), "ratio"),
        "hw.gemm_memo.hit_ratio": (_ratio(*memo), "ratio"),
        "serve.hot_cache.hit_ratio": (_ratio(hot_hits, hot_total), "ratio"),
        "serve.computations": (
            scrape.get("serve_computations_total", 0.0) / n, "count"),
        "serve.shed": (scrape.get("serve_shed_total", 0.0) / n, "count"),
        "serve.queue_wait_s": (queue_wait / n, "s"),
        "traced_wall_s": (wall / n, "s"),
        "untraced_s": (untraced_s / n, "s"),
        "coverage": (_ratio(covered, wall), "ratio"),
        "tracing.overhead": (_ratio(wall, untraced_wall), "ratio"),
    })
    print(f"  {n} traced cycle(s); per cycle:", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        if value:
            print(f"  {name:36s} {value:12.6g} {unit}", file=sys.stderr)
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


def environment() -> str:
    commit = ""
    if (procs.ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"], cwd=procs.ROOT,
                capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = "absent"
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    return (f"python {platform.python_version()}, numpy {numpy}, "
            f"nproc {NPROC}, commit {commit or 'unknown'}, load {load}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (procs.SRC / "repro" / "__main__.py").is_file():
        print(f"no repro package under {procs.SRC}", file=sys.stderr)
        return 2

    digest = check_schedule(args.workload, args.seed)
    print(f"e2ebench {args.workload} seed {args.seed} trace {args.trace}: "
          f"schedule {digest[:16]}; {environment()}", file=sys.stderr)
    procs.HARD_DEADLINE = time.perf_counter() + HARD_LIMIT_S
    procs.compile_bytecode()
    run = Run(args.seconds)
    cycles = WORKLOADS[args.workload][0](run, args.seed, bool(args.trace))
    metrics = per_layer(cycles) if args.trace else end_to_end(run)
    print(json.dumps({"correct": run.failed == 0,
                      "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
