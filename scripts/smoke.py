#!/usr/bin/env python3
"""End-to-end smoke checks of the appscope binaries: one function per round-trip.

Usage:  smoke.py CASE BUILD_DIR [--seconds S]

Each case runs the binaries built in BUILD_DIR inside its own freshly wiped
directory, BUILD_DIR/smoke/CASE/, and exits 1 on the first failed check
(0 when every check holds). Every case is registered as the ctest test
`smoke.CASE`, labelled `smoke`, so `ctest -L smoke` runs them all with the
examples. --seconds is how long serve_live keeps the daemon under scrape
(default 3; the CI soak runs 30).

  trace       paper_report --trace: the report is byte-identical to an
              untraced run, and the trace validates with its critical path
              covering >= 90% of core.run_study
  snapshot    example-scale generate+save, then reload: identical reports
              and sane io.snapshot.* counters
  query       appscope_query over a sealed test-scale snapshot: --check
              against the eager path, query.* counters, partial mapping
  region      a 4-region campaign, its warm rerun reusing every region, and
              the merged national snapshot through paper_report --load
  serve       one unthrottled daemon week: ingest counters, and the sealed
              snapshot loads through paper_report
  serve_live  the daemon at a pinned rate with the admin plane on an
              ephemeral port, scraped throughout; SIGTERM drains cleanly
  benches     every figure bench at test scale and every perf_core benchmark,
              each metrics document validated
  cli         every CliArgs binary rejects --help and a misspelt option
              with status 2 and writes nothing
"""

import argparse
import ctypes
import filecmp
import glob
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
import urllib.request

SCRIPTS = os.path.dirname(os.path.abspath(__file__))
BINARIES = {
    "paper_report": "examples/paper_report",
    "slicing_planner": "examples/slicing_planner",
    "what_if_4g": "examples/what_if_4g",
    "appscope_serve": "src/serve/appscope_serve",
    "appscope_query": "src/query/appscope_query",
    "appscope_region": "src/region/appscope_region",
    "perf_core": "bench/perf_core",
}
BUILD = OUT = ""
SECONDS = 3.0
LIBC = ctypes.CDLL(None)


class SmokeFailure(Exception):
    pass


def check(condition, *context):
    if not condition:
        raise SmokeFailure(" ".join(str(c) for c in context))


def out(*parts):
    return os.path.join(OUT, *parts)


def command(name, args):
    path = name if os.sep in name else os.path.join(BUILD, BINARIES[name])
    return [path, *args]


def environment(metrics=None, extra=None):
    # The binaries read APPSCOPE_* knobs (metrics, trace, admin port); only
    # the ones a case sets reach them.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("APPSCOPE_") or k == "APPSCOPE_THREADS"}
    if metrics:
        env.update(APPSCOPE_METRICS="1", APPSCOPE_METRICS_PATH=out(metrics))
    env.update(extra or {})
    return env


def die_with_parent():
    # PR_SET_PDEATHSIG: no child outlives a killed smoke.py (ctest timeout).
    LIBC.prctl(1, signal.SIGKILL)


def run(name, *args, metrics=None, env=None, cwd=None, expect=0):
    """Runs a binary to completion; returns its stdout and stderr."""
    proc = subprocess.run(command(name, args), cwd=cwd or OUT, text=True,
                          env=environment(metrics, env), capture_output=True,
                          preexec_fn=die_with_parent)
    check(proc.returncode == expect, name, *args, "exited", proc.returncode,
          "expected", expect, "\n" + proc.stderr[-4000:])
    return proc


def script(name, *args):
    run(sys.executable, os.path.join(SCRIPTS, name), *args)


def identical(a, b):
    check(filecmp.cmp(out(a), out(b), shallow=False), a, "and", b, "differ")


def nonempty(*parts):
    path = out(*parts)
    check(os.path.isfile(path) and os.path.getsize(path) > 0, path,
          "missing or empty")
    return path


def metrics_doc(name):
    doc = json.load(open(nonempty(name)))
    check(doc.get("schema") == "appscope.metrics/1", name, doc.get("schema"))
    for key in ("counters", "gauges", "histograms", "spans", "spans_dropped"):
        check(key in doc, name, "missing key", key)
    return doc


def trace():
    run("paper_report", "--scale=test", "--trace=" + out("trace.json"),
        "--out=" + out("traced.md"))
    run("paper_report", "--scale=test", "--out=" + out("plain.md"))
    identical("traced.md", "plain.md")
    script("trace_summary.py", nonempty("trace.json"),
           "--root", "core.run_study", "--min-coverage", "0.9")


def snapshot():
    for phase in ("save", "load"):
        run("paper_report", "--scale=example",
            "--snapshot=" + out("example.snapshot"),
            "--out=" + out(phase + ".md"),
            metrics=f"snapshot_{phase}.metrics.json")
    identical("save.md", "load.md")
    save = metrics_doc("snapshot_save.metrics.json")["counters"]
    load = metrics_doc("snapshot_load.metrics.json")["counters"]
    check(save.get("io.snapshot.bytes_written", 0) > 0, save)
    check(save.get("io.snapshot.sections", 0) >= 9, save)
    check(load.get("io.snapshot.bytes_read", 0) > 0, load)
    check(load.get("io.snapshot.sections", 0) >= 9, load)
    check("io.snapshot.checksum_failures" not in load, load)


def query():
    snap = "--snapshot=" + out("test.snapshot")
    run("paper_report", "--scale=test", snap)
    # The metered run stays on the lazy path; --check adds an eager
    # full-file load to io.snapshot.mapped_bytes, so it runs unmetered.
    run("appscope_query", snap, "--hours=18:22", "--op=sum", "--repeat=3",
        "--stats", "--slicing", metrics="appscope_query.metrics.json")
    run("appscope_query", snap, "--hours=18:22", "--op=sum", "--check")
    run("appscope_query", snap, "--source=communes", "--op=topk", "--k=5",
        "--group-by=commune", "--check")
    counters = metrics_doc("appscope_query.metrics.json")["counters"]
    check(counters.get("query.executed", 0) >= 1, counters)
    check(counters.get("query.bytes_scanned", 0) > 0, counters)
    check(counters.get("query.cache.hits", 0) >= 2, counters)  # --repeat=3
    check(counters.get("query.cache.misses", 0) >= 1, counters)
    mapped = counters.get("io.snapshot.mapped_bytes", 0)
    size = os.path.getsize(out("test.snapshot"))
    check(0 < mapped < size, "mapped", mapped, "of", size)


def region():
    campaign = ["--count=4", "--scale=test", "--out=" + out("campaign")]
    run("appscope_region", *campaign, "--report=" + out("report.md"),
        metrics="appscope_region.metrics.json")
    nonempty("report.md")
    nonempty("campaign", "national.snapshot")
    for name in ("paris", "lyon", "marseille", "toulouse"):
        nonempty("campaign", name, "latest.snapshot")
    warm = run("appscope_region", *campaign, "--report=" + out("warm.md"))
    identical("report.md", "warm.md")
    reused = warm.stderr.count(": reused")
    check(reused == 4, "warm rerun reused", reused, "of 4 regions\n" + warm.stderr)

    doc = metrics_doc("appscope_region.metrics.json")
    counters = doc["counters"]
    for key, want in (("orchestrate.regions", 4), ("orchestrate.generated", 4),
                      ("merge.regions", 4), ("compare.regions", 4),
                      ("compare.pairs", 6)):
        check(counters.get("region." + key, 0) == want, key, counters)
    for key in ("orchestrate.bytes", "merge.communes", "merge.bytes"):
        check(counters.get("region." + key, 0) > 0, key, counters)
    spans = {s["name"] for s in doc["spans"]}
    for name in ("orchestrate", "shard", "merge", "compare"):
        check("region." + name in spans, name, sorted(spans))

    run("paper_report", "--load=" + out("campaign", "national.snapshot"),
        "--out=" + out("national.md"))
    nonempty("national.md")


def check_serve_metrics(doc):
    counters, histograms = doc["counters"], doc["histograms"]
    check(counters.get("net.ingested", 0) > 0, counters)
    check("net.sampled" in counters, sorted(counters))
    check(counters.get("serve.epochs.sealed", 0) > 0, counters)
    check(histograms.get("serve.queue.depth", {}).get("count", 0) > 0,
          sorted(histograms))
    return counters, histograms


def load_sealed_snapshot():
    latest = nonempty("snapshots", "latest.snapshot")
    run("paper_report", "--scale=test", "--snapshot=" + latest,
        "--out=" + out("report.md"))
    nonempty("report.md")
    return latest


def serve():
    run("appscope_serve", "--scale=test", "--weeks=1", "--epoch-seconds=21600",
        "--snapshot-dir=" + out("snapshots"), metrics="serve.metrics.json")
    check_serve_metrics(metrics_doc("serve.metrics.json"))
    load_sealed_snapshot()


def fetch(url):
    with urllib.request.urlopen(url, timeout=5) as response:  # non-2xx raises
        return response.read().decode()


def scrape(daemon):
    """Scrapes the admin plane 14 times over SECONDS; returns the count."""
    log = out("serve.log")
    port = None
    deadline = time.monotonic() + 30
    while port is None and time.monotonic() < deadline:
        check(daemon.poll() is None, "daemon exited before its admin endpoint")
        time.sleep(0.1)
        found = re.search(r"admin endpoint on http://127\.0\.0\.1:(\d+)",
                          open(log).read())
        port = found and found.group(1)
    check(port, "admin endpoint never came up")
    base = f"http://127.0.0.1:{port}"
    scrapes = 0
    for _ in range(14):
        time.sleep(SECONDS / 14)
        if daemon.poll() is not None:
            break
        check("ok" in fetch(base + "/healthz").splitlines(), "unhealthy")
        with open(out("metrics.prom"), "w") as f:
            f.write(fetch(base + "/metrics"))
        with open(out("statusz.json"), "w") as f:
            f.write(fetch(base + "/statusz"))
        scrapes += 1
    with open(out("tracez.json"), "w") as f:
        f.write(fetch(base + "/tracez"))
    return scrapes


def serve_live():
    # The pinned rate replays ~1.4 test-scale weeks (1.26M events each) in
    # the window, so the sealed state feeds the study's full-week analyses:
    # 60000 events/s over the CI soak's 30 s.
    rate = f"--rate={1.8e6 / SECONDS:.0f}"
    with open(out("serve.log"), "w") as log:
        daemon = subprocess.Popen(
            command("appscope_serve", [
                "--scale=test", rate, "--weeks=100",
                "--epoch-seconds=21600", "--admin-port=0",
                "--snapshot-dir=" + out("snapshots")]),
            cwd=OUT, env=environment("serve.metrics.json"), stdout=log,
            stderr=log, preexec_fn=die_with_parent)
    try:
        scrapes = scrape(daemon)
        check(scrapes >= 10, "only", scrapes, "healthy scrapes")
        daemon.send_signal(signal.SIGTERM)
        status = daemon.wait(timeout=60)
        check(status == 0, "daemon exited", status, "after SIGTERM")
    finally:
        if daemon.poll() is None:
            daemon.kill()
        daemon.wait()

    script("promcheck.py", out("metrics.prom"))
    prom = open(out("metrics.prom")).read()
    for line in ("net_ingested ", "obs_health_healthy 1",
                 "serve_ingest_enqueue_to_seal_bucket",
                 "serve_epoch_seal_wall_seconds_bucket"):
        check(re.search("^" + re.escape(line), prom, re.M), "no", line)

    status = json.load(open(out("statusz.json")))
    check(status.get("schema") == "appscope.statusz/1", status.get("schema"))
    check(status["healthy"] is True, status)
    check(status["samples"] >= 1, status)
    check(status["ingest_rate_per_second"] > 0, status)
    check("net.ingested" in status["series"], sorted(status["series"]))

    counters, histograms = check_serve_metrics(metrics_doc("serve.metrics.json"))
    latency = histograms.get("serve.ingest.enqueue_to_seal", {})
    check(latency.get("count", 0) > 0 and latency.get("max", 0) > 0, latency)
    seal = histograms.get("serve.epoch.seal_wall_seconds", {})
    check(seal.get("count", 0) == counters["serve.epochs.sealed"], seal)

    # The query engine's slicing section over the sealed snapshot (lazy path,
    # --check enforcing bitwise agreement) matches paper_report's textually.
    latest = load_sealed_snapshot()
    answer = run("appscope_query", "--snapshot=" + latest, "--hours=18:22",
                 "--op=sum", "--slicing", "--check").stdout
    report = open(out("report.md")).read()
    sections = [re.search(r"^### Network-slicing economics.*(?:\n.*){4}", text,
                          re.M) for text in (report, answer)]
    check(all(sections), "no slicing section")
    check(sections[0].group(0) == sections[1].group(0), "slicing sections differ")


def benches():
    figures = [b for b in sorted(glob.glob(os.path.join(BUILD, "bench", "*")))
               if os.path.isfile(b) and os.access(b, os.X_OK)
               and not b.endswith("perf_core")]
    check(figures, "no figure benches built")
    names = [os.path.basename(bench) for bench in figures]
    for bench, name in zip(figures, names):
        run(bench, metrics=name + ".metrics.json", env={"APPSCOPE_SCALE": "test"})
    names.append("perf_core")
    run("perf_core", "--benchmark_min_time=0.01",
        metrics="perf_core.metrics.json")
    for name in names:
        doc = metrics_doc(name + ".metrics.json")
        check(any(k.startswith("stage.") for k in doc["histograms"]), name,
              "has no stage timings")
        check(any(k.endswith(".calls") for k in doc["counters"]), name,
              "has no stage call counters")
    counters = metrics_doc("perf_core.metrics.json")["counters"]
    check(any(k.startswith("la.simd.dispatch.") for k in counters),
          "no SIMD dispatch counter", sorted(counters))


def cli():
    for name in ("appscope_serve", "appscope_query", "appscope_region",
                 "paper_report", "slicing_planner", "what_if_4g"):
        for flag in ("--help", "--snapshot_dir=x"):
            cwd = out(name + flag.split("=")[0])
            os.mkdir(cwd)
            rejected = run(name, flag, cwd=cwd, expect=2)
            check("accepted options:" in rejected.stderr, name, flag,
                  "printed no usage")
            check(not os.listdir(cwd), name, flag, "wrote", os.listdir(cwd))


CASES = {f.__name__: f for f in (trace, snapshot, query, region, serve,
                                 serve_live, benches, cli)}


def main():
    global BUILD, OUT, SECONDS
    parser = argparse.ArgumentParser(description="appscope smoke checks")
    parser.add_argument("case", choices=sorted(CASES))
    parser.add_argument("build_dir")
    parser.add_argument("--seconds", type=float, default=SECONDS,
                        help="serve_live scrape window (default 3)")
    args = parser.parse_args()
    BUILD, SECONDS = os.path.abspath(args.build_dir), args.seconds
    OUT = os.path.join(BUILD, "smoke", args.case)
    shutil.rmtree(OUT, ignore_errors=True)
    os.makedirs(OUT)
    try:
        CASES[args.case]()
    except SmokeFailure as failure:
        print(f"smoke.{args.case}: FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"smoke.{args.case}: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
