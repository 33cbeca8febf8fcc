"""Benchmark worker: one fresh interpreter per use.

    worker.py probe                       import the package, report, exit
    worker.py generate WORKLOAD SEED DIR  write the job list and input files
    worker.py pass JOBS RESULT [--trace SPANS]
                                          run every job once, in order

The first line a worker prints is ``ready`` once ``spectralforge.cli`` has
been imported; the parent times the interval from spawn to that line as
set-up.  ``pass`` calls ``spectralforge.cli.main(argv)`` in-process for one
job at a time (one closed-loop client) and writes latencies, exit codes,
report checks, report digests and peak RSS to RESULT.
"""

import sys

import spectralforge.cli  # noqa: E402  (timed as set-up by the parent)

sys.stdout.write("ready\n")
sys.stdout.flush()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def _field(report: dict, path: list):
    value = report
    for key in path:
        if isinstance(value, list) and key >= len(value):
            return None
        value = value[key]
    return value


def run_pass(jobs: list[dict], tracer=None) -> list[dict]:
    cli = spectralforge.cli
    reports: dict[int, dict] = {}
    results = []
    for job in jobs:
        res = {"id": job["id"], "kind": job["kind"]}
        stage = job["stage"]
        if stage is not None:
            source = reports.get(stage["from"])
            value = None if source is None else _field(source, stage["field"])
            if value is None:
                if stage.get("optional") and source is not None:
                    continue  # e.g. fewer spectra found than check-hadamard slots
                res.update(ran=False, error="input job failed", latency=None)
                results.append(res)
                continue
            if "wrap_base" in stage:
                value = {"base": stage["wrap_base"], "digits": value}
            with open(stage["path"], "w", encoding="utf-8") as fh:
                json.dump(value, fh)
        if tracer is not None:
            tracer.job = job["id"]
        out, err = io.StringIO(), io.StringIO()
        rc, error = None, None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(job["argv"])
        except (Exception, SystemExit) as exc:  # an escaping exception is a failed job
            error = type(exc).__name__
        latency = time.perf_counter() - start
        text = out.getvalue()
        res.update(ran=True, latency=latency, rc=rc, error=error)
        if error is None:
            try:
                reason = checks.check(job, rc, text)
            except (ValueError, KeyError, TypeError, OSError) as exc:
                reason = f"unreadable report: {type(exc).__name__}: {exc}"
            res["wrong"] = reason
            digest = hashlib.sha256(text.encode())
            if job["kind"] == "factor-mask":
                with open(job["check"]["output"], "rb") as fh:
                    digest.update(fh.read())
            res["digest"] = digest.hexdigest()
            if reason is None and job["kind"] != "factor-mask":
                reports[job["id"]] = json.loads(text)
        results.append(res)
    return results


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "probe":
        return 0
    if mode == "generate":
        workload, seed, workdir = argv[1], int(argv[2]), argv[3]
        spec = workloads.generate(workload, seed, workdir)
        with open(os.path.join(workdir, "jobs.json"), "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        return 0
    jobs_path, result_path = argv[1], argv[2]
    with open(jobs_path, encoding="utf-8") as fh:
        jobs = json.load(fh)["jobs"]
    tracer = None
    if len(argv) > 3 and argv[3] == "--trace":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    cpu0 = time.process_time()
    results = run_pass(jobs, tracer)
    out = {
        "jobs": results,
        "cpu_s": time.process_time() - cpu0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        job_seconds = sum(r["latency"] for r in results if r.get("latency"))
        out["trace"] = tracer.summary(job_seconds)
        out["leaf_violations"] = tracer.leaf_violations()
        tracer.dump(argv[4])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
