"""End-to-end benchmark of the apec pipeline over a localhost LLM stub.

One run = one workload, one seed, one fresh process:

1. generate the seeded synthetic corpus (`corpus_gen.py`, own process);
2. start the chat stub (`stub.py`, own process) and check its bare
   round trip, so a slow stub is never mistaken for a slow program;
3. on a multi-worker workload (`llm-latency`), one untimed pass with
   `--workers 1` whose output digest every timed pass must reproduce;
4. timed passes until `--seconds` have passed. A pass is `stats ->
   adapt -> refine (a) -> refine (b) -> ensemble -> evaluate`, all
   through `apec.cli.main`; every other pass first rebuilds the index
   with `apec index`, which is one set-up sample. Each pass's outputs
   are checked; a pass that fails the check counts as failed, not
   timed. Metrics are medians over the passes.

With `--trace 1` the timed passes alternate untraced and traced, and the
per-layer metrics come from the traced ones (see `tracing.py`). The spans
of the last traced pass are written to `.perfbench_spans/`.

The last stdout line is one JSON object: `correct`, `attempted`,
`failed` (documents over adapt and both refine stages, plus every
document of a pass that failed the check) and `metrics`.

Usage:
    python3 perfbench/run.py --workload bm25-large --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py            # every workload, untraced and traced
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import http.client
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SPANS = ROOT / ".perfbench_spans"  # spans of the last traced pass of each run
RATIO_WINDOW = "0.3,0.9"
ROUND_TRIP_SLACK_MS = 10.0  # a bare stub round trip above latency + this is a broken stub


@dataclass(frozen=True)
class Workload:
    train: int  # training pairs
    dev: int  # documents per pass
    mode: str  # adapt mode
    embed: str
    latency_ms: float
    workers: int
    cycles: int = 5
    demos: int = 5
    ratio: str = ""


WORKLOADS = {
    "bm25-large": Workload(
        train=4000,
        dev=12,
        mode="fs-bm25",
        embed="hash",
        latency_ms=0.0,
        workers=1,
        ratio=RATIO_WINDOW,
    ),
    "llm-latency": Workload(
        train=200,
        dev=20,
        mode="fs-bm25",
        embed="hash",
        latency_ms=20.0,
        workers=2,
    ),
    "emb-dense": Workload(
        train=1500,
        dev=8,
        mode="fs-emb",
        embed="hash:768",
        latency_ms=0.0,
        workers=1,
    ),
}


class HarnessError(Exception):
    """The benchmark cannot measure: missing program, broken stub, unmeasured metric."""


# ----------------------------------------------------------------- setup


def import_program():
    """Import apec from this checkout's source tree, never from elsewhere."""
    if not (SRC / "apec" / "__init__.py").is_file():
        raise HarnessError(f"no program source at {SRC / 'apec'}")
    sys.path.insert(0, str(SRC))
    import apec.cli

    if not Path(apec.cli.__file__).resolve().is_relative_to(SRC):
        raise HarnessError(f"apec imported from {apec.cli.__file__}, not {SRC}")
    return apec.cli


def git_sha() -> str:
    """HEAD of the checkout read from .git without running git; 'unknown' outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Stub:
    """The chat stub process; it exits when its stdin closes."""

    def __init__(self, latency_ms: float):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py"), "--latency-ms", str(latency_ms)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("PORT "):
            self.close()
            raise HarnessError(f"stub did not start: {line!r}")
        self.port = int(line.split()[1])
        self.endpoint = f"http://127.0.0.1:{self.port}/v1/chat/completions"

    def round_trip_ms(self, calls: int = 25) -> float:
        """Median bare round trip over one kept-alive connection."""
        body = json.dumps(
            {"model": "probe", "messages": [
                {"role": "system", "content": "x"}, {"role": "user", "content": "Hola."}]}
        )
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        times = []
        try:
            for _ in range(calls):
                start = time.perf_counter()
                conn.request("POST", "/v1/chat/completions", body,
                             {"Content-Type": "application/json"})
                response = conn.getresponse()
                payload = json.loads(response.read())
                times.append((time.perf_counter() - start) * 1e3)
                if response.status != 200 or not payload["choices"][0]["message"]["content"]:
                    raise HarnessError(f"stub answered {response.status}: {payload}")
        finally:
            conn.close()
        return statistics.median(times)

    def close(self) -> None:
        if self.proc.stdin:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def host_probe_ms() -> float:
    """Wall ms of a fixed pure-Python kernel that runs no apec code.

    Taken before every pass. When it drifts together with the pass
    times, the host's speed moved, not the program's.
    """
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(100_000):
        key = i * 7919 % 10007
        table[key] = table.get(key, 0) + 1
    return (time.perf_counter() - start) * 1e3


# -------------------------------------------------------------- pipeline


class Pipeline:
    """Argument lists for each stage and the output check of one pass."""

    def __init__(self, cli, workload: Workload, work: Path, endpoint: str):
        self.cli = cli
        self.w = workload
        self.work = work
        self.train = work / "corpus" / "train.jsonl"
        self.dev = work / "corpus" / "dev.jsonl"
        self.index = work / "index.json"
        self.configs = {}
        # one model per stream: the stub's answers differ by model as two LLMs would
        for name in ("adapt", "a", "b"):
            path = work / f"llm_{name}.json"
            path.write_text(json.dumps({"llm": {"endpoint": endpoint, "model": f"stub-{name}"}}))
            self.configs[name] = str(path)
        self.dev_ids = [
            json.loads(line)["id"] for line in self.dev.read_text(encoding="utf-8").splitlines()
        ]

    def out(self, name: str) -> str:
        return str(self.work / name)

    def index_args(self) -> list[str]:
        return ["index", "--corpus", str(self.train), "--output", str(self.index)]

    def stages(self, workers: int) -> list[tuple[str, list[str]]]:
        w, dev, train = self.w, str(self.dev), str(self.train)
        adapt = ["adapt", "--config", self.configs["adapt"], "--input", dev,
                 "--corpus", train, "--index", str(self.index), "--mode", w.mode,
                 "--k", "5", "--provider", "http", "--workers", str(workers),
                 "--output", self.out("adapt.jsonl")]
        if w.ratio:
            adapt += ["--ratio", w.ratio]
        if w.mode == "fs-emb":
            adapt += ["--embed", w.embed]
        stages = [
            ("stats", ["stats", "--input", dev, "--embed", w.embed,
                       "--output", self.out("stats.json")]),
            ("adapt", adapt),
        ]
        for stream in ("a", "b"):
            stages.append((f"refine_{stream}", [
                "refine", "--config", self.configs[stream],
                "--input", self.out("adapt.jsonl"), "--docs", dev, "--corpus", train,
                "--index", str(self.index), "--provider", "http", "--embed", w.embed,
                "--cycles", str(w.cycles), "--demos", str(w.demos),
                "--workers", str(workers), "--stream", stream,
                "--output", self.out(f"traces_{stream}.jsonl")]))
        stages.append(("ensemble", [
            "ensemble", "--inputs", self.out("traces_a.jsonl"), self.out("traces_b.jsonl"),
            "--priority", "a,b", "--output", self.out("best.jsonl")]))
        stages.append(("evaluate", [
            "evaluate", "--input", self.out("best.jsonl"), "--corpus", dev,
            "--embed", w.embed, "--output", self.out("eval.json")]))
        return stages

    def call(self, argv: list[str]) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return self.cli.main(argv)

    def run_pass(self, workers: int, setup: bool) -> "PassResult":
        """The six stages, timed and checked; with setup, `apec index` first."""
        outputs = ["stats.json", "adapt.jsonl", "traces_a.jsonl", "traces_b.jsonl",
                   "best.jsonl", "eval.json"]
        for name in outputs + (["index.json"] if setup else []):
            Path(self.out(name)).unlink(missing_ok=True)
        codes, setup_s = {}, None
        if setup:
            start = time.perf_counter()
            codes["index"] = self.call(self.index_args())
            setup_s = time.perf_counter() - start
        cpu0, wall0 = time.process_time(), time.perf_counter()
        for stage, argv in self.stages(workers):
            if any(codes.values()):
                break
            codes[stage] = self.call(argv)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        return self.check(PassResult(setup_s=setup_s, start=wall0, wall_s=wall, cpu_s=cpu,
                                     codes=codes))

    def _records(self, name: str) -> list[dict]:
        path = Path(self.out(name))
        if not path.exists():
            return []
        return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]

    def check(self, result: "PassResult") -> "PassResult":
        n, errors = len(self.dev_ids), result.errors
        for stage, code in result.codes.items():
            if code != 0:
                errors.append(f"{stage} exited {code}")
        if len(result.codes) < 6 + (result.setup_s is not None):
            errors.append("pipeline stopped early")
        adapted = self._records("adapt.jsonl")
        failed = n - len(adapted)
        streams = {}
        for stream in ("a", "b"):
            traces = {t["doc_id"]: t for t in self._records(f"traces_{stream}.jsonl")}
            streams[stream] = traces
            complete = [t for t in traces.values() if not t["incomplete"]]
            failed += n - len(complete)
            for t in complete:
                if len(t["records"]) != self.w.cycles:
                    errors.append(f"trace {stream}/{t['doc_id']}: {len(t['records'])} records")
                if t["final_score"] < t["initial_score"]:
                    errors.append(f"trace {stream}/{t['doc_id']}: final below initial score")
        result.attempted, result.failed_docs = 3 * n, failed
        if sorted(d["doc_id"] for d in adapted) != sorted(self.dev_ids):
            errors.append(f"adapt wrote {len(adapted)} of {n} documents")
        best = self._records("best.jsonl")
        if len(best) != n:
            errors.append(f"ensemble wrote {len(best)} of {n} documents")
        for pick in best:
            scores = [s[pick["doc_id"]]["final_score"] for s in streams.values()
                      if pick["doc_id"] in s]
            if pick["final_score"] != max(scores, default=None):
                errors.append(f"ensemble pick {pick['doc_id']} is not the best stream")
        for name in ("stats.json", "eval.json"):
            path = Path(self.out(name))
            count = json.loads(path.read_text())["doc_count"] if path.exists() else 0
            if count != n:
                errors.append(f"{name} covers {count} of {n} documents")
        if not errors:
            digest = hashlib.sha256()
            for name in ("best.jsonl", "eval.json"):
                digest.update(Path(self.out(name)).read_bytes())
            result.digest = digest.hexdigest()
        return result


@dataclass
class PassResult:
    setup_s: float | None  # None when the pass reused the previous index
    start: float
    wall_s: float
    cpu_s: float
    codes: dict
    attempted: int = 0
    failed_docs: int = 0
    digest: str = ""
    errors: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


# ------------------------------------------------------------------- run


def run_one(args) -> dict:
    cli = import_program()
    workload = WORKLOADS[args.workload]
    meta = {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "workload": args.workload,
        "params": asdict(workload),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    stub = None
    try:
        stub = Stub(workload.latency_ms)
        subprocess.run(
            [sys.executable, str(HERE / "corpus_gen.py"), "--seed", str(args.seed),
             "--out", str(work / "corpus"), "--train", str(workload.train),
             "--dev", str(workload.dev)],
            check=True, timeout=120,
        )
        round_trip = stub.round_trip_ms()
        meta["stub_round_trip_ms"] = round_trip
        if round_trip > workload.latency_ms + ROUND_TRIP_SLACK_MS:
            raise HarnessError(
                f"stub round trip {round_trip:.1f} ms exceeds its {workload.latency_ms} ms "
                f"latency by more than {ROUND_TRIP_SLACK_MS} ms"
            )
        pipeline = Pipeline(cli, workload, work, stub.endpoint)
        return measure(args, pipeline, workload, meta)
    finally:
        if stub is not None:
            stub.close()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def measure(args, pipeline: Pipeline, workload: Workload, meta: dict) -> dict:
    """Timed passes until args.seconds have passed.

    Every other untraced pass, and every traced one, rebuilds the index
    first, so set-up samples are spread over the run like the pass
    samples and see the same host load.
    """
    n = len(pipeline.dev_ids)
    problems: list[str] = []
    reference = ""  # output digest every pass must reproduce
    if workload.workers > 1:
        # the same pipeline with one worker gives the reference output
        first = pipeline.run_pass(workers=1, setup=True)
        problems += first.errors
        reference = first.digest
    plain: list[PassResult] = []
    traced: list[PassResult] = []
    layer_passes: list[dict] = []
    probes: list[float] = []
    begin = time.perf_counter()
    while time.perf_counter() - begin < args.seconds or not plain or (
        args.trace and not traced
    ):
        probes.append(host_probe_ms())
        if args.trace and len(plain) > len(traced):
            tracer = tracing.Tracer()
            with tracing.traced(tracer):
                result = pipeline.run_pass(workload.workers, setup=True)
            metrics = tracing.pass_metrics(
                tracer.spans, result.start, result.start + result.wall_s,
                workload.latency_ms / 1e3,
            )
            if tracer.missing:
                problems.append(f"not traced: {', '.join(tracer.missing)}")
            if abs(metrics["other.self_s"] + sum(
                metrics[f"{layer}.self_s"] for layer in tracing.LAYERS
            ) - result.wall_s) > 1e-6 * result.wall_s:
                problems.append("layer self times do not add up to the traced wall time")
            layer_passes.append(metrics)
            traced.append(result)
            last_spans = tracer.spans
        else:
            result = pipeline.run_pass(
                workload.workers, setup=args.trace or len(plain) % 2 == 0
            )
            plain.append(result)
        problems += result.errors
        reference = reference or result.digest
        if result.ok and result.digest != reference:
            problems.append(
                f"output digest {result.digest[:12]} differs from {reference[:12]}"
            )

    timed = [p for p in plain if p.ok] or plain
    attempted = sum(p.attempted for p in plain + traced)
    failed = sum(p.failed_docs if p.ok else p.attempted for p in plain + traced)
    meta.update(
        passes=len(plain),
        traced_passes=len(traced),
        digest=reference,
        problems=sorted(set(problems))[:20],
        pass_wall_s=[p.wall_s for p in plain],
        pass_cpu_s=[p.cpu_s for p in plain],
        setup_samples_s=[p.setup_s for p in plain if p.setup_s is not None],
        host_probe_ms=probes,
        failed_doc_ratio=failed / attempted if attempted else 0.0,
    )
    if args.trace:
        spans_file = SPANS / f"{args.workload}-seed{args.seed}.jsonl"
        tracing.write_spans(last_spans, traced[-1].start, spans_file)
        meta["spans_file"] = str(spans_file.relative_to(ROOT))
        metrics = tracing.median_metrics(layer_passes)
        metrics["trace.overhead_ratio"] = statistics.median(
            p.wall_s for p in traced
        ) / statistics.median(p.wall_s for p in timed)
    else:
        metrics = {
            "setup_s": statistics.median(p.setup_s for p in timed if p.setup_s is not None),
            "docs_per_s": statistics.median(n / p.wall_s for p in timed),
            "cpu_ms_per_doc": statistics.median(1e3 * p.cpu_s / n for p in timed),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    return {
        "meta": meta,
        "result": {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
    }


# ---------------------------------------------------------------- output


def emit(outcome: dict, trace: int) -> None:
    meta, result = outcome["meta"], outcome["result"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in result["metrics"]]
    if missing:
        raise HarnessError(f"metrics not measured: {missing}")
    result["metrics"] = {
        m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]} for m in declared
    }
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(f"output digest {meta['digest']}  verdict {'PASS' if result['correct'] else 'FAIL'}")
    for problem in meta["problems"]:
        print(f"  check: {problem}")
    for name, metric in result["metrics"].items():
        print(f"  {name:34s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps(result, sort_keys=True))


def run_all(args) -> int:
    """Every workload untraced then traced, each in its own process."""
    ok = True
    summary = {}
    for name in WORKLOADS:
        digests = set()
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace)]
            print(f"== {name} trace={trace}", flush=True)
            proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"  run failed with exit code {proc.returncode}")
                ok = False
                continue
            print("\n".join(lines[1:-1]), flush=True)
            meta, result = json.loads(lines[0])["meta"], json.loads(lines[-1])
            if not trace:
                print(f"  {'failed_doc_ratio':34s} {meta['failed_doc_ratio']:14.6g} ratio")
            digests.add(meta["digest"])
            ok &= result["correct"]
            summary.setdefault(name, {}).update(
                {k: v["value"] for k, v in result["metrics"].items()})
        if len(digests) > 1:
            print(f"  check: output digests differ between runs of one seed: {sorted(digests)}")
            ok = False
    print(json.dumps({"correct": ok, "workloads": summary}, sort_keys=True))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            import_program()  # fail fast without the program
            return run_all(args)
        emit(run_one(args), args.trace)
    except HarnessError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
