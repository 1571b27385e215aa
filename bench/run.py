"""tokencover benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload calibrate_large --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. With ``--trace 0`` the run reports the end-to-end metrics of
BENCHMARK.json, with ``--trace 1`` the per-layer metrics of a traced run.
The last stdout line is the result as one JSON object; a detailed record
(environment, input and output sha256, every pass, every check) goes to
``.bench_out/`` in the checkout. See bench/README.md for the design.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
for _var in ("SCORER_API_KEY", "SCORER_CACHE_DIR", "HTTP_PROXY", "HTTPS_PROXY", "http_proxy",
             "https_proxy", "ALL_PROXY", "all_proxy"):
    os.environ.pop(_var, None)
os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import http.client  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import inputs  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
# Seconds one Reference sample takes on an uncontended core of the 2-vCPU
# Intel Xeon VM the benchmark was written on; timed metrics are scaled to it.
SAMPLE_S = 0.0001
SAMPLE_EVERY_S = 0.01
EDGE_SAMPLES = 4


def declared_metrics(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


class Terminated(BaseException):
    """SIGTERM: ends the run like an interrupt, never counted as a failed operation."""


def _terminate(signum, frame):
    raise Terminated


class Stub:
    """The loopback scorer as a child process; stopped by ``close``."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "stub.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        if not line.strip().isdigit():
            self.close()
            raise RuntimeError("scorer stub did not start")
        self.port = int(line)

    def get(self, path: str) -> list:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request("GET", path)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class Bench:
    """State of one run; the workloads call back into it."""

    def __init__(self, tc, seed: int, root: Path):
        self.tc = tc
        self.seed = seed
        self.root = root
        self.stub: Stub | None = None
        self.tracer = None
        self.attempted = 0
        self.failed_ops = 0
        self.failed_checks = 0
        self.checks = 0
        self.problems: list[str] = []
        self.inputs: dict[str, str] = {}
        self.outputs: dict[str, str] = {}
        self.cli_bytes = 0
        self.reference = Reference()
        self.timings: list[list] = []  # [span name, raw seconds, speed, samples, user CPU s]

    @property
    def ok(self) -> bool:
        return self.failed_ops == 0

    def workdir(self, name: str) -> Path:
        path = self.root / name
        path.mkdir(parents=True, exist_ok=True)
        return path

    def write_input(self, path: Path, records: list[dict]) -> Path:
        self.inputs[str(path.relative_to(self.root))] = inputs.write_jsonl(path, records)
        return path

    def note_input(self, name: str, text: str) -> None:
        self.inputs[name] = hashlib.sha256(text.encode()).hexdigest()

    def note_output(self, name: str, text: str) -> None:
        self._output(name, hashlib.sha256(text.encode()).hexdigest())

    def _output(self, name: str, digest: str) -> None:
        """Every output is recorded; one that changes between passes is a failure."""
        if self.outputs.setdefault(name, digest) != digest:
            self.check(False, f"{name} differs between passes")

    def fail(self, message: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(message)
            print(f"bench: {message}", file=sys.stderr)

    def check(self, condition: bool, message: str) -> None:
        self.checks += 1
        if not condition:
            self.failed_checks += 1
            self.fail(message)

    def _timed(self, span_name: str, fn):
        """Run ``fn`` as one timed operation.

        Returns (seconds, result, exception or None). The time spent taking
        reference samples during the operation is left out. Of the rest, the
        user-mode CPU time is multiplied by ``speed``, SAMPLE_S over the
        median reference sample; kernel time and waiting count as they are.
        """
        gc.collect()  # start each timed operation with the same collector state
        first = len(self.reference.taken)
        self.reference.edge()
        in_samples = 0.0

        def sample_now(signum, frame) -> None:
            nonlocal in_samples
            t0 = time.perf_counter()
            self.reference.sample()
            in_samples += time.perf_counter() - t0

        previous = signal.signal(signal.SIGALRM, sample_now)
        span = self.tracer.open(span_name) if self.tracer else None
        cpu = user_cpu()
        t = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            result, error = fn(), None
        except (Exception, SystemExit) as e:  # noqa: BLE001 - counted as a failed operation
            result, error = None, e
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        seconds = time.perf_counter() - t - in_samples
        user = min(max(user_cpu() - cpu - in_samples, 0.0), seconds)
        if span is not None:
            self.tracer.close(span)
        self.reference.edge()
        speed = self.reference.speed_since(first)
        self.timings.append([span_name, seconds, speed, len(self.reference.taken) - first, user])
        return user * speed + seconds - user, result, error

    def call(self, name: str, fn, *args, **kwargs):
        """Time one library call; returns (seconds, result or None)."""
        self.attempted += 1
        seconds, result, error = self._timed("bench." + fn.__name__, lambda: fn(*args, **kwargs))
        if error is not None:
            self.failed_ops += 1
            self.fail(f"{name} raised {type(error).__name__}: {error}")
        return seconds, result

    def cli(self, *argv) -> float:
        """Run one command through tokencover.cli.main; returns its seconds."""
        argv = [str(a) for a in argv]
        outs = [Path(argv[i + 1]) for i, a in enumerate(argv) if a in ("--out", "--curve-out")]
        stdout, stderr = io.StringIO(), io.StringIO()
        self.attempted += 1

        def command():
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                return self.tc.cli.main(argv)

        seconds, code, error = self._timed("cli." + argv[0], command)
        if stderr.getvalue():
            sys.stderr.write(stderr.getvalue())
        if error is not None or code != 0:
            self.failed_ops += 1
            self.fail(f"{argv[0]} writing {outs[0].name if outs else '-'} failed "
                      f"({code if error is None else repr(error)}): {stderr.getvalue().strip()[:300]}")
            return seconds
        self.cli_bytes += len(stdout.getvalue().encode())
        for path in outs:
            data = path.read_bytes()
            self.cli_bytes += len(data)
            self._output(str(path.relative_to(self.root)), hashlib.sha256(data).hexdigest())
        return seconds


def user_cpu() -> float:
    """User-mode CPU seconds of this process and of its children that ended."""
    return sum(resource.getrusage(who).ru_utime
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))


class Reference:
    """A small fixed piece of work whose time tracks the speed of the machine.

    The speed of the machine the benchmark was written on changes by up to
    2x from one tenth of a second to the next, for this work and the
    package's alike (README.md). Each timed operation is scaled by samples
    taken just before it, every SAMPLE_EVERY_S during it (from SIGALRM) and
    just after it. A sample runs its work twice and times only the second
    run, which finds its few kilobytes of data and code in the core's own
    caches. How much memory the package moves therefore does not change the
    time of a sample.
    """

    def __init__(self) -> None:
        import numpy

        self.np = numpy
        self.block = numpy.ones(2048)  # 16 KB
        self.keys = [f"w{i}" for i in range(20)]
        self.taken: list[float] = []  # every sample's time, in order

    def _work(self) -> None:
        table = {}
        for i, key in enumerate(self.keys):
            text = json.dumps(["p", [key, str(i)], "id"])
            table[text[:10]] = hashlib.sha256(text.encode()).digest()[0]
        for _ in range(10):
            self.np.multiply(self.block, 1.0, out=self.block)

    def sample(self) -> None:
        self._work()
        t = time.perf_counter()
        self._work()
        self.taken.append(time.perf_counter() - t)

    def edge(self) -> None:
        for _ in range(EDGE_SAMPLES):
            self.sample()

    def speed_since(self, first: int) -> float:
        """SAMPLE_S over the median of the samples taken since ``first``."""
        return SAMPLE_S / statistics.median(self.taken[first:])


def environment() -> dict:
    import numpy

    cpu = ""
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    src = hashlib.sha256()
    for path in sorted((SRC / "tokencover").rglob("*.py")):
        src.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform(), "git_commit": git_commit(ROOT),
            "source_sha256": src.hexdigest()}


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = root / ".git"
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
    return None


def import_tokencover() -> None:
    """``import tokencover`` in a fresh interpreter."""
    subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r}); "
                    "import tokencover"], check=True)


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def main() -> int:
    ap = argparse.ArgumentParser(description="tokencover benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "tokencover" / "__init__.py").is_file():
        print(f"bench: no tokencover sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tokencover
    import tokencover.cli  # noqa: F401 - the package exposes its modules as attributes

    if Path(tokencover.__file__).resolve().parent != SRC / "tokencover":
        print(f"bench: imported tokencover from {tokencover.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import GROUPS, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    bench = None
    try:
        bench, focus, probes, setups = set_up(args, tokencover, WORKLOADS[args.workload], GROUPS,
                                              work)
        record = measure(args, bench, focus, probes)
        for w in [focus, *probes]:
            if hasattr(w, "finish"):
                w.finish(bench)
        record.update(setups)
        if not args.trace:
            record["metrics"]["setup_s"] = setups["setup_s"]
    finally:
        if bench is not None and bench.stub is not None:
            bench.stub.close()
        shutil.rmtree(work, ignore_errors=True)
    units = declared_metrics(args.trace)
    measured = record.pop("metrics")
    metrics = {name: measured[name] for name in units}
    failed = bench.failed_ops + bench.failed_checks
    record.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(), "metrics": metrics,
        "attempted": bench.attempted, "failed": failed, "checks": bench.checks,
        "error_rate": failed / max(1, bench.attempted), "problems": bench.problems,
        "inputs_sha256": bench.inputs, "outputs_sha256": bench.outputs,
    })
    tracer = record.pop("tracer", None)
    if tracer is not None:
        tracer.dump(OUT / f"{tag}.spans.json.gz")
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": max(1, bench.attempted),
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


def set_up(args, tc, focus_cls, groups, work: Path):
    """Set up SETUP_REPEATS times from scratch and keep the last one.

    One set-up is: import tokencover in a fresh interpreter, write every
    input, start the scorer stub and run one warm-up pass of the measured
    workload at its probe size. Each is scaled like a timed operation, with
    the samples taken around it and in the operations inside it; setup_s is
    the median of the repeats.
    """
    # The other command groups run as probes at a small size.
    probe_classes = [cls for cls in groups if cls is not focus_cls]
    seconds = []
    for rep in range(SETUP_REPEATS):
        gc.unfreeze()  # let the previous set-up's objects be collected
        shutil.rmtree(work, ignore_errors=True)
        bench = Bench(tc, args.seed, work)
        try:
            bench.reference.edge()
            cpu = user_cpu()
            t = time.perf_counter()
            import_tokencover()
            focus, warm_up = focus_cls(focus_cls.full), focus_cls(focus_cls.probe)
            probes = [cls(cls.probe) for cls in probe_classes]
            for w in [focus, warm_up, *probes]:
                w.setup(bench)
            gc.freeze()  # the inputs held by the benchmark stay out of every later collection
            bench.stub = Stub()  # remote_cached runs in every run, as workload or probe
            warm_up.run_pass(bench)
            elapsed = time.perf_counter() - t
            user = min(user_cpu() - cpu, elapsed)
            bench.reference.edge()
        except BaseException:
            if bench.stub is not None:
                bench.stub.close()
            raise
        seconds.append(user * bench.reference.speed_since(0) + elapsed - user)
        if rep < SETUP_REPEATS - 1 and bench.stub is not None:
            bench.stub.close()
    return bench, focus, probes, {"setup_repeats_s": seconds, "setup_s": median(seconds)}


def run_pass(focus, probes, bench: Bench) -> tuple[dict[str, float], dict[str, float], float]:
    """One pass of the workload and every probe: (metrics, layer extras, seconds)."""
    values: dict[str, float] = {}
    layer: dict[str, float] = {}
    seconds = 0.0
    for w in [focus, *probes]:
        p = w.run_pass(bench)
        values.update(w.metrics(p.ops))
        layer.update(p.layer)
        seconds += p.seconds
        if w is focus:
            values["throughput"] = w.units / p.seconds
    return values, layer, seconds


def measure(args, bench: Bench, focus, probes) -> dict:
    """Passes until --seconds are up; each metric is the median over passes."""
    if args.trace:
        return measure_traced(args, bench, focus, probes)
    per_pass: list[dict[str, float]] = []
    deadline = time.perf_counter() + args.seconds
    last = 0.0
    while not per_pass or time.perf_counter() + last < deadline:
        start = time.perf_counter()
        per_pass.append(run_pass(focus, probes, bench)[0])
        last = time.perf_counter() - start
    metrics = {name: median([v[name] for v in per_pass]) for name in per_pass[0]}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"metrics": metrics, "passes": per_pass, "timings": bench.timings}


def measure_traced(args, bench: Bench, focus, probes) -> dict:
    """Alternate untraced and traced passes; per-layer metrics come from the
    traced ones, the tracing overhead from comparing the two."""
    from tracing import Tracer

    tracer = Tracer(bench.tc)
    deadline = time.perf_counter() + args.seconds
    extra = {}
    if focus.name == "calibrate_large":
        extra["scaling"] = focus.scaling(bench.tc)
    plain_s, traced_s, layers = [], [], []
    alloc_pass = True  # the first traced pass only measures calibrate's allocation peak
    last = 0.0
    while not layers or not plain_s or time.perf_counter() + last < deadline:
        start = time.perf_counter()
        if len(plain_s) <= len(layers):
            plain_s.append(run_pass(focus, probes, bench)[2])
            continue
        tracer.run_id += 1
        bench.tracer = tracer
        tracer.install(alloc=alloc_pass)
        mark, bytes_before = tracer.begin_pass(), bench.cli_bytes
        try:
            _, extras, seconds = run_pass(focus, probes, bench)
        finally:
            tracer.uninstall()
            bench.tracer = None
        last = time.perf_counter() - start
        if alloc_pass:
            alloc_pass = False
            continue
        layer = tracer.pass_metrics(mark, bench.cli_bytes - bytes_before)
        layer.update(extras)
        layers.append(layer)
        traced_s.append(seconds)
    metrics = {"calibrate.exact_scaling_exp": extra["scaling"]["slope"] if "scaling" in extra else 0.0,
               "trace.overhead": median(traced_s) / median(plain_s) - 1.0}
    for name in declared_metrics(1):
        if name not in metrics:
            metrics[name] = median([layer[name] for layer in layers])
    extra["self_s"] = tracer.self_times()
    extra["trace_skipped"] = tracer.skipped
    extra.update({"untraced_pass_s": plain_s, "traced_pass_s": traced_s, "passes": layers,
                  "metrics": metrics, "tracer": tracer})
    return extra


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Terminated:
        sys.exit(143)
