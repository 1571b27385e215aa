"""Summarise benchmark runs into one BENCH file, and compare two BENCH files.

    python3 tools/bench_summary.py --records .bench_out --out BENCH_11.json
    python3 tools/bench_summary.py --compare BENCH_10.json BENCH_11.json

The first form reads every ``<workload>-seed<N>-trace0.json`` record that
``bench/run.py --trace 0`` leaves in the records directory and writes, per
workload and end-to-end metric, the median and quartiles over seeds, with
each seed's ``correct`` and ``failed`` and the machine (nproc, CPU, Python,
numpy). It refuses records of different sources (``source_sha256``). The
second form prints each metric's ratio, second file over first, and marks a
move in the worse direction larger than the metric's bound in BENCHMARK.json.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarise(records_dir: Path) -> dict:
    records = [json.loads(p.read_text(encoding="utf-8"))
               for p in sorted(records_dir.glob("*-trace0.json"))]
    if not records:
        raise SystemExit(f"no *-trace0.json records in {records_dir}")
    sources = {r["environment"]["source_sha256"] for r in records}
    if len(sources) != 1:
        raise SystemExit(f"records from {len(sources)} different sources in {records_dir}")
    env = records[0]["environment"]
    workloads: dict[str, dict] = {}
    for r in sorted(records, key=lambda r: (r["workload"], r["seed"])):
        w = workloads.setdefault(r["workload"], {"seeds": {}, "values": {}})
        w["seeds"][str(r["seed"])] = {"correct": r["failed"] == 0, "failed": r["failed"],
                                      "seconds": r["seconds"]}
        for name, value in r["metrics"].items():
            w["values"].setdefault(name, []).append(value)
    for w in workloads.values():
        w["metrics"] = {name: spread(values) for name, values in w.pop("values").items()}
    return {
        "source": {"git_commit": env.get("git_commit"), "source_sha256": sources.pop()},
        "environment": {k: env.get(k) for k in ("nproc", "cpu_model", "python", "numpy")},
        "workloads": workloads,
    }


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 \
        else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1,
            "runs": len(values)}


def compare(a_path: Path, b_path: Path) -> None:
    a, b = (json.loads(p.read_text(encoding="utf-8")) for p in (a_path, b_path))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m for m in spec["end_to_end"]}
    print(f"{'workload':<16} {'metric':<22} {a_path.name:>14} {b_path.name:>14}  ratio")
    for workload in sorted(set(a["workloads"]) & set(b["workloads"])):
        ma, mb = a["workloads"][workload]["metrics"], b["workloads"][workload]["metrics"]
        for name in sorted(set(ma) & set(mb)):
            x, y = ma[name]["median"], mb[name]["median"]
            ratio = y / x if x else float("nan")
            m = declared.get(name)
            flag = ""
            if m is not None and x:
                worse = ratio - 1.0 if m["better"] == "lower" else 1.0 - ratio
                flag = "  WORSE than bound" if worse > m["bound"] else ""
            print(f"{workload:<16} {name:<22} {x:>14.6g} {y:>14.6g}  {ratio:.3f}{flag}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--records", type=Path, default=ROOT / ".bench_out",
                    help="directory of bench/run.py records")
    ap.add_argument("--out", type=Path, help="BENCH file to write")
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = ap.parse_args()
    if args.compare:
        compare(*args.compare)
        return 0
    if args.out is None:
        ap.error("give --out or --compare")
    args.out.write_text(json.dumps(summarise(args.records), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
