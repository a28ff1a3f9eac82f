"""Compare two sets of benchmark results, or record a set as a baseline entry.

    python3 rankbench/compare.py BEFORE AFTER
    python3 rankbench/compare.py --record LABEL RESULT_FILE...

BEFORE and AFTER are each a directory of result files written by run.py,
or rankbench/baseline.json (its last entry; ``baseline.json:LABEL`` picks
one by label).  Only untraced results are compared.  Results from
different backends or core counts are not comparable: the comparison is
refused with exit code 3.

For every workload and end-to-end metric the report gives each side's
median and quartiles, the change as a share of the before median
(positive means worse) and the metric's bound from BENCHMARK.json.  The
verdict is ``worse`` when the change exceeds the bound, ``unresolved``
when the before side's own quartile spread is wider than the bound and
not every after run beats every before run, and ``ok`` otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BASELINE = HERE / "baseline.json"
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
ENV_MUST_MATCH = ("backend", "nproc")


def load_results(paths) -> list[dict]:
    records = []
    for path in map(Path, paths):
        files = sorted(path.glob("*.json")) if path.is_dir() else [path]
        for f in files:
            record = json.loads(f.read_text())
            if "result" in record and not record["env"]["trace"]:
                records.append(record)
    return records


def group(records) -> tuple[list[dict], dict]:
    """(environments, {workload: {metric: [values]}}) of untraced result records."""
    values: dict = {}
    for r in records:
        per = values.setdefault(r["workload"], {})
        for name, m in r["result"]["metrics"].items():
            per.setdefault(name, []).append(m["value"])
    return [r["env"] for r in records], values


def load_side(arg: str) -> tuple[list[dict], dict]:
    path, _, label = arg.partition(":")
    if Path(path).name == BASELINE.name:
        entries = json.loads(Path(path).read_text())["entries"]
        chosen = [e for e in entries if not label or e["label"] == label]
        if not chosen:
            raise SystemExit(f"no baseline entry labelled {label!r}")
        entry = chosen[-1]
        return [entry["env"]], entry["workloads"]
    records = load_results([path])
    if not records:
        raise SystemExit(f"no untraced result files in {path}")
    return group(records)


def summary(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def check_env(before, after) -> list[str]:
    problems = []
    for key in ENV_MUST_MATCH:
        seen = {json.dumps(env.get(key)) for env in before + after}
        if len(seen) > 1:
            problems.append(f"{key} differs: {', '.join(sorted(seen))}")
    return problems


def compare(before: dict, after: dict) -> list[str]:
    lines = [f"{'workload':<14} {'metric':<18} {'before median [q1, q3]':<35}"
             f" {'after median [q1, q3]':<35} {'change':>8} {'bound':>6}  verdict"]
    for workload in sorted(set(before) & set(after)):
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            b, a = before[workload].get(name), after[workload].get(name)
            if not b or not a:
                continue
            bq1, bmed, bq3 = summary(b)
            aq1, amed, aq3 = summary(a)
            sign = 1 if metric["better"] == "lower" else -1
            change = sign * (amed - bmed) / bmed
            spread = (bq3 - bq1) / bmed
            all_better = (max(a) < min(b)) if sign > 0 else (min(a) > max(b))
            if spread > metric["bound"] and not all_better:
                verdict = "unresolved"
            elif change > metric["bound"]:
                verdict = "worse"
            else:
                verdict = "ok"
            before_cell = f"{bmed:.6g} [{bq1:.6g}, {bq3:.6g}]"
            after_cell = f"{amed:.6g} [{aq1:.6g}, {aq3:.6g}]"
            lines.append(
                f"{workload:<14} {name:<18} {before_cell:<35} {after_cell:<35}"
                f" {change:>+8.3f} {metric['bound']:>6}  {verdict}"
            )
    return lines


def record(label: str, paths) -> None:
    records = load_results(paths)
    if not records:
        raise SystemExit("no untraced result files given")
    envs, values = group(records)
    problems = check_env(envs, [])
    if problems:
        raise SystemExit("results disagree on the environment: " + "; ".join(problems))
    env = {k: v for k, v in envs[0].items() if k not in ("seed", "trace", "commit")}
    env["commits"] = sorted({e["commit"] for e in envs})
    doc = json.loads(BASELINE.read_text()) if BASELINE.exists() else {"entries": []}
    doc["entries"].append({
        "label": label,
        "env": env,
        "seeds": {w: sorted(r["env"]["seed"] for r in records if r["workload"] == w)
                  for w in values},
        "workloads": values,
    })
    BASELINE.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"recorded {len(records)} results as {label!r} in {BASELINE}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", metavar="LABEL", help="append the given results to baseline.json")
    parser.add_argument("paths", nargs="+")
    args = parser.parse_args(argv)
    if args.record:
        record(args.record, args.paths)
        return 0
    if len(args.paths) != 2:
        parser.error("give BEFORE and AFTER")
    env_before, before = load_side(args.paths[0])
    env_after, after = load_side(args.paths[1])
    problems = check_env(env_before, env_after)
    if problems:
        print("refusing to compare: " + "; ".join(problems), file=sys.stderr)
        return 3
    print("\n".join(compare(before, after)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
