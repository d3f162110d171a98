"""The committed benchmark records as one markdown table.

Reads every BENCH_<pr>.json at the repository root, in PR order, and the
end_to_end metrics of BENCHMARK.json, and summarises each entry's stored
parent/change pairs and null pairs again with scripts/ab.py's own
summarise: the table has no statistics of its own, and every row follows
ab.py's verdict rule of today, whatever rule wrote the record.  One row
per entry (a record's workload and seed): for each metric the parent ->
change medians, the pairs the change won and the verdict; and, where the
entry has a null A/B (the parent against itself), its pair count and the
metrics it did not read within bound.  README.md holds this output
between its bench_table.py markers, and a test keeps the two equal.

Usage, from the repository root: python scripts/bench_table.py
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def ab_module():
    spec = importlib.util.spec_from_file_location("ab", ROOT / "scripts" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def records() -> list[tuple[str, dict]]:
    """(name, record) of each committed BENCH_<pr>.json, in PR order."""
    paths = sorted(ROOT.glob("BENCH_*.json"), key=lambda path: int(path.stem.split("_")[1]))
    return [(path.stem, json.loads(path.read_text())) for path in paths]


def number(value: float) -> str:
    """Four significant digits, trailing zeros kept and no exponent."""
    return f"{value:#.4g}".rstrip(".") if abs(value) < 1e4 else f"{value:.0f}"


def table() -> str:
    ab = ab_module()
    spec = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    lines = [
        "| record | entry | " + " | ".join(f"`{name}`" for name in spec) + " | null A/B |",
        "|---|---|" + "---|" * (len(spec) + 1),
    ]
    for name, record in records():
        for entry_name, stored in record["workloads"].items():
            entry = {"ab": stored["ab"], "null": stored["null"]}
            ab.summarise(entry, spec)
            cells = [
                f"{number(s['parent']['median'])} → {number(s['change']['median'])}, "
                f"{s['change_wins']}/{s['pairs']} {s['verdict']}"
                for s in entry["summary"].values()
            ]
            if entry["null_summary"] is None:
                cells.append("—")
            else:
                off = [f"`{m}` {s['verdict']}" for m, s in entry["null_summary"].items() if s["verdict"] != "within bound"]
                cells.append(f"{len(entry['null'])} pairs, " + (", ".join(off) or "all within bound"))
            lines.append(f"| {name} | {entry_name} | " + " | ".join(cells) + " |")
    return "\n".join(lines)


if __name__ == "__main__":
    print(table())
