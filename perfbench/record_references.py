#!/usr/bin/env python3
"""Records the headline statistics the benchmark checks results against.

Run from the repository root after building the benchmark:

    cargo build --release --manifest-path perfbench/Cargo.toml
    python3 perfbench/record_references.py <path to emgrid-perfbench>

It runs one untraced iteration per workload and job seed and rewrites
perfbench/references.json. Re-record only when a change is meant to move
results, and say why in the change's notes.
"""

import json
import subprocess
import sys

SEEDS = 16  # job seeds 1..16; --seed s runs job seed s % 16 + 1


def docs(binary, workload, seed):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--print-reference"],
        check=True, capture_output=True, text=True,
    ).stdout.strip().splitlines()[-1]
    return json.loads(out)["docs"]


def main():
    binary = sys.argv[1]
    refs = {"analyze_pg1": {}, "topk_pg100k": {}, "fea_fig07": {}, "sweep_fig08": {}}
    for seed in range(SEEDS):
        key = str(seed % SEEDS + 1)
        for workload in ("analyze_pg1", "topk_pg100k"):
            refs[workload][key] = docs(binary, workload, seed)[0]["ttf_median_years"]
        report = docs(binary, "sweep_fig08", seed)[0]
        refs["sweep_fig08"][key] = [
            e["result"]["ttf_median_years"] for e in report["entries"]
        ]
        print(f"job seed {key} recorded", file=sys.stderr)
    for doc in docs(binary, "fea_fig07", 0):
        refs["fea_fig07"][doc["array"]] = doc["per_via_stress_mpa"]
    with open("perfbench/references.json", "w") as f:
        json.dump(refs, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
