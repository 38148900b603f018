#!/usr/bin/env python3
"""Describe the generated workloads: sizes, modification ratios, and how
much smaller each package is than the best whole-artifact baseline.

    python3 bench/describe.py --seed 1

Prints one markdown table per workload. The baselines are B1 (whole
tree), B2 (the application subtree) and B3 (changed files only), from
``satpatch.linksim.baseline_sizes``; the reduction is the paper's figure,
``1 - package / min(B1, B2, B3)``.
"""

from __future__ import annotations

import argparse
from collections import Counter

import gen
from run import import_program

#: Application subtree used for baseline B2.
APP_PREFIX = {"binary-flips": "models", "text-churn": "src", "app-releases": "app"}


def describe(workload: str, seed: int) -> list[str]:
    from satpatch.diffgen import compare_trees
    from satpatch.fstree import FileTree
    from satpatch.linksim import baseline_sizes, modification_ratio
    from satpatch.package import encode_package

    chain = gen.WORKLOADS[workload](seed)
    trees = [FileTree.from_dict(f"v{i}", v.mapping()) for i, v in enumerate(chain.versions)]
    v0 = chain.versions[0]
    lines = [
        f"**{workload}**, seed {seed}: v0 has {len(v0.files)} files, {len(v0.dirs)} "
        f"directories, {sum(map(len, v0.files.values())):,} bytes.",
        "",
    ]
    for path in sorted(chain.line_edits[1] if chain.line_edits else ()):
        text = v0.files[path].splitlines()
        counts = Counter(text)
        repeated = sum(1 for line in text if counts[line] > 1)
        edits = ", ".join(str(step[path]) for step in chain.line_edits[1:])
        lines.append(
            f"- `{path}`: {len(text):,} lines, {repeated / len(text):.1%} of them "
            f"repeated; line edits made for v1..v{len(chain.line_edits) - 1}: {edits}"
        )
    if chain.line_edits:
        lines.append("")
    lines += [
        "| update | base | fails | mod. ratio | package B | B1 B | B2 B | B3 B | smaller than best baseline |",
        "| --- | --- | --- | --- | --- | --- | --- | --- | --- |",
    ]
    for base, target, fails in gen.schedule():
        changeset = compare_trees(trees[base], trees[target])
        size = len(encode_package(changeset))
        ratio = modification_ratio(trees[base], trees[target]).ratio
        b = baseline_sizes(trees[base], trees[target], changeset, APP_PREFIX[workload])
        best = min(b.b1_bytes, b.b2_bytes, b.b3_bytes)
        lines.append(
            f"| {target} | v{base} | {'yes' if fails else 'no'} | {float(ratio):.4f} | "
            f"{size:,} | {b.b1_bytes:,} | {b.b2_bytes:,} | {b.b3_bytes:,} | "
            f"{100 * (1 - size / best):.2f}% |"
        )
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    import_program()
    for workload in gen.WORKLOADS:
        print("\n".join(describe(workload, args.seed)))
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
