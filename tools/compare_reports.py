"""Compare two ``lorlab <command> --out`` JSON reports value by value.

    python3 tools/compare_reports.py before.json after.json
    python3 tools/compare_reports.py before_dir/ after_dir/   # same-named *.json

Every leaf of the two reports is matched by its path (``records[3].checks
[0].value``); ``wall_time_s`` is ignored.  Each number that moved is
printed with its absolute and relative change, followed by the largest
of each per report.  A pass/fail flag (a boolean leaf) that differs is
printed as FLIPPED.  Exits 0 when no flag differs, 1 when one does, and
2 when the reports do not have the same leaves or cannot be read.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

IGNORED = {"wall_time_s"}


def leaves(obj, path=""):
    """(path, value) for every leaf of a parsed JSON report."""
    if isinstance(obj, dict):
        for key, val in obj.items():
            if key not in IGNORED:
                yield from leaves(val, f"{path}.{key}" if path else key)
    elif isinstance(obj, list):
        for i, val in enumerate(obj):
            yield from leaves(val, f"{path}[{i}]")
    else:
        yield path, obj


def _number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def compare(before: dict, after: dict, name: str) -> int:
    """Print the changes from before to after; return the exit status."""
    a, b = dict(leaves(before)), dict(leaves(after))
    if a.keys() != b.keys():
        only = sorted(a.keys() ^ b.keys())
        print(f"{name}: the reports have different leaves, e.g. {only[:5]}")
        return 2
    status, moved, worst_abs, worst_rel = 0, 0, (0.0, ""), (0.0, "")
    for path, va in a.items():
        vb = b[path]
        if isinstance(va, bool) or isinstance(vb, bool):
            if va != vb:
                print(f"{name}: {path} FLIPPED {va} -> {vb}")
                status = 1
        elif _number(va) and _number(vb):
            if va == vb or (math.isnan(va) and math.isnan(vb)):
                continue
            diff = abs(vb - va)
            rel = diff / abs(va) if va else math.inf
            moved += 1
            print(f"{name}: {path} {va!r} -> {vb!r}  abs {diff:.3g}  "
                  f"rel {rel:.3g}")
            worst_abs = max(worst_abs, (diff, path))
            worst_rel = max(worst_rel, (rel, path))
        elif va != vb:
            print(f"{name}: {path} {va!r} -> {vb!r}")
    print(f"{name}: {moved} of {len(a)} values moved; largest abs change "
          f"{worst_abs[0]:.3g} ({worst_abs[1] or '-'}), largest rel change "
          f"{worst_rel[0]:.3g} ({worst_rel[1] or '-'})")
    return status


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    first, second = map(Path, argv)
    if first.is_dir() and second.is_dir():
        pairs = [(p, second / p.name) for p in sorted(first.glob("*.json"))
                 if (second / p.name).exists()]
        if not pairs:
            print(f"no report of {first} has a namesake in {second}")
            return 2
    else:
        pairs = [(first, second)]
    status = 0
    for p, q in pairs:
        try:
            before, after = (json.loads(f.read_text()) for f in (p, q))
        except (OSError, ValueError) as exc:
            print(f"{p.name}: cannot read: {exc}")
            status = max(status, 2)
            continue
        status = max(status, compare(before, after, p.name))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
