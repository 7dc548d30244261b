#!/usr/bin/env python3
"""Field-level diff of two RunReport JSON files.

Flattens both reports to leaf paths and prints every path whose value
differs, with the old and the new value. Lists whose items all carry a
distinct "name" (the metric snapshots) are keyed by that name, so a
counter keeps its path when another metric is added or removed; other
lists are keyed by index.

Usage: report_diff.py OLD.json NEW.json
Exit status: 0 when the reports agree on every leaf, 1 when any differs,
2 on a usage error.
"""
import json
import sys

ABSENT = "<absent>"


def flatten(node, path, out):
    if isinstance(node, dict):
        for key, value in node.items():
            flatten(value, f"{path}.{key}" if path else key, out)
    elif isinstance(node, list):
        names = [item.get("name") if isinstance(item, dict) else None
                 for item in node]
        keyed = None not in names and len(set(names)) == len(names)
        for i, item in enumerate(node):
            flatten(item, f"{path}[{names[i] if keyed else i}]", out)
    else:
        out[path] = node
    return out


def show(value):
    return value if value is ABSENT else json.dumps(value)


def main(argv):
    if len(argv) != 3:
        print("usage: report_diff.py OLD.json NEW.json", file=sys.stderr)
        return 2
    old, new = (flatten(json.load(open(p)), "", {}) for p in argv[1:])
    differs = False
    for path in sorted(old.keys() | new.keys()):
        a, b = old.get(path, ABSENT), new.get(path, ABSENT)
        if a != b or type(a) is not type(b):
            print(f"{path}: {show(a)} -> {show(b)}")
            differs = True
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
