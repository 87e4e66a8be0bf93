#!/usr/bin/env python3
"""Validate `ldx analyze` output against schemas/sdep_schema.json.

Usage:
    check_sdep_output.py --json sdep.json [--dot sdep.dot]

Stdlib-only: validates with the JSON-Schema subset in schema_subset.py.
On top of the schema, it asserts cross-references the schema cannot express: the site and
reachability tables cover the same (func, site) keys, every sink refers
to a listed syscall site, and at least one site reaches another. The
optional --dot check is structural: a non-empty digraph with edges.
"""

import argparse
import json
import sys
from pathlib import Path

from schema_subset import Invalid, fail, validate

SCHEMA_PATH = Path(__file__).resolve().parent.parent / "schemas" / "sdep_schema.json"


def check_analysis(doc, defs):
    validate(doc, defs["analysis"], defs, "analysis")
    site_keys = {(s["func"], s["site"]) for s in doc["sites"]}
    if len(site_keys) != len(doc["sites"]):
        fail("sites", "duplicate (func, site) entries")
    reach_keys = {(r["func"], r["site"]) for r in doc["reachability"]}
    if site_keys != reach_keys:
        fail(
            "reachability",
            f"site/reachability key mismatch: "
            f"only-in-sites={sorted(site_keys - reach_keys)} "
            f"only-in-reachability={sorted(reach_keys - site_keys)}",
        )
    for i, r in enumerate(doc["reachability"]):
        for sink in r["sinks"]:
            key = (sink["func"], sink["site"])
            if key not in site_keys:
                fail(f"reachability[{i}]", f"sink {key} is not a listed site")
    if not any(len(r["sinks"]) > 1 for r in doc["reachability"]):
        fail("reachability", "no site reaches any other site — empty analysis?")
    print(
        f"analysis ok: {doc['program']!r}, {doc['functions']} functions, "
        f"{doc['nodes']} nodes, {doc['edges']} edges, "
        f"{len(doc['sites'])} syscall sites"
    )


def check_dot(text):
    if not text.startswith("digraph"):
        fail("dot", "does not start with 'digraph'")
    if not text.rstrip().endswith("}"):
        fail("dot", "does not end with '}'")
    edges = sum("->" in line for line in text.splitlines())
    if edges == 0:
        fail("dot", "no edges")
    print(f"dot ok: {edges} edge lines")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", type=Path, help="ldx analyze JSON output")
    parser.add_argument("--dot", type=Path, help="ldx analyze DOT output")
    args = parser.parse_args()
    if not args.json and not args.dot:
        parser.error("nothing to check: pass --json and/or --dot")

    defs = json.loads(SCHEMA_PATH.read_text())["definitions"]
    try:
        if args.json:
            check_analysis(json.loads(args.json.read_text()), defs)
        if args.dot:
            check_dot(args.dot.read_text())
    except Invalid as err:
        print(f"FAIL {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
