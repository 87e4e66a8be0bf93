#!/usr/bin/env python3
"""Validate `ldx explain` reports against schemas/explain_schema.json.

Usage:
    check_explain_output.py explain_out/            # a directory of explain_*.json
    check_explain_output.py report.json [more.json] # individual files

Stdlib-only: validates with the JSON-Schema subset in schema_subset.py.
On top of the schema it asserts semantics the schema
cannot express: every chain's source_index names a source the report
marks causal, a chain's sink always carries a syscall name, and a
statically-independent source is never causal (the sdep soundness
contract surfaced through explain).
"""

import json
import sys
from pathlib import Path

from schema_subset import Invalid, fail, validate

SCHEMA_PATH = Path(__file__).resolve().parent.parent / "schemas" / "explain_schema.json"


def check_report(report, schema, defs, label):
    validate(report, schema, defs, label)
    causal = {s["index"] for s in report["sources"] if s["causal"]}
    for i, chain in enumerate(report["chains"]):
        where = f"{label}.chains[{i}]"
        if chain["source_index"] not in causal:
            fail(where, "chain for a source the report does not mark causal")
        if not chain["sink"]["sys"]:
            fail(where, "chain sink without a syscall name")
    for s in report["sources"]:
        if s["statically_independent"] and s["causal"]:
            fail(
                f"{label}.sources[{s['index']}]",
                "statically independent source marked causal "
                "(sdep soundness violation)",
            )
    return len(report["chains"]), len(causal)


def main():
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    files = []
    for arg in sys.argv[1:]:
        p = Path(arg)
        if p.is_dir():
            files.extend(sorted(p.glob("explain_*.json")))
        else:
            files.append(p)
    if not files:
        print("FAIL no explain_*.json files found", file=sys.stderr)
        return 1

    schema = json.loads(SCHEMA_PATH.read_text())
    defs = schema["definitions"]
    chains = causal = 0
    try:
        for f in files:
            c, s = check_report(json.loads(f.read_text()), schema, defs, f.name)
            chains += c
            causal += s
    except Invalid as err:
        print(f"FAIL {err}", file=sys.stderr)
        return 1
    print(
        f"explain ok: {len(files)} reports, {causal} causal sources, "
        f"{chains} provenance chains"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
