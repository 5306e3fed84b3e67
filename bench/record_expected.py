"""Print the expected outputs that the benchmark checks against, as JSON.

    python3 bench/record_expected.py > bench/expected.json

Run it on the commit whose outputs are the reference; every later run of the
benchmark compares against the file it wrote.  Each search output is kept as
a count and a sha256, each verify population as its verdicts, each canonical
form as a sha256, and each CLI output as its byte count and sha256.
"""

from __future__ import annotations

import hashlib
import io as stdio
import json
import sys

import workloads as W


def _cli(gf, argv) -> dict:
    out = stdio.StringIO()
    code = gf["cli"].run(argv, out=out, err=stdio.StringIO())
    if code != 0:
        raise SystemExit(f"{argv} exited {code}")
    data = out.getvalue().encode()
    return {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}


def main() -> int:
    gf = W.import_program()
    M = gf["magma"]
    overflow = gf["SizeOverflowError"]

    search = {}
    for name, call in W.search_calls(gf).items():
        try:
            search[name] = W.output_record(call())
        except overflow:
            search[name] = {"outcome": "SizeOverflowError", "seed_outcome": "SizeOverflowError"}
        except RecursionError:
            # The only documented outcome is SizeOverflowError; the crash is
            # kept on record and counts as a failed operation.
            search[name] = {"outcome": "SizeOverflowError", "seed_outcome": "RecursionError"}

    verify = {}
    for name, algebra, families in W.verify_families(gf, 0):
        if name.startswith("fails."):
            continue
        verdicts = [
            tuple(getattr(gf["algebra"], pred)(algebra, f).holds for pred in W.PREDICATES)
            for f in families
        ]
        verify[name] = {"count": len(families), "verdicts": W.encode_verdicts(verdicts)}

    canon = {
        "pool": {
            str(order): [
                W.digest(M.canonical_form(M.validate_magma(order, W.pool_table(order, i))))
                for i in range(W.CANON_POOL)
            ]
            for order in (7, 8)
        },
        "group": {
            name: W.digest(M.canonical_form(M.abelian_group_magma(factors)))
            for name, factors in W.GROUP_TABLES.items()
        },
        "census3": W.output_record(M.census(3)),
    }

    fixture = W.FILTERS_FIXTURE
    families_cli = {
        "json": _cli(gf, ["filters", fixture, fixture, "--json"]),
        "text": _cli(gf, ["filters", fixture, fixture]),
        "startup": _cli(gf, ["count", "surjections", "3", "2"]),
    }

    json.dump(
        {"search": search, "verify": verify, "canon": canon, "families_cli": families_cli},
        sys.stdout,
        indent=1,
        sort_keys=True,
    )
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
