#!/usr/bin/env python3
"""Digest of every output semiq gives, for checking that a change leaves
them byte-identical.

    python scripts/output_digest.py --seeds 811 812 > after.tsv

runs the bundled `benchmarks/*.cos` and, for each seed, every program of
the four `perfbench` workloads (run with their own `refute` flag), with the
uexp and spnf dumps on.  It prints one tab-separated line per verify:

    source  verify  status  detail  trace=<sha>  dumps=<sha>  witness=<sha|->  steps  fragment

`steps` comes after the columns that must stay byte-identical because a
pruning change may lower step counts while leaving everything else alone.
It holds `total` and its split by stage (`normalize`, `canonize`,
`search`), which sums to `total`: each stage counts the budget steps it
takes.  Versions that split `steps` by counting trace lines did not sum;
against their digests only `total` compares.  `fragment` (`ucq-bag`,
`ucq-set` or `general`) is last, so that the digests of versions without
it still compare on the first eight columns.  Compare the other columns
with

    diff <(cut -f1-7 before.tsv) <(cut -f1-7 after.tsv)

The workload generators are imported from `perfbench/`, which is only read.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from semiq import run_program_text  # noqa: E402

import workloads  # noqa: E402


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def programs(seeds):
    """(source, program text, refute) for the benchmarks, then each seed's
    workload programs in their seeded order."""
    for path in sorted((ROOT / "benchmarks").glob("*.cos")):
        yield f"benchmarks/{path.name}", path.read_text(), False
    for seed in seeds:
        for name in sorted(workloads.WORKLOADS):
            for i, inst in enumerate(workloads.build(name, seed, ROOT)):
                yield f"{name}/{seed}/{i}:{inst.family}", inst.text, inst.refute


def digest_lines(seeds):
    for source, text, refute in programs(seeds):
        for out in run_program_text(text, refute=refute, dump_uexp=True,
                                    dump_spnf=True):
            dumps = "\n".join(f"{k}: {v}" for k, v in sorted(out.dumps.items()))
            witness = _sha(out.witness.dump()) if out.witness is not None else "-"
            yield "\t".join((source, out.name, out.status, repr(out.detail),
                             f"trace={_sha(out.trace.render())}",
                             f"dumps={_sha(dumps)}", f"witness={witness}",
                             json.dumps(out.steps, sort_keys=True), out.fragment))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=int, nargs="*", default=[],
                    help="perfbench workload seeds (none: benchmarks only)")
    args = ap.parse_args(argv)
    for line in digest_lines(args.seeds):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
