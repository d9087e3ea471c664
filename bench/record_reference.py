"""Record reference.json: the expected result of every benchmark op.

    python3 bench/record_reference.py

Ops without a plan file keep the sha256 of their stdout.  Ops on a plan
file keep the exit code and verdicts on the unrelabelled source plan, to
which every seeded relabelling must give the same answers.  Record it
only from a commit whose output is known to be right.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import run
import workloads as wl


def main():
    sys.path.insert(0, str(run.SRC))
    digests, verdicts = {}, {}
    with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".bench-tmp-") as tmp_name:
        tmp = Path(tmp_name)
        wl.write_plan_files(tmp, seed=None)
        for ops in wl.WORKLOADS.values():
            for op in ops:
                rc, out, _, _ = run.spawn(run.cli_argv(op, tmp), tmp / "op.err")
                if "plan" in op:
                    verdicts[wl.op_id(op)] = {"rc": rc,
                                              "verdicts": wl.verdicts(op, json.loads(out))}
                elif rc == 0:
                    digests[wl.op_id(op)] = hashlib.sha256(out).hexdigest()
                else:
                    sys.exit(f"{wl.op_id(op)} exited {rc}; nothing recorded")
    doc = {"digests": digests, "verdicts": verdicts}
    wl.REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {wl.REFERENCE}: {len(digests)} digests, {len(verdicts)} verdict sets")


if __name__ == "__main__":
    main()
