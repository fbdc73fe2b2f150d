#!/usr/bin/env python3
"""Regenerate the golden solver scripts under tests/data/.

    python scripts/capture_queries.py [--oracle-seed N] [--out DIR]

Records every formula that reaches `smt.check_sat` while

  corpus_queries.json   `coreach prove FILE --solver builtin` runs on each
                        systems/*.lrw (in-process, one after another), and
  oracle_queries.json   one pass of the benchmark's oracle workload
                        (`perfbench/worker.py`, seed `--oracle-seed`)

run, as the SMT-LIB script `smt.encode` writes for it.  Each distinct script
is then replayed with a `(get-model)` after its `(check-sat)`; the files keep
the scripts in first-sent order with the verdict and the `(get-model)` line
the bundled solver answered (`null` unless the verdict is sat).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import coreach.prover
import coreach.rewriting
import coreach.smt
from coreach import cli
from coreach.errors import NonBuiltinResidue
from coreach.minismt import run_script
from coreach.specfile import parse_spec

TIMEOUT_MS = 60_000
# every module that binds check_sat by name, so that no call goes unseen
CHECK_SAT_BINDINGS = (coreach.smt, coreach.prover, coreach.rewriting)


@contextlib.contextmanager
def recording(scripts: list[str]):
    """Append the encoded script of every check_sat call to `scripts`."""
    real = coreach.smt.check_sat

    def check_sat(sig, f, cfg):
        with contextlib.suppress(NonBuiltinResidue):  # unencodable: check_sat answers unknown, sends nothing
            scripts.append(coreach.smt.encode(sig, f))
        return real(sig, f, cfg)

    for mod in CHECK_SAT_BINDINGS:
        mod.check_sat = check_sat
    try:
        yield
    finally:
        for mod in CHECK_SAT_BINDINGS:
            mod.check_sat = real


def corpus_scripts() -> list[str]:
    scripts: list[str] = []
    with recording(scripts), contextlib.redirect_stdout(io.StringIO()):
        for path in sorted((ROOT / "systems").glob("*.lrw")):
            cli.main(["prove", str(path), "--solver", "builtin", "--timeout-ms", str(TIMEOUT_MS)])
    return scripts


def oracle_scripts(seed: int) -> list[str]:
    import worker

    specs = {p.stem: parse_spec(p.read_text(encoding="utf-8")) for p in sorted((ROOT / "systems").glob("*.lrw"))}
    scripts: list[str] = []
    with recording(scripts):
        for _job_id, kind, name, payload in worker.oracle_jobs(specs, seed):
            worker.run_oracle_job(kind, name, specs[name], payload)
    return scripts


def golden(scripts: list[str]) -> list[dict]:
    out = []
    for script in dict.fromkeys(scripts):
        answer = run_script(script + "(get-model)\n", TIMEOUT_MS / 1000.0)
        out.append({"script": script, "verdict": answer[0], "model": answer[1] if answer[0] == "sat" else None})
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--oracle-seed", type=int, default=1)
    ap.add_argument("--out", type=Path, default=ROOT / "tests" / "data")
    args = ap.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    for name, scripts in (
        ("corpus_queries.json", corpus_scripts()),
        ("oracle_queries.json", oracle_scripts(args.oracle_seed)),
    ):
        data = golden(scripts)
        (args.out / name).write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
        print(f"{name}: {len(scripts)} queries, {len(data)} distinct")
    return 0


if __name__ == "__main__":
    sys.exit(main())
