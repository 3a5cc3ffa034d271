"""One measured campaign in a fresh interpreter; prints one JSON line.

    python3 bench/child.py MODE CONFIG --workload NAME [--check-seed N]

MODE is one of

* setup   import qharmonic and parse and validate CONFIG, nothing else;
* run     setup, then ``qharmonic.cli.main(["campaign", "--config", CONFIG,
          "--json", REPORT])`` with tracing off, timed from the call until the
          report is on disk; ``--check-seed`` then re-checks a seeded sample
          against the oracle and runs the negative controls, untimed;
* trace   the same campaign with the span tracer installed; the spans are
          written to bench/out/spans-NAME.tsv;
* makeup  the same campaign, recording the largest denominator degree and
          coefficient bit length of every QRat built;
* corpus  build the kernel corpus and time it.

Set-up is timed first, before this script imports anything that qharmonic
would import itself, so it covers the program's whole import.  The fresh
interpreter means the process-global ``functools.cache`` tables start cold.
"""

import os
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")
OUT = os.path.join(BENCH, "out")


def setup(config_path: str):
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    import qharmonic.cli
    from qharmonic.verify import parse_config_text

    with open(config_path, encoding="utf-8") as fh:
        config = parse_config_text(fh.read())
    elapsed = time.perf_counter() - start
    if not os.path.abspath(qharmonic.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"qharmonic was imported from {qharmonic.cli.__file__}, not {SRC}")
    return qharmonic.cli, config, elapsed


def main() -> int:
    if len(sys.argv) < 3:
        raise SystemExit(__doc__)
    cli, config, setup_s = setup(sys.argv[2])

    import argparse
    import json

    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run", "trace", "makeup", "corpus"))
    parser.add_argument("config")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--check-seed", type=int, default=None)
    args = parser.parse_args()
    sys.path.insert(0, BENCH)
    result = {"setup_s": setup_s}
    if args.mode == "corpus":
        import corpus

        result.update(corpus.time_ops(corpus.build()))
    elif args.mode != "setup":
        import measure

        report_path = os.path.join(OUT, f"{args.workload}-{args.mode}-p{config.parallelism}.json")
        if args.mode == "trace":
            import tracer

            spans = tracer.Tracer()
            spans.install()
            result.update(measure.campaign(cli, args.config, report_path))
            result["layers"] = spans.metrics()
            result["layer_self_s"] = spans.layer_self_times()
            spans.write_spans(os.path.join(OUT, f"spans-{args.workload}.tsv"))
        elif args.mode == "makeup":
            result.update(measure.campaign_with_makeup(cli, args.config, report_path))
        else:
            result.update(measure.campaign(cli, args.config, report_path))
        records = result.pop("records")
        if args.check_seed is not None:
            import workloads

            result["checks"] = workloads.run_checks(args.workload, records, args.check_seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
