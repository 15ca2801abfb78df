"""Success rates and solve times over random reachable queries.

Generates FK-reachable poses with a seeded generator and compares the
combined solver against sweep-capped plain FABRIK across both robots.
Pass a query count as the first argument (default 1000; 10000 matches
the full-scale comparison).
"""
import os
import sys

from fabrik_sqp import benchmark as bm
from fabrik_sqp import robots

OUT_DIR = os.path.join(os.path.dirname(__file__), "output")

MODES = {
    "ur5": ["combined:5", "combined:15", "fabrik:100", "fabrik:500", "fabrik:900"],
    "kuka": ["combined:5", "combined:15", "fabrik:100", "fabrik:500", "fabrik:900"],
}


def main():
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 1000
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 7
    os.makedirs(OUT_DIR, exist_ok=True)
    print(f"{n} random queries per robot, seed {seed}, eps_tol 1e-6\n")
    header = f"{'robot':6s} {'mode':13s} {'succ %':>8s} {'avg ms':>9s} {'max ms':>9s}"
    print(header)
    print("-" * len(header))
    for name in ("ur5", "kuka"):
        model = robots.get_model(name)
        queries = bm.generate_queries(model, n, seed)
        reports = bm.run_benchmark(model, queries, [bm.parse_mode(m) for m in MODES[name]])
        for report in reports:
            tag = report.mode.label.replace(":", "_")
            bm.export_report_csv(report, os.path.join(OUT_DIR, f"bench_{name}_{tag}.csv"))
            bm.export_summary_json(report, os.path.join(OUT_DIR, f"bench_{name}_{tag}.json"))
            print(
                f"{name:6s} {report.mode.label:13s} {100 * report.success_rate:8.2f} "
                f"{1000 * report.avg_time:9.3f} {1000 * report.max_time:9.3f}"
            )
        print()
    print(f"per-query CSVs and summaries in {OUT_DIR}")


if __name__ == "__main__":
    main()
