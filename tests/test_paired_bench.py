import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
from paired_bench import parse_args  # noqa: E402


def test_repeated_flags_accumulate():
    args = parse_args(["HEAD", "--workload", "tracking", "--workload", "ur5-random", "kuka-random",
                       "--seeds", "7", "--seeds", "13"])
    assert args.workload == ["tracking", "ur5-random", "kuka-random"]
    assert args.seeds == [7, 13]


def test_seeds_default_to_7_only():
    assert parse_args(["HEAD", "--workload", "tracking"]).seeds == [7]
    assert parse_args(["HEAD", "--workload", "tracking", "--seeds", "13"]).seeds == [13]
