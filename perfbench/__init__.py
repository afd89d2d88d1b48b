"""fedtrap's benchmark: seeded inputs, timed workloads and traced per-module timings.

Run it from the repository root with
`python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>`.
"""
