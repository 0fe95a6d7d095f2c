"""Drive the benchmark harness from Python: mix builtin, generated, and
ranged instance specs, then render both output formats."""
from jobshopls.bench import BenchmarkConfig, run_benchmark

# one config object describes the whole sweep; "gen:JxMxCOUNTxSEED" expands
# to freshly generated instances, "ta01-ta03" to the bundled range
config = BenchmarkConfig(
    method="vns",
    instances=("ta01-ta03", "gen:6x6x3x11"),
    iterations=100,
    seed=0,
    format="table",
    jobs=2,
)
result = run_benchmark(config)
print(result.table())

print("same rows as csv:\n")
print(result.csv())

print("per-size mean gaps (groups without reference values are skipped):")
for group, gap in result.group_means().items():
    print(f"  {group}: {100 * gap:.2f}%")
