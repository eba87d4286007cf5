/**
 * @file
 * mlpbench: the measuring half of perfbench (run.py builds it, runs
 * it and adds the thread-count samples). One invocation runs one
 * workload and prints, as its last stdout line, one JSON object:
 *
 *   {"correct": bool, "attempted": N, "failed": N,
 *    "metrics": {"<name>": {"value": x, "unit": "u"}, ...}}
 *
 * Flags (--name=value):
 *   --workload   epoch-sweep | cyclesim-stream | daemon-mix
 *   --seed       workload seed (0 = the paper benches' trace seeds)
 *   --seconds    measured time; whole rounds run until it is reached
 *   --trace      0: end-to-end metrics; 1: traced run, per-layer metrics
 *   --smoke      tiny inputs, one round (the benchmark's own test)
 *   --out-dir    directory for span files and daemon caches
 *   --probe      time the host-speed probe loops and exit
 */
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <vector>

#include "bench_support.hh"
#include "util/options.hh"

using namespace perfbench;

namespace {

/**
 * Host-speed probe: a loop over a 32 KB (L1-resident) array with four
 * independent multiply chains, which slows when another tenant shares
 * the core, and a dependent random walk over 128 MB, which slows with
 * memory contention. Each is a fixed amount of work. Context for
 * reading a slow run, not a metric.
 */
void
hostProbe()
{
    std::vector<uint32_t> small(8192);
    std::iota(small.begin(), small.end(), 1u);
    double t0 = nowSeconds();
    uint32_t lanes[4] = {1, 2, 3, 4};
    for (int pass = 0; pass < 20000; ++pass) {
        for (size_t i = 0; i < small.size(); i += 4) {
            for (int l = 0; l < 4; ++l)
                lanes[l] = lanes[l] * 2654435761u + small[i + l];
        }
    }
    const uint32_t acc = lanes[0] ^ lanes[1] ^ lanes[2] ^ lanes[3];
    const double cache_s = nowSeconds() - t0;

    // A full-period LCG (Hull-Dobell: c odd, a = 1 mod 4) as the
    // successor table: one cycle through all 128 MB, built by a
    // sequential fill instead of a slow random shuffle.
    const uint32_t mask = (uint32_t(128) << 20) / sizeof(uint32_t) - 1;
    std::vector<uint32_t> next(size_t(mask) + 1);
    for (uint32_t i = 0; i <= mask; ++i)
        next[i] = (i * 1664525u + 1013904223u) & mask;
    t0 = nowSeconds();
    uint32_t at = 0;
    for (int step = 0; step < 4'000'000; ++step)
        at = next[at];
    const double dram_s = nowSeconds() - t0;

    std::printf("{\"cache_loop_s\": %.6f, \"dram_random_s\": %.6f, "
                "\"checksum\": %u}\n",
                cache_s, dram_s, acc ^ at);
}

} // namespace

int
main(int argc, char **argv)
{
    mlpsim::Options opts(argc, argv);
    opts.rejectUnknown({"workload", "seed", "seconds", "trace", "smoke",
                        "out-dir", "probe"});
    if (opts.has("probe")) {
        hostProbe();
        return 0;
    }

    RunOptions run;
    run.workload = opts.getString("workload", "");
    run.seed = opts.getU64("seed", 0);
    run.seconds = opts.getDouble("seconds", 10.0);
    run.trace = opts.getU64("trace", 0) != 0;
    run.smoke = opts.has("smoke");
    run.outDir = opts.getString("out-dir", ".bench_out");
    run.binDir =
        std::filesystem::canonical("/proc/self/exe").parent_path().string();
    std::filesystem::create_directories(run.outDir);

    Report report;
    int rc = 0;
    if (run.workload == "epoch-sweep") {
        rc = runEpochSweep(run, report);
    } else if (run.workload == "cyclesim-stream") {
        rc = runCycleSimStream(run, report);
    } else if (run.workload == "daemon-mix") {
        rc = runDaemonMix(run, report);
    } else {
        std::fprintf(stderr,
                     "mlpbench: unknown --workload '%s' (expected "
                     "epoch-sweep, cyclesim-stream or daemon-mix)\n",
                     run.workload.c_str());
        return 2;
    }
    if (rc != 0)
        return rc;

    for (const std::string &note : report.notes)
        std::fprintf(stderr, "mlpbench: %s\n", note.c_str());
    for (const std::string &failure : report.checkFailures)
        std::fprintf(stderr, "mlpbench: CHECK FAILED: %s\n",
                     failure.c_str());

    JsonValue metrics = JsonValue::object();
    for (const auto &[name, value_unit] : report.metrics) {
        JsonValue m = JsonValue::object();
        m.set("value", value_unit.first);
        m.set("unit", value_unit.second);
        metrics.set(name, std::move(m));
    }
    JsonValue doc = JsonValue::object();
    doc.set("correct", report.checkFailures.empty());
    doc.set("attempted", report.attempted);
    doc.set("failed", report.failed);
    doc.set("metrics", std::move(metrics));
    std::printf("%s\n", doc.dump(0).c_str());
    return report.checkFailures.empty() ? 0 : 1;
}
