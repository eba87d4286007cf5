/**
 * @file
 * Golden-result regression gate for the simulators.
 *
 * Runs a small fixed sweep — every commercial workload under issue
 * configs A..E plus the runahead, value-prediction and store-buffer
 * variants — and serialises every numeric field of each MlpResult
 * (epochs, access tallies, inhibitor taxonomy, accesses-per-epoch
 * histogram) into one canonical JSON document. The committed copy in
 * data/golden_results.json is the reference; the golden_results ctest
 * re-runs the sweep and fails on any drift, which is what lets the
 * engine internals be rewritten while proving results stay
 * bit-identical.
 *
 * Usage:
 *   golden_check --check FILE   # compare a fresh sweep against FILE
 *   golden_check --write FILE   # (re)generate FILE
 *
 * With --cyclesim the sweep is the cycle-accurate pipeline's instead
 * (data/golden_cyclesim.json, the golden_cyclesim ctest): every
 * commercial workload under issue configs A..C at 200 and 1000 cycles
 * of miss penalty, plus one perfect-L2 cell, with every
 * CycleSimResult field.
 *
 * Checkpoint/resume (the golden_resume ctest):
 *   --journal FILE      persist each completed cell to FILE and skip
 *                       cells FILE already has (core/result_journal.hh)
 *   --kill-after N      simulate a crash: _Exit(42) after N cells have
 *                       been *computed* this run (replays don't count)
 *
 * A killed run resumed against the same journal produces a document
 * byte-identical to an uninterrupted run — replayed cells are the
 * exact MlpResult records the first run journalled.
 *
 * The sweep is deterministic end to end: workload generators use
 * their fixed default seeds, annotation substrates are replayed in
 * program order, and MLP (the only double) is a single IEEE division
 * of two integers, so the document compares exactly. CycleSim's
 * mlpSum is a double too, but a sum of integer products far below
 * 2^53, so it is exact as well.
 */
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "core/mlpsim.hh"
#include "core/result_json.hh"
#include "core/result_journal.hh"
#include "cyclesim/cycle_sim.hh"
#include "metrics/json.hh"
#include "util/logging.hh"
#include "util/options.hh"
#include "workloads/factory.hh"

using namespace mlpsim;
using metrics::JsonValue;

namespace {

constexpr uint64_t goldenInsts = 30'000;
constexpr uint64_t goldenWarmup = 5'000;

/** One simulated machine of the golden sweep. */
struct GoldenConfig
{
    const char *key; //!< stable name used in the JSON document
    core::MlpConfig config;
};

std::vector<GoldenConfig>
goldenConfigs()
{
    using core::IssueConfig;
    using core::MlpConfig;

    std::vector<GoldenConfig> configs;
    const char *names[] = {"64A", "64B", "64C", "64D", "64E"};
    const IssueConfig issues[] = {IssueConfig::A, IssueConfig::B,
                                  IssueConfig::C, IssueConfig::D,
                                  IssueConfig::E};
    for (unsigned i = 0; i < 5; ++i)
        configs.push_back({names[i], MlpConfig::sized(64, issues[i])});

    configs.push_back({"RA", MlpConfig::runahead()});

    MlpConfig vp = MlpConfig::defaultOoO();
    vp.valuePrediction = true;
    configs.push_back({"64C+vp", vp});

    MlpConfig sb = MlpConfig::defaultOoO();
    sb.finiteStoreBuffer = true;
    configs.push_back({"64C+sb", sb});

    for (GoldenConfig &gc : configs)
        gc.config.warmupInsts = goldenWarmup;
    return configs;
}

JsonValue
runGoldenSweep(core::ResultJournal *journal, uint64_t kill_after)
{
    core::AnnotationOptions ann;
    ann.warmupInsts = goldenWarmup;

    uint64_t computed = 0;
    JsonValue results = JsonValue::object();
    for (const std::string &name : workloads::commercialWorkloadNames()) {
        auto generator = workloads::makeWorkload(name);
        trace::TraceBuffer buffer(name);
        buffer.fill(*generator, goldenInsts);
        const core::AnnotatedTrace annotated(buffer, ann);
        for (const GoldenConfig &gc : goldenConfigs()) {
            const std::string cell_key = core::ResultJournal::key(
                name, gc.key, workloads::workloadSeed(name));
            core::MlpResult r;
            if (journal && journal->lookup(cell_key, &r)) {
                // Completed by a previous (possibly killed) run;
                // replay the journalled result instead of recomputing.
                results.set(name + "/" + gc.key, resultToJson(r));
                continue;
            }
            r = core::runMlp(gc.config, annotated.context());
            if (journal)
                journal->record(cell_key, r).orFatal();
            results.set(name + "/" + gc.key, resultToJson(r));
            if (kill_after != 0 && ++computed >= kill_after) {
                // Simulated crash for the golden_resume ctest: the
                // journalled cells survive, nothing else does. _Exit
                // skips destructors on purpose — a real kill would too.
                std::fprintf(stderr,
                             "golden_check: simulated crash after %llu "
                             "computed cells\n",
                             static_cast<unsigned long long>(computed));
                std::_Exit(42);
            }
        }
    }

    JsonValue doc = JsonValue::object();
    doc.set("schema", "mlpsim-golden-results-v1");
    JsonValue meta = JsonValue::object();
    meta.set("insts", goldenInsts);
    meta.set("warmup", goldenWarmup);
    doc.set("meta", std::move(meta));
    doc.set("results", std::move(results));
    return doc;
}

JsonValue
cycleSimResultToJson(const cyclesim::CycleSimResult &r)
{
    JsonValue out = JsonValue::object();
    out.set("cycles", r.cycles);
    out.set("instructions", r.instructions);
    out.set("offchip_accesses", r.offChipAccesses);
    out.set("mlp_cycles", r.mlpCycles);
    out.set("mlp_sum", r.mlpSum);
    return out;
}

/** The Table 3 machines (64-entry window and ROB, configs A..C) at
 *  two miss penalties, plus a perfect-L2 cell on the first workload. */
JsonValue
runCycleSimSweep()
{
    using core::IssueConfig;

    core::AnnotationOptions ann;
    ann.warmupInsts = goldenWarmup;

    JsonValue results = JsonValue::object();
    bool first_workload = true;
    for (const std::string &name : workloads::commercialWorkloadNames()) {
        auto generator = workloads::makeWorkload(name);
        trace::TraceBuffer buffer(name);
        buffer.fill(*generator, goldenInsts);
        const core::AnnotatedTrace annotated(buffer, ann);

        std::vector<cyclesim::CycleSimConfig> configs;
        for (IssueConfig ic :
             {IssueConfig::A, IssueConfig::B, IssueConfig::C}) {
            for (unsigned lat : {200u, 1000u}) {
                cyclesim::CycleSimConfig cfg;
                cfg.issue = ic;
                cfg.offChipLatency = lat;
                configs.push_back(cfg);
            }
        }
        if (first_workload) {
            cyclesim::CycleSimConfig cfg;
            cfg.perfectL2 = true;
            configs.push_back(cfg);
            first_workload = false;
        }
        for (cyclesim::CycleSimConfig &cfg : configs) {
            cfg.warmupInsts = goldenWarmup;
            const cyclesim::CycleSimResult r =
                cyclesim::CycleSim(cfg, annotated.context()).run();
            results.set(name + "/" + cfg.metricLabel(),
                        cycleSimResultToJson(r));
        }
    }

    JsonValue doc = JsonValue::object();
    doc.set("schema", "mlpsim-golden-cyclesim-v1");
    JsonValue meta = JsonValue::object();
    meta.set("insts", goldenInsts);
    meta.set("warmup", goldenWarmup);
    doc.set("meta", std::move(meta));
    doc.set("results", std::move(results));
    return doc;
}

/** First path at which two documents differ, for an actionable diff. */
std::string
firstDifference(const JsonValue &a, const JsonValue &b,
                const std::string &path)
{
    if (a.isObject() && b.isObject()) {
        for (const auto &[key, value] : a.members()) {
            const JsonValue *other = b.find(key);
            if (!other)
                return path + "/" + key + " (missing from golden file)";
            if (value != *other) {
                const std::string hit =
                    firstDifference(value, *other, path + "/" + key);
                if (!hit.empty())
                    return hit;
            }
        }
        for (const auto &[key, value] : b.members()) {
            if (!a.find(key))
                return path + "/" + key + " (missing from this run)";
        }
        return path;
    }
    return path + ": got " + a.dump(0) + ", golden " + b.dump(0);
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts(argc, argv);
    opts.rejectUnknown(
        {"check", "write", "journal", "kill-after", "cyclesim"});

    const std::string check = opts.getString("check", "");
    const std::string write = opts.getString("write", "");
    if (check.empty() == write.empty())
        fatal("exactly one of --check FILE / --write FILE is required");

    const bool cyclesim_sweep = opts.has("cyclesim");
    const std::string journal_path = opts.getString("journal", "");
    const uint64_t kill_after = opts.getU64("kill-after", 0);
    if (kill_after != 0 && journal_path.empty())
        fatal("--kill-after requires --journal (nothing would survive)");
    if (cyclesim_sweep && !journal_path.empty())
        fatal("--journal records epoch-model results; it does not "
              "apply to --cyclesim");

    std::optional<core::ResultJournal> journal;
    if (!journal_path.empty()) {
        journal = core::ResultJournal::open(journal_path, goldenWarmup,
                                            goldenInsts)
                      .orFatal();
        if (journal->size() != 0) {
            std::fprintf(stderr,
                         "golden_check: resuming, %zu cells on record%s\n",
                         journal->size(),
                         journal->salvaged() ? " (salvaged corrupt tail)"
                                             : "");
        }
    }

    const JsonValue fresh =
        cyclesim_sweep
            ? runCycleSimSweep()
            : runGoldenSweep(journal ? &*journal : nullptr, kill_after);

    if (!write.empty()) {
        metrics::writeJsonFile(write, fresh).orFatal();
        std::printf("%s: written (%zu cells)\n", write.c_str(),
                    fresh.find("results")->members().size());
        return 0;
    }

    const JsonValue golden = metrics::readJsonFile(check).orFatal();
    if (fresh != golden) {
        fatal(check, ": results drifted from golden at ",
              firstDifference(fresh, golden, ""),
              "; if the change is intended, regenerate with "
              "golden_check --write ", check);
    }
    std::printf("%s: matches (%zu cells, %llu insts each)\n",
                check.c_str(),
                fresh.find("results")->members().size(),
                static_cast<unsigned long long>(goldenInsts));
    return 0;
}
