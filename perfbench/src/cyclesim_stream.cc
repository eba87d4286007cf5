/**
 * @file
 * Workload `cyclesim-stream`: the Table 3 validation grid with traces
 * streamed, not stored.
 *
 * Each commercial trace is a GeneratedChunkSource (4096-instruction
 * chunks through the bounded chunk ring) annotated in one streamed
 * pass (StreamingTrace::make) at set-up. Every cell then opens its own
 * stream, so the trace is regenerated for each cell by one producer
 * thread while the model consumes it on the main thread: at most two
 * threads run, both on the one CPU the workload starts on. Per trace,
 * 9 rows (windows 32/64/128 x configs A-C), each with CycleSim at 200,
 * 500 and 1000 cycles and the epoch model.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>

#include <sched.h>

#include "bench_support.hh"
#include "core/trace_pipeline.hh"
#include "cyclesim/cycle_sim.hh"
#include "trace/stream_source.hh"
#include "workloads/factory.hh"

namespace perfbench {

using namespace mlpsim;
using core::IssueConfig;
using core::MlpConfig;

namespace {

constexpr uint32_t chunkInsts = 4096;
const unsigned rowWindows[] = {32, 64, 128};
const IssueConfig rowIssue[] = {IssueConfig::A, IssueConfig::B,
                                IssueConfig::C};
const unsigned latencies[] = {200, 500, 1000};

struct Sizes
{
    Budget trace;
    int setups;
    int minRounds;
};

Sizes
sizesFor(const RunOptions &opts)
{
    if (opts.smoke)
        return {{5'000, 20'000}, 1, 1};
    return {{100'000, 300'000}, 5, 2};
}

/** One streamed, annotated commercial trace. */
struct Streamed
{
    std::string name;
    std::unique_ptr<trace::GeneratedChunkSource> source;
    std::unique_ptr<core::StreamingTrace> annotated;
};

std::vector<Streamed>
setUp(const RunOptions &opts, const Budget &budget)
{
    std::vector<Streamed> out;
    uint64_t id = 0;
    for (const std::string &name : workloads::commercialWorkloadNames()) {
        const uint64_t seed = traceSeed(name, opts.seed);
        Streamed s;
        s.name = name;
        s.source = std::make_unique<trace::GeneratedChunkSource>(
            name, budget.total(),
            [name, seed] { return workloads::makeWorkload(name, seed); },
            chunkInsts);
        core::AnnotationOptions options;
        options.warmupInsts = budget.warmup;
        Scope span("core.stream_annotate", id++);
        s.annotated = std::make_unique<core::StreamingTrace>(
            core::StreamingTrace::make(*s.source, options).orFatal());
        span.setWork(budget.total());
        out.push_back(std::move(s));
    }
    return out;
}

/** One Table 3 row's results. */
struct Row
{
    cyclesim::CycleSimResult cyc[3];
    Expected<core::MlpResult> model = Status::internal("not run");
};

cyclesim::CycleSimConfig
cycConfig(unsigned window, IssueConfig ic, unsigned latency,
          uint64_t warmup)
{
    cyclesim::CycleSimConfig cfg;
    cfg.issue = ic;
    cfg.issueWindowSize = window;
    cfg.robSize = window;
    cfg.offChipLatency = latency;
    cfg.warmupInsts = warmup;
    return cfg;
}

cyclesim::CycleSimResult
runCycleSim(const cyclesim::CycleSimConfig &cfg,
            const core::WorkloadContext &context, uint64_t id)
{
    Scope span("cyclesim.run", id);
    cyclesim::CycleSimResult r = cyclesim::CycleSim(cfg, context).run();
    span.setWork(context.size());
    return r;
}

bool
sameCycleSim(const cyclesim::CycleSimResult &a,
             const cyclesim::CycleSimResult &b)
{
    return a.cycles == b.cycles && a.instructions == b.instructions &&
           a.offChipAccesses == b.offChipAccesses &&
           a.mlpCycles == b.mlpCycles && a.mlpSum == b.mlpSum;
}

struct RoundResult
{
    std::vector<Row> rows; //!< trace-major, then window, then config
    std::vector<double> cellSeconds;
    std::vector<double> cellCpu;
    uint64_t insts = 0;
    uint64_t cells = 0;
    uint64_t failed = 0;
};

RoundResult
runRound(const std::vector<Streamed> &traces, const Budget &budget)
{
    RoundResult round;
    uint64_t id = 1000;
    const auto timed = [&round](auto &&fn) {
        const double s = nowSeconds();
        const double c = processCpuSeconds();
        fn();
        round.cellSeconds.push_back(nowSeconds() - s);
        round.cellCpu.push_back(processCpuSeconds() - c);
    };
    for (const Streamed &t : traces) {
        const core::WorkloadContext ctx = t.annotated->context();
        for (unsigned window : rowWindows) {
            for (IssueConfig ic : rowIssue) {
                Row row;
                for (int l = 0; l < 3; ++l) {
                    timed([&] {
                        row.cyc[l] = runCycleSim(
                            cycConfig(window, ic, latencies[l],
                                      budget.warmup),
                            ctx, id);
                    });
                }
                timed([&] {
                    row.model = runCell(MlpConfig::sized(window, ic), ctx,
                                        budget.warmup, id);
                });
                round.failed += row.model.ok() ? 0 : 1;
                round.cells += 4;
                round.insts += 4 * budget.total();
                round.rows.push_back(std::move(row));
                ++id;
            }
        }
    }
    return round;
}

/** Table 3's claims as properties, plus the materialised re-run. */
double
checkRows(const RunOptions &opts, const Budget &budget,
          const RoundResult &round, Report &report)
{
    double worst1000 = 0.0;
    size_t i = 0;
    for (const std::string &name : workloads::commercialWorkloadNames()) {
        for (unsigned window : rowWindows) {
            for (IssueConfig ic : rowIssue) {
                const Row &row = round.rows[i++];
                if (!row.model.ok())
                    continue;
                const double model = row.model->mlp();
                const std::string where =
                    name + "/" + MlpConfig::sized(window, ic).label();
                for (int l = 0; l < 3; ++l) {
                    report.check(row.cyc[l].mlp() <= model,
                                 where + ": CycleSim MLP at " +
                                     std::to_string(latencies[l]) +
                                     " cycles exceeds MLPsim's");
                }
                const double err200 = std::abs(row.cyc[0].mlp() - model);
                const double err1000 = std::abs(row.cyc[2].mlp() - model);
                report.check(err1000 <= err200,
                             where + ": |cyc1000 - MLPsim| > "
                                     "|cyc200 - MLPsim|");
                worst1000 = std::max(worst1000, err1000);
            }
        }
    }

    // Re-run the 64C row of every trace from a materialised buffer:
    // streaming must not change a single bit.
    size_t trace_index = 0;
    for (const std::string &name : workloads::commercialWorkloadNames()) {
        auto gen = workloads::makeWorkload(name, traceSeed(name, opts.seed));
        auto prepared = annotate(
            generate(*gen, name, budget.total(), 0), budget.warmup, 0);
        const core::WorkloadContext ctx = prepared->context();
        const size_t row_index = trace_index * 9 + 1 * 3 + 2; // 64, C
        const Row &streamed = round.rows[row_index];
        for (int l = 0; l < 3; ++l) {
            const auto r = cyclesim::CycleSim(
                               cycConfig(64, IssueConfig::C, latencies[l],
                                         budget.warmup),
                               ctx)
                               .run();
            report.check(sameCycleSim(r, streamed.cyc[l]),
                         name + "/64C: materialised CycleSim at " +
                             std::to_string(latencies[l]) +
                             " cycles differs from the streamed run");
        }
        auto model = runCell(MlpConfig::sized(64, IssueConfig::C), ctx,
                             budget.warmup, 0);
        report.check(model.ok() && streamed.model.ok() &&
                         sameResult(*model, *streamed.model),
                     name + "/64C: materialised MLPsim result differs "
                            "from the streamed run");
        ++trace_index;
    }
    return worst1000;
}

/**
 * Restrict this thread, and the stream producers it starts later, to
 * the CPU it runs on. On a shared VM, handing every chunk to a
 * producer on another vCPU wakes that vCPU through the hypervisor:
 * free to migrate, the pair ran 20-30% slower than pinned, and by
 * however much the host was contended at the time.
 */
void
pinToCurrentCpu()
{
    const int cpu = ::sched_getcpu();
    if (cpu < 0)
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    ::sched_setaffinity(0, sizeof(set), &set);
}

/** Pull one whole stream with no model attached (span per drain). */
void
drainStreams(const std::vector<Streamed> &traces)
{
    uint64_t id = 0;
    for (const Streamed &t : traces) {
        Scope span("trace.stream_drain", id++);
        auto stream = t.source->open();
        uint64_t n = 0;
        while (auto chunk = stream->next())
            n += chunk->count;
        span.setWork(n);
    }
}

} // namespace

int
runCycleSimStream(const RunOptions &opts, Report &report)
{
    pinToCurrentCpu();
    const Sizes sizes = sizesFor(opts);
    std::vector<double> setupSeconds;
    std::vector<Streamed> traces;
    const auto timedSetUp = [&] {
        traces.clear();
        const double t0 = nowSeconds();
        traces = setUp(opts, sizes.trace);
        setupSeconds.push_back(nowSeconds() - t0);
    };

    std::vector<RoundResult> rounds;
    double rss = 0.0;
    if (opts.trace) {
        tracedRun(opts, report, [&] {
            timedSetUp();
            rounds.push_back(runRound(traces, sizes.trace));
            drainStreams(traces);
        });
        // One drain per trace; every cell of that trace streams it
        // once more.
        double drain = 0.0;
        for (const Span &s : tracer().spans())
            if (s.name == "trace.stream_drain")
                drain += s.end - s.start;
        report.metric("trace.stream_drain_s",
                      drain * double(rounds.back().cells) /
                          double(traces.size()),
                      "s");
    } else {
        for (int i = 0; i < sizes.setups; ++i)
            timedSetUp();
        const double start = nowSeconds();
        while (anotherRound(opts, int(rounds.size()), sizes.minRounds, start))
            rounds.push_back(runRound(traces, sizes.trace));
        // Before the materialised re-run below, which holds whole
        // traces and is not part of the measured workload.
        rss = peakRssMb();
    }

    std::vector<std::vector<double>> cellSeconds, cellCpu;
    for (const RoundResult &round : rounds) {
        report.attempted += round.cells;
        report.failed += round.failed;
        cellSeconds.push_back(round.cellSeconds);
        cellCpu.push_back(round.cellCpu);
    }
    for (size_t r = 1; r < rounds.size(); ++r) {
        for (size_t i = 0; i < rounds[0].rows.size(); ++i) {
            const Row &a = rounds[0].rows[i];
            const Row &b = rounds[r].rows[i];
            bool same = a.model.ok() == b.model.ok() &&
                        (!a.model.ok() || sameResult(*a.model, *b.model));
            for (int l = 0; l < 3; ++l)
                same = same && sameCycleSim(a.cyc[l], b.cyc[l]);
            report.check(same, "round " + std::to_string(r) +
                                   " differs from round 0 in row " +
                                   std::to_string(i));
        }
    }
    const double worst1000 =
        checkRows(opts, sizes.trace, rounds.front(), report);

    if (opts.trace) {
        report.metric("cyclesim.mlp_err_1000", worst1000, "MLP");
    } else {
        reportSweep(report, setupSeconds, cellSeconds, cellCpu,
                    rounds.front().insts, rss);
    }
    char note[200];
    std::snprintf(note, sizeof(note),
                  "cyclesim-stream: %zu rounds of %llu cells, %zu set-ups "
                  "(median %.3f s), worst |cyc1000 - MLPsim| = %.4f",
                  rounds.size(),
                  static_cast<unsigned long long>(rounds.front().cells),
                  setupSeconds.size(), median(setupSeconds), worst1000);
    report.notes.push_back(note);
    return 0;
}

} // namespace perfbench
