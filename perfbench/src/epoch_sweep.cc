/**
 * @file
 * Workload `epoch-sweep`: the paper-figure grid of the epoch engine
 * over three materialised commercial traces, on one thread.
 *
 * Per commercial trace, 33 cells: Figure 4 (windows 16..256 x issue
 * configs A-E), the Table 5 in-order pair, the Figure 8 machines not
 * already in Figure 4 (64D with a 256-entry ROB, runahead, INF) and
 * the Figure 9 value-prediction variants of 64D, 64D/rob256 and
 * runahead. Four micro traces with closed-form MLP (one pointer chase,
 * 2/4/8 independent miss streams) add 20 small cells whose results the
 * output checks compare against those closed forms.
 *
 * Set-up (generate + annotate every trace) runs several times and
 * reports its median; each measured round runs the whole grid once.
 */
#include <algorithm>
#include <cstdio>

#include "bench_support.hh"
#include "workloads/factory.hh"
#include "workloads/micro.hh"

namespace perfbench {

using namespace mlpsim;
using core::IssueConfig;
using core::MlpConfig;

namespace {

constexpr unsigned microPad = 4; //!< ALU instructions between misses
const unsigned streamCounts[] = {2, 4, 8};
const unsigned fig4Windows[] = {16, 32, 64, 128, 256};
const IssueConfig allIssue[] = {IssueConfig::A, IssueConfig::B,
                                IssueConfig::C, IssueConfig::D,
                                IssueConfig::E};

struct Sizes
{
    Budget commercial;
    Budget micro;
    int setups;
    int minRounds;
};

Sizes
sizesFor(const RunOptions &opts)
{
    if (opts.smoke)
        return {{5'000, 20'000}, {2'000, 10'000}, 1, 1};
    // A quarter of the paper benches' default 1M + 3M: at 4M
    // instructions a trace (~160 MB) outgrows what this VM's shared
    // last-level cache holds steadily, and one cell's time swings
    // by +-40% with other tenants' memory traffic; at 1M it stays
    // within +-8%.
    return {{250'000, 750'000}, {20'000, 100'000}, 5, 3};
}

enum TraceIndex : size_t {
    Database,
    Jbb,
    Web,
    Chase,
    Streams2,
    Streams4,
    Streams8,
    NumTraces
};

struct Cell
{
    size_t trace;
    MlpConfig config;
};

MlpConfig
inOrder(core::CoreMode mode)
{
    MlpConfig c;
    c.mode = mode;
    return c;
}

MlpConfig
withVp(MlpConfig c)
{
    c.valuePrediction = true;
    return c;
}

/** Figure 4/5/8/9 and Table 5 cells of one commercial trace. */
std::vector<MlpConfig>
commercialConfigs()
{
    std::vector<MlpConfig> out;
    for (unsigned window : fig4Windows)
        for (IssueConfig ic : allIssue)
            out.push_back(MlpConfig::sized(window, ic));
    out.push_back(inOrder(core::CoreMode::InOrderStallOnMiss));
    out.push_back(inOrder(core::CoreMode::InOrderStallOnUse));
    MlpConfig rob256 = MlpConfig::sized(64, IssueConfig::D);
    rob256.robSize = 256;
    out.push_back(rob256);
    out.push_back(MlpConfig::runahead());
    out.push_back(MlpConfig::infinite());
    out.push_back(withVp(MlpConfig::sized(64, IssueConfig::D)));
    out.push_back(withVp(rob256));
    out.push_back(withVp(MlpConfig::runahead()));
    return out;
}

std::vector<Cell>
buildGrid()
{
    std::vector<Cell> grid;
    for (size_t t : {Database, Jbb, Web})
        for (const MlpConfig &c : commercialConfigs())
            grid.push_back({t, c});
    for (size_t t : {Chase, Streams2, Streams4, Streams8})
        for (unsigned window : fig4Windows)
            grid.push_back({t, MlpConfig::sized(window, IssueConfig::C)});
    return grid;
}

using Traces = std::vector<std::unique_ptr<Prepared>>;

Traces
setUp(const RunOptions &opts, const Sizes &sizes)
{
    Traces traces;
    uint64_t id = 0;
    const auto add = [&](trace::TraceSource &source, const std::string &name,
                         const Budget &budget) {
        auto buffer = generate(source, name, budget.total(), id);
        traces.push_back(annotate(std::move(buffer), budget.warmup, id));
        ++id;
    };
    for (const std::string &name : workloads::commercialWorkloadNames()) {
        auto gen = workloads::makeWorkload(name, traceSeed(name, opts.seed));
        add(*gen, name, sizes.commercial);
    }
    workloads::PointerChaseWorkload::Params chase;
    chase.padAluPerLoad = microPad;
    chase.seed = traceSeed("pointer-chase", opts.seed);
    workloads::PointerChaseWorkload chaseGen(chase);
    add(chaseGen, "pointer-chase", sizes.micro);
    for (unsigned k : streamCounts) {
        workloads::IndependentStreamsWorkload::Params streams;
        streams.streams = k;
        streams.padAluPerLoad = microPad;
        streams.seed = traceSeed("streams", opts.seed) + k;
        workloads::IndependentStreamsWorkload streamsGen(streams);
        add(streamsGen, "streams" + std::to_string(k), sizes.micro);
    }
    return traces;
}

struct RoundResult
{
    std::vector<Expected<core::MlpResult>> results;
    std::vector<double> cellSeconds;
    std::vector<double> cellCpu;
    double wall = 0;
    uint64_t insts = 0;
};

RoundResult
runRound(const Traces &traces, const std::vector<Cell> &grid)
{
    RoundResult round;
    const double t0 = nowSeconds();
    for (size_t i = 0; i < grid.size(); ++i) {
        const Prepared &p = *traces[grid[i].trace];
        const double s = nowSeconds();
        const double c = processCpuSeconds();
        round.results.push_back(
            runCell(grid[i].config, p.context(), p.warmup, 1000 + i));
        round.cellSeconds.push_back(nowSeconds() - s);
        round.cellCpu.push_back(processCpuSeconds() - c);
        round.insts += p.buffer->size();
    }
    round.wall = nowSeconds() - t0;
    return round;
}

/** The output checks: closed forms and properties of the method. */
void
checkGrid(const std::vector<Cell> &grid, const RoundResult &round,
          Report &report)
{
    // Index the round by (trace, config label + mode + vp).
    const auto find = [&](size_t trace, const MlpConfig &want)
        -> const core::MlpResult * {
        for (size_t i = 0; i < grid.size(); ++i) {
            const MlpConfig &c = grid[i].config;
            if (grid[i].trace == trace && c.mode == want.mode &&
                c.issue == want.issue &&
                c.issueWindowSize == want.issueWindowSize &&
                c.robSize == want.robSize &&
                c.valuePrediction == want.valuePrediction &&
                round.results[i].ok())
                return &*round.results[i];
        }
        return nullptr;
    };
    const auto name = [](size_t trace) {
        static const char *names[] = {"database", "specjbb2000",
                                      "specweb99", "pointer-chase",
                                      "streams2", "streams4", "streams8"};
        return std::string(names[trace]);
    };

    for (size_t i = 0; i < grid.size(); ++i) {
        if (!round.results[i].ok())
            continue;
        const core::MlpResult &r = *round.results[i];
        const std::string where =
            name(grid[i].trace) + "/" + grid[i].config.metricLabel();
        report.check(r.epochs > 0 &&
                         r.mlp() == double(r.usefulAccesses) /
                                        double(r.epochs),
                     where + ": mlp() != useful accesses / epochs");
        report.check(r.usefulAccesses ==
                         r.dmissAccesses + r.imissAccesses +
                             r.pmissAccesses + r.smissAccesses,
                     where + ": useful accesses != sum of their kinds");
    }

    for (unsigned window : fig4Windows) {
        const MlpConfig c = MlpConfig::sized(window, IssueConfig::C);
        const std::string w = " at window " + std::to_string(window);
        if (const auto *r = find(Chase, c))
            report.check(r->mlp() == 1.0,
                         "pointer chase MLP " + std::to_string(r->mlp()) +
                             " != 1" + w);
        for (size_t s = 0; s < 3; ++s) {
            const unsigned k = streamCounts[s];
            const auto *r = find(Streams2 + s, c);
            if (!r)
                continue;
            const std::string what =
                std::to_string(k) + " streams: MLP " +
                std::to_string(r->mlp());
            report.check(r->mlp() <= double(k), what + " > K" + w);
            if (window >= k * (1 + microPad))
                report.check(r->mlp() == double(k),
                             what + " != K although the window holds "
                                    "K*(1+pad) instructions" + w);
        }
    }

    for (size_t t : {Database, Jbb, Web}) {
        const std::string wl = name(t) + ": ";
        for (size_t wi = 0; wi < 5; ++wi) {
            for (size_t ci = 0; ci < 5; ++ci) {
                const auto *here = find(
                    t, MlpConfig::sized(fig4Windows[wi], allIssue[ci]));
                const std::string label =
                    MlpConfig::sized(fig4Windows[wi], allIssue[ci]).label();
                if (!here)
                    continue;
                if (wi > 0) {
                    const auto *smaller = find(
                        t, MlpConfig::sized(fig4Windows[wi - 1],
                                            allIssue[ci]));
                    report.check(!smaller || here->mlp() >= smaller->mlp(),
                                 wl + "MLP falls as the window grows to " +
                                     label);
                }
                if (ci > 0) {
                    const auto *stricter = find(
                        t, MlpConfig::sized(fig4Windows[wi],
                                            allIssue[ci - 1]));
                    report.check(!stricter ||
                                     here->mlp() >= stricter->mlp(),
                                 wl + "MLP falls as the issue config "
                                      "relaxes to " + label);
                }
            }
        }
        const auto *som =
            find(t, inOrder(core::CoreMode::InOrderStallOnMiss));
        const auto *sou =
            find(t, inOrder(core::CoreMode::InOrderStallOnUse));
        const auto *ooo = find(t, MlpConfig::defaultOoO());
        if (som && sou && ooo) {
            report.check(som->mlp() <= sou->mlp() &&
                             sou->mlp() <= ooo->mlp(),
                         wl + "not stall-on-miss <= stall-on-use <= 64C");
        }
        const auto *rae = find(t, MlpConfig::runahead());
        const auto *inf = find(t, MlpConfig::infinite());
        if (rae && inf)
            report.check(rae->mlp() == inf->mlp(),
                         wl + "runahead MLP != INF MLP");
    }
}

} // namespace

int
runEpochSweep(const RunOptions &opts, Report &report)
{
    const Sizes sizes = sizesFor(opts);
    const std::vector<Cell> grid = buildGrid();

    std::vector<double> setupSeconds;
    Traces traces;
    const auto timedSetUp = [&] {
        traces.clear();
        const double t0 = nowSeconds();
        traces = setUp(opts, sizes);
        setupSeconds.push_back(nowSeconds() - t0);
    };

    std::vector<RoundResult> rounds;
    if (opts.trace) {
        tracedRun(opts, report, [&] {
            timedSetUp();
            rounds.push_back(runRound(traces, grid));
        });
    } else {
        for (int i = 0; i < sizes.setups; ++i)
            timedSetUp();
        const double start = nowSeconds();
        while (anotherRound(opts, int(rounds.size()), sizes.minRounds, start))
            rounds.push_back(runRound(traces, grid));
    }

    std::vector<double> minst;
    std::vector<std::vector<double>> cellSeconds, cellCpu;
    for (const RoundResult &round : rounds) {
        report.attempted += round.results.size();
        for (const auto &r : round.results)
            report.failed += r.ok() ? 0 : 1;
        minst.push_back(double(round.insts) / round.wall / 1e6);
        cellSeconds.push_back(round.cellSeconds);
        cellCpu.push_back(round.cellCpu);
    }
    const double rss = peakRssMb();

    checkGrid(grid, rounds.front(), report);
    for (size_t r = 1; r < rounds.size(); ++r) {
        for (size_t i = 0; i < grid.size(); ++i) {
            const auto &a = rounds.front().results[i];
            const auto &b = rounds[r].results[i];
            report.check(a.ok() == b.ok() &&
                             (!a.ok() || sameResult(*a, *b)),
                         "round " + std::to_string(r) +
                             " differs from round 0 in cell " +
                             std::to_string(i));
        }
    }

    if (!opts.trace) {
        reportSweep(report, setupSeconds, cellSeconds, cellCpu,
                    rounds.front().insts, rss);
    }
    char note[200];
    std::snprintf(note, sizeof(note),
                  "epoch-sweep: %zu rounds of %zu cells, %zu set-ups "
                  "(median %.3f s); Minst/s per round:",
                  rounds.size(), grid.size(), setupSeconds.size(),
                  median(setupSeconds));
    std::string line = note;
    for (double m : minst)
        line += " " + std::to_string(m).substr(0, 5);
    report.notes.push_back(line);
    return 0;
}

} // namespace perfbench
