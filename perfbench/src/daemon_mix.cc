/**
 * @file
 * Workload `daemon-mix`: one client (this process) drives mlpsimd
 * over a pipe pair in a closed loop with at most 4 requests
 * outstanding; the daemon runs with --jobs=1, which computes every
 * cell on its main thread.
 *
 * One round = one fresh daemon with an empty --cache-dir serving a
 * fixed request plan; the seed sets only the traces' content. The
 * plan spans 12 (workload, seed) traces, three times the trace cache's
 * 4 in-memory entries, through a working set of three traces that
 * moves every 16 requests, with one request in ten sent to any trace:
 * so the round builds traces, hits them in memory, evicts them,
 * spills them to disk and reads them back. 30% of the requests repeat
 * an earlier request's content (half of those one of the last four
 * sent, so some land in the same daemon batch), which the result cache
 * or in-batch dedup answers without simulating; the other 70% compute
 * every cell they ask for.
 */
#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <set>
#include <stdexcept>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench_support.hh"
#include "service/framing.hh"
#include "service/wire.hh"
#include "trace/trace_io.hh"
#include "workloads/factory.hh"

namespace perfbench {

using namespace mlpsim;
using core::IssueConfig;
using core::MlpConfig;

namespace {

constexpr size_t numTraces = 12;
constexpr size_t maxOutstanding = 4;
// One job, so the daemon computes on its main thread: with two
// workers the round keeps two vCPUs busy at once, and on a shared
// 4-vCPU host the stolen time then swings round throughput by +-25%
// between runs.
constexpr unsigned daemonJobs = 1;

struct Sizes
{
    Budget trace;
    size_t requests; //!< per round
    int minRounds;
};

Sizes
sizesFor(const RunOptions &opts)
{
    if (opts.smoke)
        return {{2'000, 6'000}, 40, 1};
    return {{20'000, 60'000}, 500, 3};
}

/** The plan's distinct traces: (workload, trace seed). */
struct TraceId
{
    std::string workload;
    uint64_t seed = 0;
};

/** One request of the plan. */
struct PlannedRequest
{
    size_t content = 0; //!< index of the first request with this content
    size_t trace = 0;
    std::vector<MlpConfig> configs;
    std::string payload; //!< the framed JSON document
};

struct Plan
{
    std::vector<TraceId> traces;
    std::vector<PlannedRequest> requests;
};

std::vector<MlpConfig>
configPool()
{
    std::vector<MlpConfig> pool;
    for (unsigned window : {16u, 24u, 32u, 40u, 48u, 56u, 64u, 80u, 96u,
                            112u, 128u, 160u, 192u, 224u, 256u})
        for (IssueConfig ic : {IssueConfig::A, IssueConfig::B,
                               IssueConfig::C, IssueConfig::D,
                               IssueConfig::E})
            pool.push_back(MlpConfig::sized(window, ic));
    for (core::CoreMode mode : {core::CoreMode::InOrderStallOnMiss,
                                core::CoreMode::InOrderStallOnUse}) {
        MlpConfig c;
        c.mode = mode;
        pool.push_back(c);
    }
    pool.push_back(MlpConfig::runahead());
    pool.push_back(MlpConfig::infinite());
    MlpConfig vp = MlpConfig::sized(64, IssueConfig::D);
    vp.valuePrediction = true;
    pool.push_back(vp);
    return pool;
}

std::string
requestDocument(const Plan &plan, const PlannedRequest &req,
                const Budget &budget)
{
    JsonValue doc = JsonValue::object();
    doc.set("schema", service::sweepRequestSchema);
    doc.set("id", "q" + std::to_string(req.content));
    doc.set("workload", plan.traces[req.trace].workload);
    doc.set("seed", plan.traces[req.trace].seed);
    doc.set("warmup", budget.warmup);
    doc.set("insts", budget.insts);
    JsonValue configs = JsonValue::array();
    for (const MlpConfig &c : req.configs)
        configs.push(service::configToJson(c));
    doc.set("configs", std::move(configs));
    return doc.dump(0);
}

Plan
makePlan(const RunOptions &opts, const Sizes &sizes)
{
    Plan plan;
    const auto &names = workloads::commercialWorkloadNames();
    for (size_t t = 0; t < numTraces; ++t) {
        const std::string &name = names[t % names.size()];
        plan.traces.push_back(
            {name, traceSeed(name + "/trace=" + std::to_string(t),
                             opts.seed)});
    }
    const std::vector<MlpConfig> pool = configPool();
    // The plan itself (which requests repeat which, each request's
    // trace slot and configs) comes from a fixed stream, so every seed
    // drives the caches through the same builds, hits, evictions and
    // spills and asks for the same cells; the seed sets the content of
    // the traces above.
    std::mt19937_64 rng(workloads::workloadSeed("daemon-mix-plan"));
    const auto uniform = [&rng](size_t n) {
        return size_t(std::uniform_int_distribution<uint64_t>(0, n - 1)(rng));
    };
    // Requests 3, 6, 9 of every ten repeat earlier content, the rest
    // ask for 1-3 configs not yet requested on their trace, so every
    // fresh request computes all of its cells.
    std::vector<size_t> fresh; // plan indices of fresh requests
    std::vector<std::vector<size_t>> unused(numTraces);
    for (auto &u : unused)
        for (size_t p = 0; p < pool.size(); ++p)
            u.push_back(p);
    for (size_t i = 0; i < sizes.requests; ++i) {
        PlannedRequest req;
        if (!fresh.empty() && i % 10 % 3 == 0 && i % 10 != 0) {
            const size_t recent = std::min<size_t>(fresh.size(), 4);
            const size_t pick =
                i % 2 == 0 ? fresh[fresh.size() - 1 - uniform(recent)]
                           : fresh[uniform(fresh.size())];
            req = plan.requests[pick];
        } else {
            req.content = i;
            const size_t n = 1 + i % 3;
            req.trace = uniform(10) == 0
                            ? uniform(numTraces)
                            : (i / 16 + uniform(3)) % numTraces;
            while (unused[req.trace].size() < n) // trace used up
                req.trace = (req.trace + 1) % numTraces;
            std::vector<size_t> &left = unused[req.trace];
            for (size_t k = 0; k < n; ++k) {
                const size_t at = uniform(left.size());
                req.configs.push_back(pool[left[at]]);
                left.erase(left.begin() + long(at));
            }
            req.payload = requestDocument(plan, req, sizes.trace);
            fresh.push_back(i);
        }
        plan.requests.push_back(std::move(req));
    }
    return plan;
}

// ---------------------------------------------------------------------
// The daemon process.

/** mlpsimd spawned with a pipe pair; reaped by finish(). */
class DaemonProcess
{
  public:
    DaemonProcess(const std::string &binary, const std::string &cache_dir,
                  const std::string &log_path)
    {
        int to_daemon[2];
        int from_daemon[2];
        if (::pipe(to_daemon) != 0 || ::pipe(from_daemon) != 0)
            throw std::runtime_error("pipe: " +
                                     std::string(std::strerror(errno)));
        const std::string cache_flag = "--cache-dir=" + cache_dir;
        const std::string jobs_flag = "--jobs=" + std::to_string(daemonJobs);
        pid = ::fork();
        if (pid < 0)
            throw std::runtime_error("fork: " +
                                     std::string(std::strerror(errno)));
        if (pid == 0) {
            ::dup2(to_daemon[0], 0);
            ::dup2(from_daemon[1], 1);
            const int log = ::open(log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
            if (log >= 0)
                ::dup2(log, 2);
            ::close(to_daemon[0]);
            ::close(to_daemon[1]);
            ::close(from_daemon[0]);
            ::close(from_daemon[1]);
            const char *argv[] = {binary.c_str(), "--stdio",
                                  cache_flag.c_str(), jobs_flag.c_str(),
                                  nullptr};
            ::execv(binary.c_str(), const_cast<char *const *>(argv));
            ::_exit(127);
        }
        ::close(to_daemon[0]);
        ::close(from_daemon[1]);
        toFd = to_daemon[1];
        fromFd = from_daemon[0];
    }

    ~DaemonProcess()
    {
        if (pid > 0) {
            ::kill(pid, SIGKILL);
            finish();
        }
    }
    DaemonProcess(const DaemonProcess &) = delete;
    DaemonProcess &operator=(const DaemonProcess &) = delete;

    int input() const { return toFd; }
    int output() const { return fromFd; }

    /** Close our ends and reap the daemon; its rusage is returned. */
    rusage
    finish()
    {
        rusage usage{};
        if (toFd >= 0)
            ::close(toFd);
        if (fromFd >= 0)
            ::close(fromFd);
        toFd = fromFd = -1;
        int status = 0;
        if (pid > 0) {
            while (::wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
            }
            exitStatus = status;
        }
        pid = -1;
        return usage;
    }

    int exitStatus = -1;

  private:
    pid_t pid = -1;
    int toFd = -1;
    int fromFd = -1;
};

/** The counters of mlpsimd's exit summary line. */
struct DaemonSummary
{
    unsigned long long requests = 0, cells = 0, hits = 0, computed = 0,
                       built = 0, memoryHits = 0, diskHits = 0, errors = 0;
    bool parsed = false;

    bool
    operator==(const DaemonSummary &o) const
    {
        return requests == o.requests && cells == o.cells &&
               hits == o.hits && computed == o.computed &&
               built == o.built && memoryHits == o.memoryHits &&
               diskHits == o.diskHits && errors == o.errors;
    }
};

DaemonSummary
readSummary(const std::string &log_path)
{
    DaemonSummary s;
    std::ifstream log(log_path);
    std::string line;
    while (std::getline(log, line)) {
        if (std::sscanf(line.c_str(),
                        "mlpsimd: served %llu requests (%llu cells: %llu "
                        "hits, %llu computed; traces: %llu built, %llu "
                        "memory hits, %llu disk hits; %llu errors)",
                        &s.requests, &s.cells, &s.hits, &s.computed,
                        &s.built, &s.memoryHits, &s.diskHits,
                        &s.errors) == 8)
            s.parsed = true;
    }
    return s;
}

// ---------------------------------------------------------------------
// One round.

struct RoundResult
{
    double setup = 0;  //!< spawn until the daemon answers a ping
    double wall = 0;   //!< first request sent .. last response read
    double cpu = 0;    //!< client + daemon CPU
    double daemonCpu = 0;
    double rssMb = 0;  //!< daemon high-water RSS
    uint64_t cellsAnswered = 0;
    uint64_t errors = 0;
    std::vector<double> latencyMs;
    std::vector<bool> cold; //!< per request: computed >= 1 cell
    std::vector<std::string> responses;
    DaemonSummary summary;
};

JsonValue
controlFrame(const char *command)
{
    JsonValue doc = JsonValue::object();
    doc.set("schema", service::sweepControlSchema);
    doc.set("command", command);
    return doc;
}

RoundResult
runRound(const RunOptions &opts, const Plan &plan, int round_index,
         Report &report)
{
    RoundResult round;
    const std::string cache_dir =
        opts.outDir + "/daemon-cache-" + std::to_string(round_index);
    const std::string log_path =
        opts.outDir + "/daemon-" + std::to_string(round_index) + ".log";
    std::filesystem::remove_all(cache_dir);
    std::filesystem::create_directories(cache_dir);

    const double c0 = processCpuSeconds();
    const double t0 = nowSeconds();
    DaemonProcess daemon(opts.binDir + "/mlpsimd", cache_dir, log_path);
    service::FrameWriter writer(daemon.input());
    service::FrameReader reader(daemon.output());

    const auto readFrame = [&](JsonValue *doc, std::string *payload) {
        auto got = reader.read(payload);
        if (!got.ok() || !*got)
            throw std::runtime_error("mlpsimd closed the pipe: " +
                                     (got.ok() ? std::string("EOF")
                                               : got.status().toString()));
        auto parsed = JsonValue::parse(*payload);
        if (!parsed.ok())
            throw std::runtime_error("mlpsimd sent a non-JSON frame");
        *doc = *std::move(parsed);
    };
    const auto isEvent = [](const JsonValue &doc, const char *kind) {
        const JsonValue *schema = doc.find("schema");
        const JsonValue *event = doc.find("event");
        return schema && schema->isString() &&
               schema->string() == service::sweepEventSchema && event &&
               event->isString() && event->string() == kind;
    };

    const auto writeFrame = [&writer](const std::string &payload) {
        const Status st = writer.write(payload);
        if (!st.ok())
            throw std::runtime_error("writing to mlpsimd: " + st.toString());
    };
    writeFrame(controlFrame("ping").dump(0));
    for (;;) {
        JsonValue doc;
        std::string payload;
        readFrame(&doc, &payload);
        if (isEvent(doc, "pong"))
            break;
    }
    round.setup = nowSeconds() - t0;

    const size_t n = plan.requests.size();
    std::vector<double> sent(n, 0.0);
    round.latencyMs.assign(n, 0.0);
    round.cold.assign(n, false);
    round.responses.assign(n, "");
    std::deque<size_t> awaitingPlan, awaitingResponse;
    size_t next = 0;
    const double start = nowSeconds();
    const auto send = [&] {
        sent[next] = nowSeconds();
        writeFrame(plan.requests[next].payload);
        awaitingPlan.push_back(next);
        awaitingResponse.push_back(next);
        ++next;
    };
    while (next < n && awaitingResponse.size() < maxOutstanding)
        send();
    while (!awaitingResponse.empty()) {
        JsonValue doc;
        std::string payload;
        readFrame(&doc, &payload);
        const JsonValue *schema = doc.find("schema");
        if (isEvent(doc, "planned")) {
            if (!awaitingPlan.empty()) {
                const JsonValue *computed = doc.find("computed");
                round.cold[awaitingPlan.front()] =
                    computed && computed->isNumber() &&
                    computed->number() > 0;
                awaitingPlan.pop_front();
            }
            continue;
        }
        if (!schema || !schema->isString() ||
            schema->string() != service::sweepResponseSchema)
            continue; // other progress events
        const size_t i = awaitingResponse.front();
        awaitingResponse.pop_front();
        round.latencyMs[i] = (nowSeconds() - sent[i]) * 1e3;
        const JsonValue *status = doc.find("status");
        const bool ok =
            status && status->isString() && status->string() == "ok";
        if (!ok) {
            ++round.errors;
            report.check(false, "request " + std::to_string(i) +
                                    " got an error response: " + payload);
            // An error response has no planned event; keep the two
            // queues aligned.
            std::erase(awaitingPlan, i);
        }
        round.cellsAnswered += plan.requests[i].configs.size();
        round.responses[i] = std::move(payload);
        if (next < n)
            send();
    }
    round.wall = nowSeconds() - start;

    writeFrame(controlFrame("shutdown").dump(0));
    // Read to EOF so the daemon never writes into a closed pipe.
    for (std::string rest;;) {
        const auto more = reader.read(&rest);
        if (!more.ok() || !*more)
            break;
    }
    const rusage usage = daemon.finish();
    round.daemonCpu = cpuSeconds(usage);
    round.cpu = processCpuSeconds() - c0 + round.daemonCpu;
    round.rssMb = double(usage.ru_maxrss) / 1024.0;
    report.check(WIFEXITED(daemon.exitStatus) &&
                     WEXITSTATUS(daemon.exitStatus) == 0,
                 "mlpsimd did not exit cleanly (see " + log_path + ")");
    round.summary = readSummary(log_path);
    report.check(round.summary.parsed,
                 "no exit summary in " + log_path);
    std::filesystem::remove_all(cache_dir);
    return round;
}

/** Responses of repeated content must repeat byte for byte. */
void
checkRepeats(const Plan &plan, const RoundResult &round, Report &report)
{
    for (size_t i = 0; i < plan.requests.size(); ++i) {
        const size_t first = plan.requests[i].content;
        if (first != i) {
            report.check(round.responses[i] == round.responses[first],
                         "request " + std::to_string(i) +
                             " repeats request " + std::to_string(first) +
                             " but its response differs");
        }
    }
}

/**
 * Recompute every cell of a sample of fresh requests in-process
 * (generate, annotate, core::tryRunMlp) and require the daemon's
 * response to be byte-identical to the one built from those results.
 */
void
checkAgainstInProcess(const Plan &plan, const Sizes &sizes,
                      const RoundResult &round, Report &report)
{
    std::vector<size_t> fresh;
    for (size_t i = 0; i < plan.requests.size(); ++i)
        if (plan.requests[i].content == i)
            fresh.push_back(i);
    const size_t samples = std::min<size_t>(6, fresh.size());
    for (size_t s = 0; s < samples; ++s) {
        const size_t i = fresh[s * fresh.size() / samples];
        const PlannedRequest &req = plan.requests[i];
        auto parsed = service::parseSweepRequest(
            JsonValue::parse(req.payload).orFatal());
        if (!parsed.ok()) {
            report.check(false, "plan request " + std::to_string(i) +
                                    " does not parse: " +
                                    parsed.status().toString());
            continue;
        }
        const TraceId &t = plan.traces[req.trace];
        auto gen = workloads::makeWorkload(t.workload, t.seed);
        auto prepared = annotate(
            generate(*gen, t.workload, sizes.trace.total(), 0),
            sizes.trace.warmup, 0);
        std::vector<service::ResponseRow> rows;
        for (const service::RequestConfig &rc : parsed->configs) {
            auto r = core::tryRunMlp(rc.config, prepared->context());
            rows.push_back({rc.name, r.ok() ? *r : core::MlpResult{}});
        }
        const std::string expected =
            service::makeOkResponse(*parsed, rows).dump(0);
        report.check(round.responses[i] == expected,
                     "request " + std::to_string(i) +
                         ": daemon response differs from the in-process "
                         "recomputation");
    }
}

/**
 * Traced replay of the round's distinct cold work in-process through
 * the same public calls the daemon makes: per distinct trace,
 * generate, spill (writeTrace), reload (readTrace) and annotate the
 * reloaded buffer; then every distinct cell on it.
 */
void
replayColdPath(const RunOptions &opts, const Plan &plan,
               const Sizes &sizes)
{
    std::vector<size_t> order; // traces in first-use order
    std::map<size_t, std::vector<MlpConfig>> cells;
    std::set<std::pair<size_t, std::string>> seen;
    for (const PlannedRequest &req : plan.requests) {
        if (std::find(order.begin(), order.end(), req.trace) == order.end())
            order.push_back(req.trace);
        for (const MlpConfig &c : req.configs)
            if (seen.insert({req.trace, service::configToJson(c).dump(0)})
                    .second)
                cells[req.trace].push_back(c);
    }
    const std::string spill = opts.outDir + "/replay.mlpt";
    for (size_t t : order) {
        const TraceId &id = plan.traces[t];
        auto gen = workloads::makeWorkload(id.workload, id.seed);
        auto buffer = generate(*gen, id.workload, sizes.trace.total(), t);
        {
            Scope span("trace.write", t);
            trace::writeTrace(spill, *buffer).orFatal();
            span.setWork(std::filesystem::file_size(spill));
        }
        std::unique_ptr<trace::TraceBuffer> reloaded;
        {
            Scope span("trace.read", t);
            reloaded = std::make_unique<trace::TraceBuffer>(
                trace::readTrace(spill).orFatal());
            span.setWork(reloaded->size());
        }
        auto prepared =
            annotate(std::move(reloaded), sizes.trace.warmup, t);
        for (const MlpConfig &c : cells[t])
            runCell(c, prepared->context(), sizes.trace.warmup, t).orFatal();
    }
    std::filesystem::remove(spill);
}

} // namespace

int
runDaemonMix(const RunOptions &opts, Report &report)
{
    // A daemon that dies mid-round must surface as a write error, not
    // kill this process.
    std::signal(SIGPIPE, SIG_IGN);
    const Sizes sizes = sizesFor(opts);
    const Plan plan = makePlan(opts, sizes);
    if (!std::filesystem::exists(opts.binDir + "/mlpsimd")) {
        std::fprintf(stderr, "mlpbench: %s/mlpsimd not found\n",
                     opts.binDir.c_str());
        return 2;
    }

    std::vector<RoundResult> rounds;
    try {
        if (opts.trace) {
            tracedRun(
                opts, report,
                [&] {
                    {
                        Scope drive("service.drive", 0);
                        rounds.push_back(runRound(
                            opts, plan, int(rounds.size()), report));
                    }
                    replayColdPath(opts, plan, sizes);
                },
                [&] { return rounds.back().daemonCpu; });
        } else {
            const double start = nowSeconds();
            while (anotherRound(opts, int(rounds.size()), sizes.minRounds,
                                start)) {
                rounds.push_back(
                    runRound(opts, plan, int(rounds.size()), report));
            }
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "mlpbench: daemon-mix: %s\n", e.what());
        return 2;
    }

    std::vector<double> setup, minst, ops, cpu, rss, latency, coldMs, hitMs;
    std::vector<std::vector<double>> perRound;
    for (const RoundResult &round : rounds) {
        report.attempted += plan.requests.size();
        report.failed += round.errors;
        setup.push_back(round.setup);
        minst.push_back(double(round.cellsAnswered) *
                        double(sizes.trace.total()) / round.wall / 1e6);
        ops.push_back(double(plan.requests.size()) / round.wall);
        cpu.push_back(round.cpu);
        rss.push_back(round.rssMb);
        perRound.push_back(round.latencyMs);
        for (size_t i = 0; i < round.latencyMs.size(); ++i) {
            latency.push_back(round.latencyMs[i]);
            (round.cold[i] ? coldMs : hitMs).push_back(round.latencyMs[i]);
        }
    }

    const RoundResult &first = rounds.front();
    checkRepeats(plan, first, report);
    checkAgainstInProcess(plan, sizes, first, report);
    for (size_t r = 1; r < rounds.size(); ++r) {
        report.check(rounds[r].responses == first.responses,
                     "round " + std::to_string(r) +
                         " responses differ from round 0's");
        report.check(rounds[r].summary == first.summary,
                     "round " + std::to_string(r) +
                         " daemon counters differ from round 0's");
    }
    const DaemonSummary &sum = first.summary;
    report.check(sum.requests == plan.requests.size() && sum.errors == 0,
                 "daemon summary does not account for every request");

    if (opts.trace) {
        report.metric("service.cold_req_ms", median(coldMs), "ms");
        report.metric("service.hit_req_ms", median(hitMs), "ms");
        report.metric("service.req_p99_ms", percentile(latency, 99), "ms");
        report.metric("service.cells_computed", double(sum.computed),
                      "count");
        report.metric("service.cell_hits", double(sum.hits), "count");
        report.metric("service.cell_hit_ratio",
                      sum.cells ? double(sum.hits) / double(sum.cells) : 0.0,
                      "ratio");
        report.metric("service.traces_built", double(sum.built), "count");
        report.metric("service.trace_memory_hits", double(sum.memoryHits),
                      "count");
        report.metric("service.trace_disk_hits", double(sum.diskHits),
                      "count");
    } else {
        report.metric("setup_s", median(setup), "s");
        report.metric("sim_minst_per_s", median(minst), "Minst/s");
        report.metric("cpu_s", median(cpu), "s");
        report.metric("peak_rss_mb", median(rss), "MB");
        report.metric("ops_per_s", median(ops), "1/s");
        const std::vector<double> requestMs = operationMedians(perRound);
        report.metric("op_p50_ms", percentile(requestMs, 50), "ms");
        report.metric("op_p90_ms", percentile(requestMs, 90), "ms");
    }

    size_t cold = 0;
    for (bool c : first.cold)
        cold += c ? 1 : 0;
    char note[300];
    std::snprintf(note, sizeof(note),
                  "daemon-mix: %zu rounds of %zu requests (%zu cold), "
                  "cells %llu (%llu hits, %llu computed), traces %llu "
                  "built / %llu memory / %llu disk, p50 %.2f ms, p99 "
                  "%.2f ms over %zu requests",
                  rounds.size(), plan.requests.size(), cold, sum.cells,
                  sum.hits, sum.computed, sum.built, sum.memoryHits,
                  sum.diskHits, percentile(latency, 50),
                  percentile(latency, 99), latency.size());
    report.notes.push_back(note);
    return 0;
}

} // namespace perfbench
