#include "bench_support.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>

#include "core/result_json.hh"
#include "workloads/factory.hh"

namespace perfbench {

using namespace mlpsim;

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpuSeconds(const rusage &usage)
{
    return double(usage.ru_utime.tv_sec) + usage.ru_utime.tv_usec * 1e-6 +
           double(usage.ru_stime.tv_sec) + usage.ru_stime.tv_usec * 1e-6;
}

double
processCpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return cpuSeconds(usage);
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    return 0.0;
}

double
median(std::vector<double> values)
{
    return percentile(std::move(values), 50.0);
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = p / 100.0 * double(values.size() - 1);
    const size_t lo = size_t(std::floor(pos));
    const size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (values[hi] - values[lo]) * (pos - double(lo));
}

std::vector<double>
operationMedians(const std::vector<std::vector<double>> &per_round)
{
    std::vector<double> out;
    for (size_t i = 0; i < per_round.front().size(); ++i) {
        std::vector<double> samples;
        for (const auto &round : per_round)
            samples.push_back(round[i]);
        out.push_back(median(std::move(samples)));
    }
    return out;
}

bool
anotherRound(const RunOptions &opts, int rounds, int min_rounds,
             double start)
{
    if (rounds < min_rounds)
        return true;
    if (opts.smoke)
        return false;
    const double elapsed = nowSeconds() - start;
    return elapsed + elapsed / rounds <= opts.seconds;
}

uint64_t
traceSeed(const std::string &name, uint64_t seed)
{
    if (seed == 0)
        return workloads::workloadSeed(name);
    return workloads::workloadSeed(name + "/seed=" + std::to_string(seed));
}

// ---------------------------------------------------------------------
// Spans.

Tracer &
tracer()
{
    static Tracer instance;
    return instance;
}

int
Tracer::begin(const std::string &name, uint64_t id)
{
    Span span;
    span.name = name;
    span.id = id;
    span.parent = open.empty() ? -1 : open.back();
    span.start = nowSeconds();
    recorded.push_back(std::move(span));
    open.push_back(int(recorded.size() - 1));
    return open.back();
}

void
Tracer::end(int index, uint64_t work)
{
    Span &span = recorded[size_t(index)];
    span.end = nowSeconds();
    span.work = work;
    if (!open.empty() && open.back() == index)
        open.pop_back();
}

std::map<std::string, SpanTotals>
Tracer::totals() const
{
    std::vector<double> covered(recorded.size(), 0.0);
    for (const Span &span : recorded) {
        if (span.parent >= 0)
            covered[size_t(span.parent)] += span.end - span.start;
    }
    std::map<std::string, SpanTotals> out;
    for (size_t i = 0; i < recorded.size(); ++i) {
        const Span &span = recorded[i];
        SpanTotals &t = out[span.name];
        t.total += span.end - span.start;
        t.self += span.end - span.start - covered[i];
        t.work += span.work;
        ++t.calls;
    }
    return out;
}

JsonValue
Tracer::chromeTrace() const
{
    JsonValue events = JsonValue::array();
    const double origin = recorded.empty() ? 0.0 : recorded.front().start;
    for (size_t i = 0; i < recorded.size(); ++i) {
        const Span &span = recorded[i];
        JsonValue ev = JsonValue::object();
        ev.set("name", span.name);
        ev.set("cat", span.name.substr(0, span.name.find('.')));
        ev.set("ph", "X");
        ev.set("ts", (span.start - origin) * 1e6);
        ev.set("dur", (span.end - span.start) * 1e6);
        ev.set("pid", 1);
        ev.set("tid", 1);
        JsonValue args = JsonValue::object();
        args.set("span", uint64_t(i));
        args.set("id", span.id);
        args.set("parent", int64_t(span.parent));
        args.set("work", span.work);
        ev.set("args", std::move(args));
        events.push(std::move(ev));
    }
    JsonValue doc = JsonValue::object();
    doc.set("traceEvents", std::move(events));
    doc.set("displayTimeUnit", "ms");
    return doc;
}

// ---------------------------------------------------------------------
// Materialised workload preparation.

core::WorkloadContext
Prepared::context() const
{
    core::WorkloadContext ctx;
    ctx.buffer = buffer.get();
    ctx.misses = &misses;
    ctx.branches = &branches;
    ctx.values = &values;
    return ctx;
}

std::unique_ptr<trace::TraceBuffer>
generate(trace::TraceSource &source, const std::string &name,
         uint64_t total, uint64_t id)
{
    auto buffer = std::make_unique<trace::TraceBuffer>(name);
    Scope span("workloads.gen", id);
    buffer->fill(source, total);
    span.setWork(buffer->size());
    return buffer;
}

std::unique_ptr<Prepared>
annotate(std::unique_ptr<trace::TraceBuffer> buffer, uint64_t warmup,
         uint64_t id)
{
    auto prepared = std::make_unique<Prepared>();
    prepared->name = buffer->name();
    prepared->warmup = warmup;
    prepared->buffer = std::move(buffer);
    const trace::TraceBuffer &buf = *prepared->buffer;

    core::AnnotationOptions options;
    options.warmupInsts = warmup;
    memory::ProfileConfig profile;
    profile.hierarchy = options.hierarchy;
    profile.warmupInsts = warmup;
    {
        Scope span("memory.profile", id);
        prepared->misses = memory::AccessProfiler(profile).profile(buf);
        span.setWork(buf.size());
    }
    {
        Scope span("branch.annotate", id);
        prepared->branches =
            branch::annotateBranches(buf, options.branch, warmup);
        span.setWork(buf.size());
    }
    {
        Scope span("predictor.annotate", id);
        prepared->values = predictor::annotateValues(
            buf, prepared->misses, options.value, warmup);
        span.setWork(buf.size());
    }
    return prepared;
}

Expected<core::MlpResult>
runCell(core::MlpConfig config, const core::WorkloadContext &context,
        uint64_t warmup, uint64_t id)
{
    config.warmupInsts = warmup;
    const bool in_order =
        config.mode == core::CoreMode::InOrderStallOnMiss ||
        config.mode == core::CoreMode::InOrderStallOnUse;
    Scope span(in_order ? "core.inorder" : "core.engine", id);
    auto result = core::tryRunMlp(config, context);
    span.setWork(context.size());
    return result;
}

bool
sameResult(const core::MlpResult &a, const core::MlpResult &b)
{
    return core::resultToJson(a) == core::resultToJson(b);
}

// ---------------------------------------------------------------------
// Results.

void
Report::check(bool ok, const std::string &what)
{
    constexpr size_t shown = 20;
    if (ok || checkFailures.size() > shown)
        return;
    checkFailures.push_back(checkFailures.size() < shown ? what
                                                         : "... and more");
}

namespace {

double
rate(const SpanTotals &t)
{
    return t.total > 0 ? double(t.work) / t.total / 1e6 : 0.0;
}

/** The per-layer metrics, layer table and span file of a traced pass. */
void
reportLayers(const RunOptions &opts, double untraced_wall, Report &report)
{
    const auto totals = tracer().totals();
    const auto get = [&totals](const std::string &name) {
        const auto it = totals.find(name);
        return it == totals.end() ? SpanTotals{} : it->second;
    };

    const SpanTotals gen = get("workloads.gen");
    report.metric("workloads.gen_s", gen.total, "s");
    report.metric("workloads.gen_minst_per_s", rate(gen), "Minst/s");
    report.metric("trace.write_s", get("trace.write").total, "s");
    report.metric("trace.read_s", get("trace.read").total, "s");
    report.metric("trace.file_mb", double(get("trace.write").work) / 1e6,
                  "MB");
    const SpanTotals profile = get("memory.profile");
    report.metric("memory.profile_s", profile.total, "s");
    report.metric("memory.profile_minst_per_s", rate(profile), "Minst/s");
    report.metric("branch.annotate_s", get("branch.annotate").total, "s");
    report.metric("predictor.annotate_s", get("predictor.annotate").total,
                  "s");
    report.metric("core.stream_annotate_s",
                  get("core.stream_annotate").total, "s");
    const SpanTotals engine = get("core.engine");
    report.metric("core.engine_s", engine.total, "s");
    report.metric("core.engine_minst_per_s", rate(engine), "Minst/s");
    report.metric("core.engine_cells", double(engine.calls), "count");
    const SpanTotals inorder = get("core.inorder");
    report.metric("core.inorder_s", inorder.total, "s");
    report.metric("core.inorder_cells", double(inorder.calls), "count");
    const SpanTotals cyc = get("cyclesim.run");
    report.metric("cyclesim.run_s", cyc.total, "s");
    report.metric("cyclesim.minst_per_s", rate(cyc), "Minst/s");
    report.metric("cyclesim.cells", double(cyc.calls), "count");
    report.metric("service.drive_s", get("service.drive").total, "s");

    const SpanTotals root = get("run");
    report.metric("unattributed_s", root.self, "s");

    // The budget: layer self times plus the unattributed remainder
    // add up to the traced wall time (the root span's duration).
    JsonValue layers = JsonValue::object();
    double attributed = 0.0;
    for (const auto &[name, t] : totals) {
        if (name == "run")
            continue;
        JsonValue row = JsonValue::object();
        row.set("self_s", t.self);
        row.set("total_s", t.total);
        row.set("calls", t.calls);
        row.set("work", t.work);
        layers.set(name, std::move(row));
        attributed += t.self;
    }
    const double overhead = root.total - untraced_wall;
    JsonValue table = JsonValue::object();
    table.set("workload", opts.workload);
    table.set("seed", opts.seed);
    table.set("traced_wall_s", root.total);
    table.set("untraced_wall_s", untraced_wall);
    table.set("tracing_overhead_s", overhead);
    table.set("attributed_s", attributed);
    table.set("unattributed_s", root.self);
    table.set("layers", std::move(layers));

    const std::string stem = opts.outDir + "/" + opts.workload;
    std::ofstream(stem + ".trace.json") << tracer().chromeTrace().dump(0);
    std::ofstream(stem + ".layers.json") << table.dump(2) << "\n";

    char line[256];
    std::snprintf(line, sizeof(line),
                  "traced wall %.3f s = layers %.3f s + unattributed "
                  "%.3f s; untraced wall %.3f s, tracing overhead "
                  "%+.3f s (%+.1f%%)",
                  root.total, attributed, root.self, untraced_wall,
                  overhead,
                  untraced_wall > 0 ? 100.0 * overhead / untraced_wall
                                    : 0.0);
    report.notes.push_back(line);
    report.notes.push_back("spans: " + stem + ".trace.json, layer table: " +
                           stem + ".layers.json");
}

} // namespace

void
tracedRun(const RunOptions &opts, Report &report,
          const std::function<void()> &pass,
          const std::function<double()> &child_cpu)
{
    const double t0 = nowSeconds();
    pass();
    const double untraced = nowSeconds() - t0;

    tracer().setEnabled(true);
    const double c0 = processCpuSeconds();
    {
        Scope root("run", 0);
        pass();
    }
    tracer().setEnabled(false);
    const Span &root = tracer().spans().front();
    const double cpu = processCpuSeconds() - c0 + (child_cpu ? child_cpu() : 0.0);
    report.metric("util.cpu_per_wall", cpu / (root.end - root.start),
                  "ratio");
    reportLayers(opts, untraced, report);
}

void
reportSweep(Report &report, const std::vector<double> &setup_seconds,
            const std::vector<std::vector<double>> &cell_seconds,
            const std::vector<std::vector<double>> &cell_cpu,
            uint64_t insts_per_round, double rss_mb)
{
    const std::vector<double> cells = operationMedians(cell_seconds);
    const std::vector<double> cpu = operationMedians(cell_cpu);
    const double round = std::accumulate(cells.begin(), cells.end(), 0.0);
    report.metric("setup_s", median(setup_seconds), "s");
    report.metric("sim_minst_per_s", double(insts_per_round) / round / 1e6,
                  "Minst/s");
    report.metric("cpu_s", std::accumulate(cpu.begin(), cpu.end(), 0.0),
                  "s");
    report.metric("peak_rss_mb", rss_mb, "MB");
    report.metric("ops_per_s", double(cells.size()) / round, "1/s");
    report.metric("op_p50_ms", percentile(cells, 50) * 1e3, "ms");
    report.metric("op_p90_ms", percentile(cells, 90) * 1e3, "ms");
}

} // namespace perfbench
