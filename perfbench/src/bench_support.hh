/**
 * @file
 * Shared plumbing of the perfbench driver: host clocks, statistics,
 * the span recorder that attributes a traced run to mlpsim's layers,
 * materialised workload preparation through the layers' public calls,
 * and the result document every workload fills in.
 *
 * Nothing here reaches inside src/: every span wraps one call into a
 * layer's public function (TraceBuffer::fill, AccessProfiler::profile,
 * branch::annotateBranches, predictor::annotateValues,
 * core::tryRunMlp, CycleSim::run, trace::writeTrace / readTrace, ...).
 */
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "core/mlpsim.hh"
#include "metrics/json.hh"
#include "trace/trace_buffer.hh"

namespace perfbench {

using mlpsim::metrics::JsonValue;

/** Monotonic wall clock, seconds. */
double nowSeconds();
/** User + system CPU in @p usage, seconds. */
double cpuSeconds(const rusage &usage);
/** User + system CPU of this process so far, seconds. */
double processCpuSeconds();
/** High-water resident set of this process (VmHWM), MB. */
double peakRssMb();

/** Median of @p values (0 when empty). */
double median(std::vector<double> values);
/**
 * Percentile @p p (0..100) by linear interpolation between closest
 * ranks, the definition of Python's statistics.quantiles(method=
 * "inclusive"). 0 when empty.
 */
double percentile(std::vector<double> values, double p);

/**
 * Each operation's median across rounds: @p per_round[r][i] is
 * operation i of round r (every round runs the same operations).
 * Host slowdowns come and go within seconds, so the median of an
 * operation's samples, taken seconds apart, drops the slow ones that
 * a whole-round total would keep.
 */
std::vector<double>
operationMedians(const std::vector<std::vector<double>> &per_round);

/** Instruction budget of one prepared trace. */
struct Budget
{
    uint64_t warmup = 0;
    uint64_t insts = 0;
    uint64_t total() const { return warmup + insts; }
};

/**
 * Trace seed of commercial workload @p name for benchmark seed
 * @p seed: seed 0 keeps the paper benches' name-derived seed, any
 * other seed derives a distinct, reproducible one from it.
 */
uint64_t traceSeed(const std::string &name, uint64_t seed);

// ---------------------------------------------------------------------
// Spans.

/** One recorded layer call (or the traced run's root). */
struct Span
{
    std::string name;  //!< "<layer>.<call>", e.g. "core.engine"
    uint64_t id = 0;   //!< shared by the spans of one cell / request
    int parent = -1;   //!< index of the enclosing span, -1 for the root
    double start = 0;  //!< seconds on nowSeconds()'s clock
    double end = 0;
    uint64_t work = 0; //!< instructions (or bytes) the call processed
};

/** Per-name aggregate of a span tree. */
struct SpanTotals
{
    double total = 0; //!< summed durations
    double self = 0;  //!< summed durations minus covered child time
    uint64_t work = 0;
    uint64_t calls = 0;
};

/**
 * In-memory span recorder for one thread (every layer call the
 * benchmark makes runs on its main thread). Disabled, a Scope costs
 * one branch; enabled, spans are appended and written out at the end.
 */
class Tracer
{
  public:
    void setEnabled(bool on) { enabled = on; }
    bool isEnabled() const { return enabled; }

    int begin(const std::string &name, uint64_t id);
    void end(int index, uint64_t work);

    const std::vector<Span> &spans() const { return recorded; }
    /** Aggregates keyed by span name; self excludes child spans. */
    std::map<std::string, SpanTotals> totals() const;
    /** Chrome trace_event document of every span. */
    JsonValue chromeTrace() const;

  private:
    bool enabled = false;
    std::vector<Span> recorded;
    std::vector<int> open;
};

/** The process-wide tracer. */
Tracer &tracer();

/** RAII span around one layer call (no-op while tracing is off). */
class Scope
{
  public:
    Scope(const std::string &name, uint64_t id)
        : index(tracer().isEnabled() ? tracer().begin(name, id) : -1)
    {
    }
    ~Scope()
    {
        if (index >= 0)
            tracer().end(index, work);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    void setWork(uint64_t w) { work = w; }

  private:
    int index;
    uint64_t work = 0;
};

// ---------------------------------------------------------------------
// Materialised workload preparation.

/** A generated trace plus its annotation planes. */
struct Prepared
{
    std::string name;
    uint64_t warmup = 0;
    std::unique_ptr<mlpsim::trace::TraceBuffer> buffer;
    mlpsim::memory::MissAnnotations misses;
    mlpsim::branch::BranchAnnotations branches;
    mlpsim::predictor::ValueAnnotations values;

    mlpsim::core::WorkloadContext context() const;
};

/** Fill a buffer from @p source (span "workloads.gen"). */
std::unique_ptr<mlpsim::trace::TraceBuffer>
generate(mlpsim::trace::TraceSource &source, const std::string &name,
         uint64_t total, uint64_t id);

/**
 * Annotate @p buffer with the default substrates, one span per
 * annotator ("memory.profile", "branch.annotate",
 * "predictor.annotate").
 */
std::unique_ptr<Prepared>
annotate(std::unique_ptr<mlpsim::trace::TraceBuffer> buffer,
         uint64_t warmup, uint64_t id);

/** Run one epoch-model cell (span "core.engine" / "core.inorder"). */
mlpsim::Expected<mlpsim::core::MlpResult>
runCell(mlpsim::core::MlpConfig config,
        const mlpsim::core::WorkloadContext &context, uint64_t warmup,
        uint64_t id);

/** True when both results serialise to the same presentation JSON. */
bool sameResult(const mlpsim::core::MlpResult &a,
                const mlpsim::core::MlpResult &b);

// ---------------------------------------------------------------------
// Results.

/** Options every workload receives. */
struct RunOptions
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 1;
    bool trace = false;
    bool smoke = false;
    std::string outDir;  //!< where span files and scratch data go
    std::string binDir;  //!< directory holding mlpsimd
};

/**
 * Whether to start another round, @p rounds having run since @p start:
 * always below @p min_rounds; otherwise, outside smoke runs, while one
 * more round of the mean length so far still ends within
 * opts.seconds, so a run measures whole rounds and never overruns.
 */
bool anotherRound(const RunOptions &opts, int rounds, int min_rounds,
                  double start);

/** What a workload reports. */
struct Report
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> checkFailures;
    /** name -> (value, unit), in insertion order. */
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics;
    /** Free-form context printed on stderr (not a metric). */
    std::vector<std::string> notes;

    void
    metric(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, {value, unit}});
    }
    /** Record a failed output check (makes the run incorrect). */
    void check(bool ok, const std::string &what);
};

/**
 * The traced run: @p pass once with tracing off (its wall time is the
 * baseline for the tracing overhead), then once more inside the root
 * span "run" with every layer span recorded. Reports the per-layer
 * metrics the spans give (times, rates, call counts, `unattributed_s`)
 * and `util.cpu_per_wall`, counting @p child_cpu() seconds of child
 * processes, and writes the Chrome trace and the self-time table under
 * opts.outDir.
 */
void tracedRun(const RunOptions &opts, Report &report,
               const std::function<void()> &pass,
               const std::function<double()> &child_cpu = {});

/**
 * The end-to-end metrics of a sweep workload from its set-up times and
 * its per-round, per-cell wall and CPU seconds: per-cell medians across
 * rounds give the round's time, CPU and the latency percentiles.
 */
void reportSweep(Report &report, const std::vector<double> &setup_seconds,
                 const std::vector<std::vector<double>> &cell_seconds,
                 const std::vector<std::vector<double>> &cell_cpu,
                 uint64_t insts_per_round, double rss_mb);

/**
 * The workloads (one file each). They fill @p report and return 0, or
 * return 2 when the run could not be carried out at all.
 */
int runEpochSweep(const RunOptions &opts, Report &report);
int runCycleSimStream(const RunOptions &opts, Report &report);
int runDaemonMix(const RunOptions &opts, Report &report);

} // namespace perfbench
