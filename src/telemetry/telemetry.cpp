#include "telemetry/telemetry.hpp"

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>

#include "core/build_info.hpp"
#include "trace/json.hpp"
#include "trace/registry.hpp"

namespace cooprt::telemetry {

double
monotonicSeconds()
{
    // cooprt-lint: allow(unseeded-randomness) telemetry is the
    // repository's single wall-clock authority; readings feed
    // host-side reporting only, never simulated state (DESIGN.md §16)
    const auto now = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(now.time_since_epoch())
        .count();
}

/* ------------------------------------------------------------------ */
/* Build provenance                                                    */
/* ------------------------------------------------------------------ */

void
writeBuildFields(trace::JsonWriter &w)
{
    w.field("revision", std::string(build::kGitRevision));
    w.field("dirty", build::kGitDirty ? "true" : "false");
    w.field("compiler", std::string(build::kCompiler));
    w.field("build_type", std::string(build::kBuildType));
    w.field("check", build::kCheckEnabled ? "true" : "false");
}

std::string
buildInfoJson()
{
    std::ostringstream ss;
    trace::JsonWriter w(ss);
    w.open();
    writeBuildFields(w);
    w.close();
    return ss.str();
}

/* ------------------------------------------------------------------ */
/* Process memory                                                      */
/* ------------------------------------------------------------------ */

Rss
parseProcStatus(std::istream &is)
{
    Rss rss;
    std::string line;
    while (std::getline(is, line)) {
        std::uint64_t *slot = nullptr;
        if (line.rfind("VmRSS:", 0) == 0)
            slot = &rss.current_kb;
        else if (line.rfind("VmHWM:", 0) == 0)
            slot = &rss.peak_kb;
        if (slot == nullptr)
            continue;
        std::istringstream fields(line.substr(6));
        std::uint64_t kb = 0;
        std::string unit;
        if (fields >> kb >> unit && unit == "kB")
            *slot = kb;
    }
    return rss;
}

Rss
readRss()
{
    std::ifstream status("/proc/self/status");
    if (!status)
        return Rss{}; // non-Linux hosts: degrade to zeros
    return parseProcStatus(status);
}

/* ------------------------------------------------------------------ */
/* Per-run recorder                                                    */
/* ------------------------------------------------------------------ */

const char *
phaseName(Phase phase)
{
    switch (phase) {
      case Phase::SceneLoad: return "scene_load";
      case Phase::BvhBuild: return "bvh_build";
      case Phase::Warmup: return "warmup";
      case Phase::SimLoop: return "sim_loop";
      case Phase::Report: return "report";
    }
    return "unknown";
}

void
Recorder::reset()
{
    summary_ = Summary{};
    live_cycle_.store(0, std::memory_order_relaxed);
    live_retired_warps_.store(0, std::memory_order_relaxed);
}

void
Recorder::recordPhase(Phase phase, double seconds)
{
    auto &span = summary_.phases[std::size_t(phase)];
    span.seconds += seconds;
    span.count++;
}

void
Recorder::finishRun(std::uint64_t cycles, std::uint64_t retired_warps)
{
    summary_.enabled = true;
    summary_.cycles = cycles;
    summary_.retired_warps = retired_warps;
    summary_.sim_seconds = summary_.phase(Phase::SimLoop).seconds;
    if (summary_.sim_seconds > 0.0) {
        summary_.cycles_per_sec =
            double(cycles) / summary_.sim_seconds;
        summary_.retired_warps_per_sec =
            double(retired_warps) / summary_.sim_seconds;
    }
    summary_.rss = readRss();
    publishProgress(cycles, retired_warps);
}

void
Recorder::registerMetrics(trace::Registry &registry)
{
    // Deterministic gauges only (simulated cycle / retired-warp
    // progress): these may join per-run metrics sessions without
    // breaking the jobs-1-vs-N byte-identity contract. Host wall
    // clock and RSS are campaign-registry-only (registerProbes).
    registry.probe(
        "telemetry.sim_cycle", [this] { return double(liveCycle()); },
        this);
    registry.probe(
        "telemetry.retired_warps",
        [this] { return double(liveRetiredWarps()); }, this);
}

void
Recorder::writeJson(std::ostream &os, const std::string &scene) const
{
    const Summary &s = summary_;
    trace::JsonWriter w(os);
    w.open();
    trace::writeSchemaVersion(w);
    if (run_key_.valid())
        trace::writeRunKey(w, run_key_);
    w.field("scene", scene);
    w.field("telemetry_version", 1);
    w.open("build");
    writeBuildFields(w);
    w.close();
    // Deterministic simulated totals, separated from "host" below so
    // identity tooling can compare them across worker counts.
    w.open("sim");
    w.field("cycles", s.cycles);
    w.field("retired_warps", s.retired_warps);
    w.close();
    w.open("host");
    w.open("phases");
    for (int p = 0; p < kNumPhases; ++p) {
        const PhaseSpan &span = s.phases[std::size_t(p)];
        w.open(phaseName(Phase(p)));
        w.field("seconds", span.seconds);
        w.field("count", span.count);
        w.close();
    }
    w.close();
    w.field("sim_seconds", s.sim_seconds);
    w.field("cycles_per_sec", s.cycles_per_sec);
    w.field("retired_warps_per_sec", s.retired_warps_per_sec);
    w.field("rss_current_kb", s.rss.current_kb);
    w.field("rss_peak_kb", s.rss.peak_kb);
    w.close();
    w.close();
    os << '\n';
}

/* ------------------------------------------------------------------ */
/* Event log                                                           */
/* ------------------------------------------------------------------ */

EventLog::EventLog(std::ostream *os) : os_(os)
{
    if (os_ != nullptr)
        t0_ = monotonicSeconds();
}

void
EventLog::emit(const char *event, const std::string &deterministic,
               const std::string &host)
{
    if (os_ == nullptr)
        return;
    std::ostringstream line;
    line << "{\"ev\":\"" << event << '"';
    if (!deterministic.empty())
        line << ',' << deterministic;
    line << ",\"host\":{\"t_s\":" << (monotonicSeconds() - t0_);
    if (!host.empty())
        line << ',' << host;
    line << "}}\n";
    std::lock_guard<std::mutex> lock(mutex_);
    *os_ << line.str();
    os_->flush();
}

void
EventLog::campaignBegin(std::size_t jobs, int workers)
{
    // Worker count is a host scheduling choice, so it lives in the
    // host object: two runs of the same matrix with different --jobs
    // must project to identical deterministic lines.
    emit("campaign_begin",
         "\"jobs\":" + std::to_string(jobs) +
             ",\"build\":" + buildInfoJson(),
         "\"workers\":" + std::to_string(workers));
}

void
EventLog::jobStart(std::size_t index, const std::string &tag,
                   int attempt)
{
    emit("job_start",
         "\"index\":" + std::to_string(index) +
             ",\"tag\":" + trace::quoteJson(tag) +
             ",\"attempt\":" + std::to_string(attempt));
}

void
EventLog::jobRetry(std::size_t index, const std::string &tag,
                   int next_attempt)
{
    emit("job_retry",
         "\"index\":" + std::to_string(index) +
             ",\"tag\":" + trace::quoteJson(tag) +
             ",\"next_attempt\":" + std::to_string(next_attempt));
}

void
EventLog::jobTimeout(std::size_t index, const std::string &tag,
                     double budget_s)
{
    emit("job_timeout",
         "\"index\":" + std::to_string(index) +
             ",\"tag\":" + trace::quoteJson(tag) +
             ",\"budget_s\":" + std::to_string(budget_s));
}

void
EventLog::jobFinish(std::size_t index, const std::string &tag,
                    bool ok, int attempts, std::uint64_t cycles,
                    double duration_s)
{
    std::ostringstream host;
    host << "\"duration_s\":" << duration_s
         << ",\"rss_peak_kb\":" << readRss().peak_kb;
    emit("job_finish",
         "\"index\":" + std::to_string(index) +
             ",\"tag\":" + trace::quoteJson(tag) + ",\"ok\":" +
             (ok ? "true" : "false") +
             ",\"attempts\":" + std::to_string(attempts) +
             ",\"cycles\":" + std::to_string(cycles),
         host.str());
}

void
EventLog::campaignEnd(const CampaignCounters &c, double wall_seconds)
{
    std::ostringstream host;
    host << "\"wall_seconds\":" << wall_seconds
         << ",\"steals\":" << c.steals
         << ",\"rss_peak_kb\":" << readRss().peak_kb;
    // Steals are scheduling-dependent (worker-count-sensitive), so
    // they report under host even though the counter is integral.
    emit("campaign_end",
         "\"done\":" + std::to_string(c.done) +
             ",\"failed\":" + std::to_string(c.failed) +
             ",\"retried\":" + std::to_string(c.retried) +
             ",\"timed_out\":" + std::to_string(c.timed_out),
         host.str());
}

/* ------------------------------------------------------------------ */
/* Campaign monitor                                                    */
/* ------------------------------------------------------------------ */

namespace {

/** EWMA smoothing for per-job durations: responsive within ~5 jobs
 *  while damping one outlier to 30% weight. */
constexpr double kEwmaAlpha = 0.3;

} // namespace

void
CampaignMonitor::begin(std::size_t total_jobs, int workers)
{
    std::lock_guard<std::mutex> lock(mutex_);
    total_jobs_ = total_jobs;
    workers_ = workers > 0 ? workers : 1;
    t0_ = monotonicSeconds();
    ewma_seconds_ = 0.0;
    finished_ = 0;
}

void
CampaignMonitor::jobFinished(double duration_seconds)
{
    std::lock_guard<std::mutex> lock(mutex_);
    finished_++;
    ewma_seconds_ = finished_ == 1
                        ? duration_seconds
                        : kEwmaAlpha * duration_seconds +
                              (1.0 - kEwmaAlpha) * ewma_seconds_;
}

double
CampaignMonitor::ewmaJobSeconds() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return ewma_seconds_;
}

double
CampaignMonitor::jobsPerSecond(const CampaignCounters &c) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const double elapsed = monotonicSeconds() - t0_;
    return elapsed > 0.0 ? double(c.done) / elapsed : 0.0;
}

double
CampaignMonitor::etaSeconds(const CampaignCounters &c) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (finished_ == 0)
        return -1.0;
    const std::uint64_t ended = c.done + c.failed;
    const std::uint64_t remaining =
        total_jobs_ > ended ? total_jobs_ - ended : 0;
    return double(remaining) * ewma_seconds_ / double(workers_);
}

std::string
CampaignMonitor::statusLine(const CampaignCounters &c) const
{
    const double ewma = ewmaJobSeconds();
    const double eta = etaSeconds(c);
    const Rss rss = readRss();
    char buf[256];
    std::size_t total;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        total = total_jobs_;
    }
    std::snprintf(buf, sizeof buf,
                  "%llu/%zu done, %llu failed, %llu running, "
                  "%llu steals, ewma %.2f s, eta %s, rss %llu MB",
                  (unsigned long long)c.done, total,
                  (unsigned long long)c.failed,
                  (unsigned long long)c.running,
                  (unsigned long long)c.steals, ewma,
                  eta < 0.0
                      ? "?"
                      : (std::to_string(int(eta + 0.5)) + " s").c_str(),
                  (unsigned long long)(rss.current_kb / 1024));
    return buf;
}

void
CampaignMonitor::registerProbes(trace::Registry &registry,
                                const void *owner)
{
    auto counters = [this]() -> CampaignCounters {
        return counters_fn_ ? counters_fn_() : CampaignCounters{};
    };
    registry.probe(
        "telemetry.ewma_job_seconds",
        [this] { return ewmaJobSeconds(); }, owner);
    registry.probe(
        "telemetry.jobs_per_second",
        [this, counters] { return jobsPerSecond(counters()); },
        owner);
    registry.probe(
        "telemetry.eta_seconds",
        [this, counters] { return etaSeconds(counters()); }, owner);
    registry.probe(
        "telemetry.rss_current_kb",
        [] { return double(readRss().current_kb); }, owner);
    registry.probe(
        "telemetry.rss_peak_kb",
        [] { return double(readRss().peak_kb); }, owner);
}

void
CampaignMonitor::writePrometheusTo(std::ostream &os,
                                   const CampaignCounters &c) const
{
    auto metric = [&os](const char *name, const char *help,
                        const char *type, double value) {
        os << "# HELP " << name << ' ' << help << '\n'
           << "# TYPE " << name << ' ' << type << '\n'
           << name << ' ' << value << '\n';
    };
    metric("cooprt_jobs_queued", "Jobs submitted to the campaign.",
           "gauge", double(c.queued));
    metric("cooprt_jobs_running", "Jobs currently executing.",
           "gauge", double(c.running));
    metric("cooprt_jobs_done", "Jobs completed successfully.",
           "counter", double(c.done));
    metric("cooprt_jobs_failed", "Jobs that gave up.", "counter",
           double(c.failed));
    metric("cooprt_jobs_retried", "Re-queued job attempts.",
           "counter", double(c.retried));
    metric("cooprt_jobs_timed_out",
           "Failures that were wall-clock timeouts.", "counter",
           double(c.timed_out));
    metric("cooprt_steals_total",
           "Jobs taken from another worker's queue.", "counter",
           double(c.steals));
    metric("cooprt_job_seconds_ewma",
           "EWMA of per-job wall-clock seconds.", "gauge",
           ewmaJobSeconds());
    metric("cooprt_jobs_per_second",
           "Completed jobs per wall-clock second.", "gauge",
           jobsPerSecond(c));
    metric("cooprt_eta_seconds",
           "Estimated seconds to campaign completion.", "gauge",
           etaSeconds(c));
    const Rss rss = readRss();
    metric("cooprt_rss_current_kb", "Resident set size, kB.", "gauge",
           double(rss.current_kb));
    metric("cooprt_rss_peak_kb", "Peak resident set size, kB.",
           "gauge", double(rss.peak_kb));
    os << "# HELP cooprt_build_info Build provenance (value is "
          "always 1).\n"
       << "# TYPE cooprt_build_info gauge\n"
       << "cooprt_build_info{revision=\""
       << trace::escapeJson(build::kGitRevision) << "\",dirty=\""
       << (build::kGitDirty ? "1" : "0") << "\",build_type=\""
       << trace::escapeJson(build::kBuildType) << "\",check=\""
       << (build::kCheckEnabled ? "1" : "0") << "\"} 1\n";
}

void
CampaignMonitor::writePrometheus(const std::string &path,
                                 const CampaignCounters &c) const
{
    // Never replace something that is not a regular file (a device,
    // FIFO or directory the caller named by mistake).
    std::error_code ec;
    const auto st = std::filesystem::status(path, ec);
    if (std::filesystem::exists(st) &&
        !std::filesystem::is_regular_file(st))
        return;
    const std::string tmp = path + ".tmp";
    {
        std::ofstream os(tmp);
        if (!os)
            return; // snapshotting is best-effort; never fail a run
        writePrometheusTo(os, c);
    }
    std::rename(tmp.c_str(), path.c_str());
}

/* ------------------------------------------------------------------ */
/* Heartbeat                                                           */
/* ------------------------------------------------------------------ */

Heartbeat::Heartbeat(double interval_seconds,
                     std::function<std::string()> status,
                     std::ostream &os)
    : thread_([this, interval_seconds, status = std::move(status),
               &os](std::stop_token st) {
          std::mutex m;
          std::condition_variable_any cv;
          const auto interval = std::chrono::duration_cast<
              std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(
                  interval_seconds > 0.0 ? interval_seconds : 1.0));
          std::unique_lock<std::mutex> lock(m);
          while (!st.stop_requested()) {
              // Stop-token-aware nap: wakes immediately on shutdown,
              // so short campaigns never block on a long interval.
              if (cv.wait_for(lock, st, interval,
                              [] { return false; }))
                  break;
              if (st.stop_requested())
                  break;
              os << "[telemetry] " << status() << '\n';
              os.flush();
              beats_.fetch_add(1, std::memory_order_relaxed);
          }
      })
{
}

Heartbeat::~Heartbeat()
{
    thread_.request_stop();
}

} // namespace cooprt::telemetry
