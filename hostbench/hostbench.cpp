/**
 * @file
 * Host-speed benchmark binary for the cooprt simulator.
 *
 * One process runs one named workload (see NOTES.md for why each was
 * chosen) either untraced, for the end-to-end metrics, or traced, for
 * the per-layer metrics. Every span is taken here, around calls into
 * the library's public API; nothing inside src/ is instrumented.
 *
 *     cooprt_hostbench --workload fig09 --seed 1 --seconds 25 --trace 0
 *     cooprt_hostbench --workload fig09 --seed 1 --setup-only
 *
 * The result is one JSON object on stdout. Diagnostics go to stderr.
 * Exit status: 0 when every correctness check passed, 1 when any
 * failed, 2 on a usage error.
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <time.h>

#include "bvh/wide_bvh.hpp"
#include "core/simulation.hpp"
#include "exec/exec.hpp"
#include "mem/memory_system.hpp"
#include "query/query.hpp"
#include "rtunit/rt_unit.hpp"
#include "scene/registry.hpp"
#include "shaders/path_tracer.hpp"
#include "stats/table.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace cooprt;
using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** CPU seconds consumed by the calling thread. Unlike wall time it
 *  does not count time the thread spent descheduled. */
double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + 1e-9 * double(ts.tv_nsec);
}

/** The reference loop's result, kept so the loop is not optimised away. */
volatile std::uint32_t referenceSink = 0;

/**
 * Seconds for a fixed piece of reference work that shares nothing with
 * the library: ray/box slab tests along a random pointer chase through
 * 14 MB of boxes, with a probe per step into a hash map of 256K
 * entries. It is timed after every pass and after every set-up so that
 * run.py can scale host times to one host speed: on a shared host the
 * speed drifts by 20% and more from one minute to the next, and this
 * loop's time follows those swings. Its working set is larger than a
 * core's L2, like the simulator's, so it also feels contention for the
 * shared L3. The first call builds the tables (about 25 MB).
 */
double
referenceSeconds()
{
    struct Box
    {
        float lo[3], hi[3];
        std::uint32_t next;
    };
    constexpr std::uint32_t kBoxes = 1u << 19;
    constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ull;
    static const std::vector<Box> boxes = [] {
        std::vector<Box> v(kBoxes);
        std::uint64_t x = kGolden;
        auto rnd = [&x] {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            return x;
        };
        for (Box &b : v) {
            for (int a = 0; a < 3; ++a) {
                const float c = float(rnd() % 1000) * 0.001f;
                b.lo[a] = c - 0.05f;
                b.hi[a] = c + 0.05f;
            }
            b.next = std::uint32_t(rnd() % kBoxes);
        }
        return v;
    }();
    static const std::unordered_map<std::uint64_t, std::uint32_t> table = [] {
        std::unordered_map<std::uint64_t, std::uint32_t> t;
        for (std::uint32_t i = 0; i < kBoxes / 2; ++i)
            t.emplace(std::uint64_t(i) * kGolden >> 20, i);
        return t;
    }();

    const auto t0 = Clock::now();
    std::uint32_t j = 0, hits = 0;
    float org[3] = {0.5f, 0.5f, 0.5f};
    const float inv_dir[3] = {1.3f, -0.7f, 2.1f};
    for (int i = 0; i < 4000000; ++i) {
        const Box &b = boxes[j];
        float tmin = 0.0f, tmax = 1e30f;
        for (int a = 0; a < 3; ++a) {
            float t0a = (b.lo[a] - org[a]) * inv_dir[a];
            float t1a = (b.hi[a] - org[a]) * inv_dir[a];
            if (t0a > t1a)
                std::swap(t0a, t1a);
            tmin = std::max(tmin, t0a);
            tmax = std::min(tmax, t1a);
        }
        hits += tmin <= tmax;
        const auto it = table.find(std::uint64_t(j) * kGolden >> 20);
        j = b.next ^ (it != table.end() ? it->second & 1u : 0u);
        org[i % 3] = float(j & 1023u) * 0.001f;
    }
    const double sec = secondsBetween(t0, Clock::now());
    referenceSink = hits + j;
    return sec;
}

/** The Fig. 9 gmean speedup the paper reports. */
constexpr double kPaperSpeedup = 2.15;
/** Films must match the functional reference to this tolerance. */
constexpr float kFilmTolerance = 1e-5f;

/* ------------------------------------------------------------------ */
/* Workloads                                                           */
/* ------------------------------------------------------------------ */

struct RunSpec
{
    std::string scene;
    core::ShaderKind shader = core::ShaderKind::PathTracing;
    bool coop = false;
};

struct Workload
{
    std::string name;
    std::vector<RunSpec> runs;
    /** Run each pass through exec::Campaign (else serially). */
    bool campaign = false;
    /** Attach every observer and write its exports. */
    bool observed = false;
};

Workload
workloadFor(const std::string &name)
{
    using core::ShaderKind;
    Workload w;
    w.name = name;
    if (name == "fig09") {
        w.campaign = true;
        for (const auto &l : scene::SceneRegistry::allLabels())
            for (bool coop : {false, true})
                w.runs.push_back({l, ShaderKind::PathTracing, coop});
    } else if (name == "query-base") {
        w.runs = {{"ptsu", ShaderKind::QueryKnn, false},
                  {"ptsc", ShaderKind::QueryRadius, false},
                  {"amrd", ShaderKind::QueryContain, false}};
    } else if (name == "observed") {
        w.observed = true;
        for (const char *l : {"bunny", "ship"})
            for (bool coop : {false, true})
                w.runs.push_back({l, ShaderKind::PathTracing, coop});
    } else {
        throw std::invalid_argument("unknown workload '" + name +
                                    "' (fig09, query-base, observed)");
    }
    return w;
}

std::vector<std::string>
uniqueScenes(const Workload &w)
{
    std::vector<std::string> out;
    for (const auto &r : w.runs)
        if (std::find(out.begin(), out.end(), r.scene) == out.end())
            out.push_back(r.scene);
    return out;
}

query::Workload
queryWorkload(core::ShaderKind k)
{
    return k == core::ShaderKind::QueryRadius ? query::Workload::Radius
           : k == core::ShaderKind::QueryContain
               ? query::Workload::Contain
               : query::Workload::Knn;
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool traced = false;
    bool setup_only = false;
    /** Resolution override (0 = each scene's bench resolution). */
    int resolution = 0;
    /** Deliberate corruption for the gate self-test: film|oracle. */
    std::string inject;
    std::string out_dir = ".bench_build/out";
};

core::RunConfig
configFor(const RunSpec &spec, const Options &opt)
{
    core::RunConfig cfg;
    cfg.shader = spec.shader;
    cfg.gpu.trace.coop = spec.coop;
    cfg.resolution = opt.resolution;
    cfg.pt.frame_seed = opt.seed;
    cfg.query.frame_seed = opt.seed;
    cfg.query.verify = true;
    return cfg;
}

int
resolutionOf(const core::RunConfig &cfg, const std::string &label)
{
    return cfg.resolution > 0
               ? cfg.resolution
               : scene::SceneRegistry::get(label).default_resolution;
}

std::string
runTag(const RunSpec &spec)
{
    return spec.scene + "-" + core::shaderToken(spec.shader) +
           (spec.coop ? "-coop" : "-base");
}

/* ------------------------------------------------------------------ */
/* Observers                                                           */
/* ------------------------------------------------------------------ */

enum ObserverBit : unsigned
{
    kProf = 1,
    kMemscope = 2,
    kRayTrace = 4,
    kTrace = 8,
    kTelemetry = 16,
    kAllObservers = 31,
};

constexpr std::pair<ObserverBit, const char *> kObserverNames[] = {
    {kProf, "prof"},         {kMemscope, "memscope"},
    {kRayTrace, "raytrace"}, {kTrace, "trace"},
    {kTelemetry, "telemetry"},
};

trace::SessionOptions
sessionOptions()
{
    trace::SessionOptions o;
    o.events = true;
    o.metrics = true;
    o.metrics_interval = gpu::GpuConfig::rtx2060Bench().sample_interval;
    return o;
}

/** The observers of one pass; each run resets the ones it uses. */
struct Observers
{
    explicit Observers(unsigned m) : mask(m), session(sessionOptions()) {}

    void
    attach(core::RunConfig &cfg)
    {
        if (mask & kProf)
            cfg.profiler = &profiler;
        if (mask & kMemscope)
            cfg.memscope = &mscope;
        if (mask & kRayTrace)
            cfg.ray_recorder = &ray;
        if (mask & kTrace)
            cfg.trace_session = &session;
        if (mask & kTelemetry)
            cfg.telemetry = &telem;
    }

    /** Write every attached observer's exports for one run. */
    void
    write(const std::string &dir, const std::string &tag,
          const core::RunOutcome &out) const
    {
        const std::string base = dir + "/" + tag;
        auto file = [](const std::string &path, auto &&writer) {
            std::ofstream os(path);
            if (!os)
                throw std::runtime_error("cannot write " + path);
            writer(os);
            if (!os)
                throw std::runtime_error("write failed: " + path);
        };
        if (mask & kProf) {
            file(base + ".folded",
                 [&](std::ostream &os) { profiler.writeFolded(os, out.scene); });
            file(base + ".prof.json",
                 [&](std::ostream &os) { profiler.writeJson(os, out.scene); });
        }
        if (mask & kMemscope) {
            file(base + ".memscope.folded",
                 [&](std::ostream &os) { mscope.writeFolded(os, out.scene); });
            file(base + ".memscope.json",
                 [&](std::ostream &os) { mscope.writeJson(os, out.scene); });
        }
        if (mask & kRayTrace)
            file(base + ".raystats.json", [&](std::ostream &os) {
                ray.writeRayStatsJson(os, out.scene);
            });
        if (mask & kTrace) {
            file(base + ".trace.json",
                 [&](std::ostream &os) { session.writeTrace(os); });
            file(base + ".metrics.csv",
                 [&](std::ostream &os) { session.writeMetricsCsv(os); });
        }
        if (mask & kTelemetry)
            file(base + ".telemetry.json",
                 [&](std::ostream &os) { telem.writeJson(os, out.scene); });
    }

    unsigned mask;
    trace::Session session;
    prof::Profiler profiler;
    raytrace::Recorder ray;
    memscope::Collector mscope;
    telemetry::Recorder telem;
};

/* ------------------------------------------------------------------ */
/* One pass over a workload                                            */
/* ------------------------------------------------------------------ */

struct RunResult
{
    bool ok = false;
    std::string error;
    core::RunOutcome out;
    std::unique_ptr<shaders::Film> film;
    /** Host wall seconds inside core::Simulation::run. */
    double host_s = 0.0;
    /** CPU seconds of the simulating thread inside the run. */
    double cpu_s = 0.0;
    /** Start offset from the pass start (campaign scheduling). */
    double start_s = 0.0;
};

struct PassResult
{
    std::vector<RunResult> runs;
    double wall_s = 0.0;
    int workers = 1;
    std::uint64_t exec_steals = 0;
};

struct PassOptions
{
    unsigned observers = 0;
    /** Write the observers' exports (the observed workload does). */
    bool write_exports = false;
};

std::unique_ptr<shaders::Film>
filmFor(const RunSpec &spec, const core::RunConfig &cfg)
{
    if (spec.shader != core::ShaderKind::PathTracing)
        return nullptr;
    const int res = resolutionOf(cfg, spec.scene);
    return std::make_unique<shaders::Film>(res, res);
}

PassResult
runSerialPass(const Workload &w, const Options &opt, const PassOptions &po)
{
    PassResult pass;
    pass.runs.resize(w.runs.size());
    std::unique_ptr<Observers> obs;
    if (po.observers != 0)
        obs = std::make_unique<Observers>(po.observers);
    const std::string dir = opt.out_dir + "/" + w.name;
    if (po.write_exports)
        std::filesystem::create_directories(dir);

    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < w.runs.size(); ++i) {
        const RunSpec &spec = w.runs[i];
        RunResult &r = pass.runs[i];
        core::RunConfig cfg = configFor(spec, opt);
        if (obs)
            obs->attach(cfg);
        r.film = filmFor(spec, cfg);
        const auto a = Clock::now();
        r.start_s = secondsBetween(t0, a);
        const double cpu0 = threadCpuSeconds();
        try {
            r.out = core::simulationFor(spec.scene).run(cfg, r.film.get());
            r.ok = true;
        } catch (const std::exception &e) {
            r.error = e.what();
        }
        r.cpu_s = threadCpuSeconds() - cpu0;
        r.host_s = secondsBetween(a, Clock::now());
        if (r.ok && obs && po.write_exports) {
            try {
                obs->write(dir, runTag(spec), r.out);
            } catch (const std::exception &e) {
                r.ok = false;
                r.error = e.what();
            }
        }
    }
    pass.wall_s = secondsBetween(t0, Clock::now());
    return pass;
}

int
campaignWorkers()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return int(std::clamp(hw == 0 ? 1u : hw, 1u, 4u));
}

PassResult
runCampaignPass(const Workload &w, const Options &opt, bool profile)
{
    PassResult pass;
    pass.runs.resize(w.runs.size());
    pass.workers = campaignWorkers();
    exec::CampaignOptions copt;
    copt.jobs = pass.workers;
    exec::Campaign camp(copt);
    for (std::size_t i = 0; i < w.runs.size(); ++i) {
        core::RunConfig cfg = configFor(w.runs[i], opt);
        pass.runs[i].film = filmFor(w.runs[i], cfg);
        camp.add(exec::Job{w.runs[i].scene, cfg, std::to_string(i)});
    }
    const auto t0 = Clock::now();
    // The runner writes only its own job's slot, so workers never
    // share a RunResult.
    camp.setRunner([&](const exec::Job &job, std::stop_token) {
        RunResult &r = pass.runs[std::stoul(job.tag)];
        r.start_s = secondsBetween(t0, Clock::now());
        core::RunConfig cfg = job.config;
        prof::Profiler profiler;
        if (profile)
            cfg.profiler = &profiler;
        const double cpu0 = threadCpuSeconds();
        core::RunOutcome out =
            core::simulationFor(job.scene_label).run(cfg, r.film.get());
        r.cpu_s = threadCpuSeconds() - cpu0;
        return out;
    });
    std::vector<exec::JobResult> results = camp.run();
    pass.wall_s = secondsBetween(t0, Clock::now());
    pass.exec_steals = camp.stats().steals.load();
    for (std::size_t i = 0; i < results.size(); ++i) {
        RunResult &r = pass.runs[i];
        r.ok = results[i].ok;
        r.host_s = results[i].wall_seconds;
        if (r.ok)
            r.out = std::move(results[i].outcome);
        else
            r.error = results[i].failure ? results[i].failure->message
                                         : "job failed";
    }
    return pass;
}

PassResult
runPass(const Workload &w, const Options &opt, bool profile = false)
{
    if (w.campaign)
        return runCampaignPass(w, opt, profile);
    PassOptions po;
    if (w.observed) {
        po.observers = kAllObservers;
        po.write_exports = true;
    } else if (profile) {
        po.observers = kProf;
    }
    return runSerialPass(w, opt, po);
}

/* ------------------------------------------------------------------ */
/* Correctness gate                                                    */
/* ------------------------------------------------------------------ */

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

/** FNV-1a step over the 8 bytes of @p v. */
void
fnvMix(std::uint64_t &h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ull;
    }
}

/** FNV-1a over every deterministic counter of a run's outcome. */
std::uint64_t
outcomeDigest(const core::RunOutcome &o)
{
    std::uint64_t h = kFnvOffset;
    auto mix = [&](std::uint64_t v) { fnvMix(h, v); };
    const auto &g = o.gpu;
    mix(g.cycles);
    const rtunit::RtUnitStats &s = g.rt;
    for (std::uint64_t v :
         {s.node_fetches, s.leaf_fetches, s.box_tests, s.tri_tests,
          s.steals, s.coalesced_threads, s.stale_pops, s.stack_overflows,
          s.retired_warps, s.retired_trace_latency, s.max_trace_latency,
          s.issue_cycles, s.prefetches, s.predictor_hits,
          s.predictor_misses, s.hit_stores})
        mix(v);
    for (const mem::CacheStats *c : {&g.l1, &g.l2})
        for (std::uint64_t v : {c->accesses, c->hits, c->misses,
                                c->mshr_merges, c->sector_misses})
            mix(v);
    mix(g.dram.requests);
    mix(g.dram.bytes);
    mix(g.dram.busy_cycles);
    mix(g.mem_sys.l2_bytes);
    mix(g.mem_sys.l2_busy_cycles);
    mix(o.query.queries);
    mix(o.query.rounds);
    mix(o.query.found);
    mix(o.query.checksum);
    return h;
}

class Gate
{
  public:
    Gate(const Workload &w, const Options &opt) : w_(w), opt_(opt) {}

    /** Check every run of @p pass; the first pass checked sets the
     *  digests later passes must repeat. */
    void
    checkPass(const PassResult &pass, const std::string &what)
    {
        const bool first = digests_.empty();
        if (first)
            digests_.resize(pass.runs.size());
        for (std::size_t i = 0; i < pass.runs.size(); ++i) {
            const RunResult &r = pass.runs[i];
            const RunSpec &spec = w_.runs[i];
            const std::string who = what + " " + runTag(spec);
            ++attempted_;
            std::string why;
            if (!r.ok) {
                why = "run failed: " + r.error;
            } else {
                why = checkFilm(r, spec);
                if (why.empty())
                    why = checkPair(pass, i);
                if (why.empty())
                    why = checkQuery(r, spec);
                const std::uint64_t d = outcomeDigest(r.out);
                if (first)
                    digests_[i] = d;
                else if (why.empty() && d != digests_[i])
                    why = "outcome digest differs from the first pass";
            }
            if (!why.empty())
                fail(who + ": " + why);
        }
    }

    /** Check a film produced outside a pass (the layer harness). */
    void
    checkHarnessFilm(const RunSpec &spec, const shaders::Film &film)
    {
        ++attempted_;
        const std::string why = compareToReference(spec, film);
        if (!why.empty())
            fail("harness " + runTag(spec) + ": " + why);
    }

    void
    checkHarnessOracle(const RunSpec &spec, std::uint64_t mismatches)
    {
        ++attempted_;
        if (mismatches != 0)
            fail("harness " + runTag(spec) + ": " +
                 std::to_string(mismatches) + " oracle mismatches");
    }

    /** Digest over every run of the first pass checked: equal for
     *  every run of one workload and seed, traced or not. */
    std::uint64_t
    workloadDigest() const
    {
        std::uint64_t h = kFnvOffset;
        for (std::uint64_t d : digests_)
            fnvMix(h, d);
        return h;
    }

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    const std::vector<std::string> &failures() const { return failures_; }

  private:
    void
    fail(const std::string &msg)
    {
        ++failed_;
        failures_.push_back(msg);
        std::fprintf(stderr, "[hostbench] FAIL %s\n", msg.c_str());
    }

    const shaders::Film &
    reference(const RunSpec &spec)
    {
        auto it = refs_.find(spec.scene);
        if (it != refs_.end())
            return *it->second;
        const core::RunConfig cfg = configFor(spec, opt_);
        const int res = resolutionOf(cfg, spec.scene);
        auto film = std::make_unique<shaders::Film>(res, res);
        const core::Simulation &sim = core::simulationFor(spec.scene);
        shaders::renderReference(sim.scene(), sim.bvh(), *film, 1, cfg.pt);
        if (opt_.inject == "film" && refs_.empty()) {
            // Self-test: one flipped pixel must fail the gate.
            shaders::Film flipped(res, res);
            for (int y = 0; y < res; ++y)
                for (int x = 0; x < res; ++x)
                    flipped.add(x, y,
                                film->pixel(x, y) +
                                    geom::Vec3(x == 0 && y == 0 ? 1.0f
                                                                : 0.0f));
            *film = flipped;
        }
        return *refs_.emplace(spec.scene, std::move(film))
                    .first->second;
    }

    static std::string
    showPixel(const geom::Vec3 &p)
    {
        char buf[96];
        std::snprintf(buf, sizeof(buf), "(%.9g, %.9g, %.9g)", p.x, p.y, p.z);
        return buf;
    }

    std::string
    compareToReference(const RunSpec &spec, const shaders::Film &film)
    {
        const shaders::Film &ref = reference(spec);
        if (film.width() != ref.width() || film.height() != ref.height())
            return "film size differs from the reference";
        const std::uint64_t pixels =
            std::uint64_t(ref.width()) * std::uint64_t(ref.height());
        if (film.samplesAdded() != pixels)
            return "film has " + std::to_string(film.samplesAdded()) +
                   " samples for " + std::to_string(pixels) + " pixels";
        for (int y = 0; y < ref.height(); ++y)
            for (int x = 0; x < ref.width(); ++x) {
                const geom::Vec3 &a = film.pixel(x, y);
                const geom::Vec3 &b = ref.pixel(x, y);
                if (!(std::fabs(a.x - b.x) <= kFilmTolerance &&
                      std::fabs(a.y - b.y) <= kFilmTolerance &&
                      std::fabs(a.z - b.z) <= kFilmTolerance))
                    return "pixel (" + std::to_string(x) + "," +
                           std::to_string(y) + ") is " + showPixel(a) +
                           ", renderReference has " + showPixel(b);
            }
        return {};
    }

    std::string
    checkFilm(const RunResult &r, const RunSpec &spec)
    {
        if (spec.shader != core::ShaderKind::PathTracing)
            return {};
        if (!r.film)
            return "no film";
        return compareToReference(spec, *r.film);
    }

    /** Base and coop films of one scene must be pixel-identical. */
    std::string
    checkPair(const PassResult &pass, std::size_t i) const
    {
        const RunSpec &spec = w_.runs[i];
        if (!spec.coop || !pass.runs[i].film)
            return {};
        for (std::size_t j = 0; j < w_.runs.size(); ++j) {
            const RunSpec &o = w_.runs[j];
            if (o.scene != spec.scene || o.coop || !pass.runs[j].ok ||
                !pass.runs[j].film)
                continue;
            const shaders::Film &a = *pass.runs[i].film;
            const shaders::Film &b = *pass.runs[j].film;
            for (int y = 0; y < a.height(); ++y)
                for (int x = 0; x < a.width(); ++x) {
                    const geom::Vec3 &p = a.pixel(x, y);
                    const geom::Vec3 &q = b.pixel(x, y);
                    if (p.x != q.x || p.y != q.y || p.z != q.z)
                        return "coop film differs from base at (" +
                               std::to_string(x) + "," +
                               std::to_string(y) + ")";
                }
        }
        return {};
    }

    std::string
    checkQuery(const RunResult &r, const RunSpec &spec)
    {
        if (!core::isQueryShader(spec.shader))
            return {};
        std::uint64_t mismatches = r.out.query.oracle_mismatches;
        if (opt_.inject == "oracle" && !injected_oracle_) {
            injected_oracle_ = true; // self-test: one fake mismatch
            ++mismatches;
        }
        if (!r.out.query.verified)
            return "query run was not verified against the oracle";
        if (mismatches != 0)
            return std::to_string(mismatches) + " oracle mismatches";
        return {};
    }

    const Workload &w_;
    const Options &opt_;
    std::vector<std::uint64_t> digests_;
    std::map<std::string, std::unique_ptr<shaders::Film>> refs_;
    bool injected_oracle_ = false;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::string> failures_;
};

/* ------------------------------------------------------------------ */
/* Metric output                                                       */
/* ------------------------------------------------------------------ */

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    /** "host" (simulator wall clock), "sim" (simulated GPU) or
     *  "gate" (correctness checks). */
    std::string clock;
    std::vector<double> samples;
};

class Report
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit,
        const std::string &clock, std::vector<double> samples = {})
    {
        metrics_.push_back({name, value, unit, clock, std::move(samples)});
    }

    void
    print(const Workload &w, const Options &opt, const Gate &gate) const
    {
        std::printf("{\"workload\":%s,\"seed\":%llu,\"mode\":\"%s\","
                    "\"digest\":\"0x%016llx\",\"attempted\":%llu,"
                    "\"failed\":%llu,\"failures\":[",
                    trace::quoteJson(w.name).c_str(),
                    static_cast<unsigned long long>(opt.seed),
                    opt.setup_only ? "setup"
                    : opt.traced   ? "traced"
                                   : "untraced",
                    static_cast<unsigned long long>(gate.workloadDigest()),
                    static_cast<unsigned long long>(gate.attempted()),
                    static_cast<unsigned long long>(gate.failed()));
        for (std::size_t i = 0; i < gate.failures().size(); ++i)
            std::printf("%s%s", i ? "," : "",
                        trace::quoteJson(gate.failures()[i]).c_str());
        std::printf("],\"metrics\":[");
        for (std::size_t i = 0; i < metrics_.size(); ++i) {
            const Metric &m = metrics_[i];
            std::printf("%s{\"name\":%s,\"value\":%.17g,\"unit\":%s,"
                        "\"clock\":\"%s\",\"samples\":[",
                        i ? "," : "", trace::quoteJson(m.name).c_str(),
                        std::isfinite(m.value) ? m.value : 0.0,
                        trace::quoteJson(m.unit).c_str(),
                        m.clock.c_str());
            for (std::size_t j = 0; j < m.samples.size(); ++j)
                std::printf("%s%.17g", j ? "," : "", m.samples[j]);
            std::printf("]}");
        }
        std::printf("]}\n");
    }

  private:
    std::vector<Metric> metrics_;
};

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = p / 100.0 * double(v.size() - 1);
    const std::size_t lo = std::size_t(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
}

/* ------------------------------------------------------------------ */
/* Set-up                                                              */
/* ------------------------------------------------------------------ */

/** Build every scene and prepared BVH of the workload; seconds. */
double
setUp(const Workload &w)
{
    const auto t0 = Clock::now();
    for (const auto &label : uniqueScenes(w)) {
        scene::SceneRegistry::get(label);
        core::simulationFor(label);
    }
    return secondsBetween(t0, Clock::now());
}

/** Traced set-up: the scene and BVH builds timed separately. */
void
setUpTraced(const Workload &w, Report &rep)
{
    double scene_s = 0.0, bvh_s = 0.0;
    std::uint64_t nodes = 0;
    int depth = 0;
    for (const auto &label : uniqueScenes(w)) {
        auto a = Clock::now();
        const scene::Scene &sc = scene::SceneRegistry::get(label);
        auto b = Clock::now();
        scene_s += secondsBetween(a, b);
        const bvh::WideBvh wide = bvh::buildWideBvh(sc.mesh);
        bvh_s += secondsBetween(b, Clock::now());
        nodes += wide.nodes.size();
        depth = std::max(depth, wide.maxDepth());
        core::simulationFor(label); // the prepared copy the runs use
    }
    rep.add("scene.build_s", scene_s, "s", "host");
    rep.add("bvh.build_s", bvh_s, "s", "host");
    rep.add("bvh.nodes", double(nodes), "count", "sim");
    rep.add("bvh.depth", double(depth), "count", "sim");
}

/* ------------------------------------------------------------------ */
/* Untraced run: end-to-end metrics                                    */
/* ------------------------------------------------------------------ */

std::uint64_t
fetchesOf(const core::RunOutcome &o)
{
    return o.gpu.rt.node_fetches + o.gpu.rt.leaf_fetches;
}

/** Geometric mean over scenes of base cycles / coop cycles; 0 when
 *  the workload does not run both configurations of a scene. */
double
coopSpeedup(const Workload &w, const PassResult &pass)
{
    std::vector<double> ratios;
    for (std::size_t i = 0; i < w.runs.size(); ++i) {
        if (w.runs[i].coop || !pass.runs[i].ok)
            continue;
        for (std::size_t j = 0; j < w.runs.size(); ++j)
            if (w.runs[j].coop && w.runs[j].scene == w.runs[i].scene &&
                pass.runs[j].ok)
                ratios.push_back(double(pass.runs[i].out.gpu.cycles) /
                                 double(pass.runs[j].out.gpu.cycles));
    }
    return ratios.empty() ? 0.0 : stats::geomean(ratios);
}

int
untraced(const Workload &w, const Options &opt)
{
    Report rep;
    Gate gate(w, opt);
    const double setup_s = setUp(w);

    // Whole passes until the budget is spent; at least one. Each pass
    // is checked and dropped right away, so peak RSS does not grow
    // with the number of passes; the first is kept for its counts.
    std::vector<double> wall, ns_per_fetch, ref, run_s;
    double peak_rss_mb = 0.0;
    PassResult first;
    const auto t0 = Clock::now();
    int p = 0;
    do {
        PassResult pass = runPass(w, opt);
        gate.checkPass(pass, "pass" + std::to_string(p));
        double cpu = 0.0;
        std::uint64_t fetches = 0;
        for (const RunResult &r : pass.runs) {
            cpu += r.cpu_s;
            fetches += fetchesOf(r.out);
            run_s.push_back(r.host_s);
        }
        wall.push_back(pass.wall_s);
        ns_per_fetch.push_back(fetches ? cpu * 1e9 / double(fetches)
                                       : 0.0);
        if (p++ == 0) {
            // Before the reference loop first builds its tables.
            peak_rss_mb = double(telemetry::readRss().peak_kb) / 1024.0;
            first = std::move(pass);
        }
        ref.push_back(referenceSeconds());
    } while (secondsBetween(t0, Clock::now()) < opt.seconds);
    if (w.observed) {
        // Observers must not change a single simulated counter.
        gate.checkPass(runSerialPass(w, opt, {}), "no-observers");
    }

    std::uint64_t cycles = 0;
    for (const RunResult &r : first.runs)
        cycles += r.out.gpu.cycles;

    rep.add("wall_s", median(wall), "s", "host", wall);
    rep.add("setup_s", setup_s, "s", "host", {setup_s});
    rep.add("host_ns_per_fetch", median(ns_per_fetch), "ns", "host",
            ns_per_fetch);
    rep.add("ref_s", median(ref), "s", "host", ref);
    rep.add("peak_rss_mb", peak_rss_mb, "MB", "host");
    rep.add("sim_cycles", double(cycles), "cycles", "sim");
    const double speedup = coopSpeedup(w, first);
    if (speedup > 0.0)
        rep.add("coop_speedup", speedup, "x", "sim");
    if (w.name == "fig09" && speedup > 0.0)
        rep.add("paper_err_pct",
                100.0 * std::fabs(speedup - kPaperSpeedup) / kPaperSpeedup,
                "%", "sim");
    rep.add("fail_frac",
            gate.attempted() ? double(gate.failed()) / double(gate.attempted())
                             : 1.0,
            "fraction", "gate");
    rep.add("run_s", median(run_s), "s", "host", run_s);
    rep.print(w, opt, gate);
    return gate.failed() == 0 ? 0 : 1;
}

/* ------------------------------------------------------------------ */
/* Traced run: per-layer metrics                                       */
/* ------------------------------------------------------------------ */

/** Host time and call counts of the layer harness, summed over runs. */
struct HarnessTotals
{
    double program_s = 0.0;
    double submit_s = 0.0;
    double tick_s = 0.0;
    double next_s = 0.0;
    double fetch_s = 0.0;
    double oracle_s = 0.0;
    std::uint64_t fetch_calls = 0;
    std::uint64_t ticks = 0;
    std::uint64_t next_calls = 0;
    std::uint64_t cycles = 0;
    std::uint64_t rt_fetches = 0;
    std::uint64_t rounds = 0;
    std::uint64_t mismatches = 0;
};

/**
 * Drive one run's real frame WarpPrograms through a single RtUnit
 * whose FetchFn forwards to a MemorySystem, timing each layer's calls.
 * Shading latency is not modelled: a warp's next trace is submitted as
 * soon as its previous one retires and a warp-buffer slot is free.
 */
void
harnessRun(const RunSpec &spec, const Options &opt, HarnessTotals &t,
           Gate &gate)
{
    const core::RunConfig cfg = configFor(spec, opt);
    const core::Simulation &sim = core::simulationFor(spec.scene);
    const scene::Scene &sc = sim.scene();
    const int res = resolutionOf(cfg, spec.scene);
    const bool is_query = core::isQueryShader(spec.shader);

    std::unique_ptr<shaders::Film> film = filmFor(spec, cfg);
    std::unique_ptr<query::ResultStore> store;
    auto a = Clock::now();
    std::vector<std::unique_ptr<gpu::WarpProgram>> programs;
    if (is_query) {
        store = std::make_unique<query::ResultStore>(std::size_t(res) *
                                                     std::size_t(res));
        programs = query::makeQueryFrame(sc, queryWorkload(spec.shader),
                                         *store, res, res, cfg.query);
    } else {
        programs =
            shaders::makePathTracerFrame(sc, film.get(), res, res, cfg.pt);
    }
    t.program_s += secondsBetween(a, Clock::now());

    mem::MemorySystem memsys(cfg.gpu.mem);
    rtunit::RtUnit rt(
        sim.bvh(), sc.mesh, cfg.gpu.trace,
        [&](std::uint64_t addr, std::uint32_t bytes, std::uint64_t now) {
            const auto f0 = Clock::now();
            const std::uint64_t ready = memsys.fetch(0, addr, bytes, now);
            t.fetch_s += secondsBetween(f0, Clock::now());
            ++t.fetch_calls;
            return ready;
        });

    std::deque<std::pair<gpu::WarpProgram *, rtunit::TraceJob>> ready;
    // A trace whose rays all miss the root can retire inside submit(),
    // so each retirement carries its program rather than its slot.
    std::vector<std::pair<gpu::WarpProgram *, rtunit::TraceResult>> retired;
    auto act = [&](gpu::WarpProgram *p, const gpu::WarpAction &action) {
        if (action.kind == gpu::WarpAction::Kind::Trace)
            ready.emplace_back(p, action.trace);
    };
    for (auto &p : programs) {
        a = Clock::now();
        const gpu::WarpAction action = p->start();
        t.program_s += secondsBetween(a, Clock::now());
        act(p.get(), action);
    }

    std::uint64_t now = 0;
    while (true) {
        for (const auto &[p, result] : retired) {
            a = Clock::now();
            const gpu::WarpAction action = p->resume(result);
            t.program_s += secondsBetween(a, Clock::now());
            act(p, action);
        }
        retired.clear();
        while (!ready.empty() && rt.freeSlots() > 0) {
            gpu::WarpProgram *p = ready.front().first;
            a = Clock::now();
            rt.submit(ready.front().second, now,
                      [&retired, p](int, const rtunit::TraceResult &r) {
                          retired.emplace_back(p, r);
                      });
            t.submit_s += secondsBetween(a, Clock::now());
            ready.pop_front();
        }
        if (!retired.empty())
            continue;
        if (rt.idle())
            break;
        a = Clock::now();
        const std::uint64_t next = rt.nextEventCycle(now);
        auto b = Clock::now();
        t.next_s += secondsBetween(a, b);
        ++t.next_calls;
        if (next == rtunit::kNever)
            throw std::runtime_error("harness: resident warps but no event");
        now = std::max(now, next);
        rt.tick(now);
        t.tick_s += secondsBetween(b, Clock::now());
        ++t.ticks;
        ++now;
    }
    t.cycles += now;
    t.rt_fetches += rt.stats().node_fetches + rt.stats().leaf_fetches;

    if (is_query) {
        a = Clock::now();
        const query::OracleCheck chk = query::verifyAgainstOracle(
            sc, queryWorkload(spec.shader), cfg.query, res, res, *store);
        t.oracle_s += secondsBetween(a, Clock::now());
        t.rounds += store->totalRounds();
        std::uint64_t mismatches = chk.mismatches;
        if (opt.inject == "oracle")
            ++mismatches;
        t.mismatches += mismatches;
        gate.checkHarnessOracle(spec, mismatches);
    } else {
        gate.checkHarnessFilm(spec, *film);
    }
}

/** Simulated counts and ratios of one pass, from its RunOutcomes. */
void
addOutcomeMetrics(const PassResult &pass, Report &rep)
{
    rtunit::RtUnitStats s;
    mem::CacheStats l1, l2;
    std::uint64_t dram_req = 0, dram_busy = 0, dram_denom = 0;
    std::uint64_t l2_bytes = 0, cycles = 0, sm_cycles = 0, max_lat = 0;
    double util_weighted = 0.0;
    std::array<std::uint64_t, prof::kNumBuckets> buckets{};
    double run_s = 0.0;
    const core::RunConfig cfg;
    for (const RunResult &r : pass.runs) {
        const gpu::GpuRunResult &g = r.out.gpu;
        s.node_fetches += g.rt.node_fetches;
        s.leaf_fetches += g.rt.leaf_fetches;
        s.box_tests += g.rt.box_tests;
        s.tri_tests += g.rt.tri_tests;
        s.steals += g.rt.steals;
        s.stale_pops += g.rt.stale_pops;
        s.issue_cycles += g.rt.issue_cycles;
        s.retired_warps += g.rt.retired_warps;
        s.coalesced_threads += g.rt.coalesced_threads;
        l1.accesses += g.l1.accesses;
        l1.hits += g.l1.hits;
        l1.mshr_merges += g.l1.mshr_merges;
        l2.accesses += g.l2.accesses;
        l2.hits += g.l2.hits;
        dram_req += g.dram.requests;
        dram_busy += g.dram.busy_cycles;
        dram_denom += g.cycles * cfg.gpu.mem.dram.channels;
        sm_cycles += g.cycles * std::uint64_t(cfg.gpu.num_sms);
        l2_bytes += g.mem_sys.l2_bytes;
        cycles += g.cycles;
        util_weighted += g.avg_thread_utilization * double(g.cycles);
        max_lat = std::max(max_lat, g.slowestWarpLatency());
        for (int b = 0; b < prof::kNumBuckets; ++b)
            buckets[std::size_t(b)] += g.prof_summary.buckets[std::size_t(b)];
        run_s += r.host_s;
    }
    auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
    rep.add("rtunit.node_fetches", double(s.node_fetches), "count", "sim");
    rep.add("rtunit.leaf_fetches", double(s.leaf_fetches), "count", "sim");
    rep.add("rtunit.box_tests", double(s.box_tests), "count", "sim");
    rep.add("rtunit.tri_tests", double(s.tri_tests), "count", "sim");
    rep.add("rtunit.steals", double(s.steals), "count", "sim");
    rep.add("rtunit.stale_pops", double(s.stale_pops), "count", "sim");
    rep.add("rtunit.issue_cycles", double(s.issue_cycles), "cycles", "sim");
    rep.add("rtunit.retired_warps", double(s.retired_warps), "count", "sim");
    rep.add("rtunit.issue_util", ratio(double(s.issue_cycles), double(sm_cycles)),
            "fraction", "sim");
    rep.add("rtunit.threads_per_fetch",
            ratio(double(s.coalesced_threads), double(s.issue_cycles)),
            "threads", "sim");
    rep.add("gpu.thread_util", ratio(util_weighted, double(cycles)),
            "fraction", "sim");
    rep.add("mem.l1.accesses", double(l1.accesses), "count", "sim");
    rep.add("mem.l1.hit_rate", ratio(double(l1.hits), double(l1.accesses)),
            "fraction", "sim");
    rep.add("mem.l1.mshr_merges", double(l1.mshr_merges), "count", "sim");
    rep.add("mem.l2.accesses", double(l2.accesses), "count", "sim");
    rep.add("mem.l2.hit_rate", ratio(double(l2.hits), double(l2.accesses)),
            "fraction", "sim");
    rep.add("mem.dram.accesses", double(dram_req), "count", "sim");
    rep.add("mem.dram.util", ratio(double(dram_busy), double(dram_denom)),
            "fraction", "sim");
    rep.add("mem.l2_bytes", double(l2_bytes), "bytes", "sim");
    rep.add("gpu.max_warp_latency", double(max_lat), "cycles", "sim");
    std::uint64_t bucket_sum = 0;
    for (std::uint64_t b : buckets)
        bucket_sum += b;
    for (int b = 0; b < prof::kNumBuckets; ++b)
        rep.add(std::string("prof.") + prof::bucketName(prof::Bucket(b)) +
                    "_frac",
                ratio(double(buckets[std::size_t(b)]), double(bucket_sum)),
                "fraction", "sim");
    rep.add("gpu.run_s", run_s, "s", "host");
    rep.add("gpu.ns_per_cycle", ratio(run_s * 1e9, double(cycles)), "ns",
            "host");
}

/** exec scheduling of a campaign pass. */
void
addExecMetrics(const PassResult &pass, Report &rep)
{
    double busy = 0.0, last_start = 0.0;
    std::vector<double> job_s;
    for (const RunResult &r : pass.runs) {
        busy += r.host_s;
        last_start = std::max(last_start, r.start_s);
        job_s.push_back(r.host_s);
    }
    rep.add("exec.parallel_eff",
            pass.wall_s > 0.0 ? busy / (pass.wall_s * pass.workers) : 0.0,
            "fraction", "host");
    rep.add("exec.tail_s", pass.wall_s - last_start, "s", "host");
    rep.add("exec.job_p90_s", percentile(job_s, 90.0), "s", "host", job_s);
    rep.add("exec.steals", double(pass.exec_steals), "count", "host");
}

/** Wall seconds of one serial pass with observer set @p mask. */
double
observerPassSeconds(const Workload &w, const Options &opt, unsigned mask,
                    Gate &gate)
{
    PassOptions po;
    po.observers = mask;
    po.write_exports = mask != 0;
    const PassResult pass = runSerialPass(w, opt, po);
    gate.checkPass(pass, "observer-mask" + std::to_string(mask));
    return pass.wall_s;
}

int
traced(const Workload &w, const Options &opt)
{
    Report rep;
    Gate gate(w, opt);
    setUpTraced(w, rep);

    const PassResult plain = runPass(w, opt);
    gate.checkPass(plain, "untraced");
    const PassResult traced_pass = runPass(w, opt, /*profile=*/true);
    gate.checkPass(traced_pass, "traced");
    addOutcomeMetrics(traced_pass, rep);
    rep.add("bench.traced_overhead", traced_pass.wall_s - plain.wall_s, "s",
            "host");
    if (w.campaign)
        addExecMetrics(traced_pass, rep);

    HarnessTotals h;
    for (const RunSpec &spec : w.runs)
        harnessRun(spec, opt, h, gate);
    const double rt_s = h.submit_s + h.tick_s + h.next_s - h.fetch_s;
    auto per = [](double s, std::uint64_t n) {
        return n ? s * 1e9 / double(n) : 0.0;
    };
    rep.add("shaders.program_s", h.program_s, "s", "host");
    rep.add("rtunit.self_s", rt_s, "s", "host");
    rep.add("rtunit.self_ns_per_fetch", per(rt_s, h.rt_fetches), "ns", "host");
    rep.add("rtunit.tick_ns", per(h.tick_s - h.fetch_s, h.ticks), "ns",
            "host");
    rep.add("rtunit.next_event_ns", per(h.next_s, h.next_calls), "ns", "host");
    rep.add("rtunit.ticks_per_cycle",
            h.cycles ? double(h.ticks) / double(h.cycles) : 0.0, "ticks/cycle",
            "sim");
    rep.add("mem.fetch_s", h.fetch_s, "s", "host");
    rep.add("mem.fetch_ns", per(h.fetch_s, h.fetch_calls), "ns", "host");
    bool has_query = false;
    for (const RunSpec &spec : w.runs)
        has_query |= core::isQueryShader(spec.shader);
    if (has_query) {
        rep.add("query.oracle_s", h.oracle_s, "s", "host");
        rep.add("query.rounds", double(h.rounds), "count", "sim");
        rep.add("query.oracle_mismatches", double(h.mismatches), "count",
                "sim");
    }

    if (w.observed) {
        // One observer at a time against none; medians of three passes
        // in interleaved order so drift hits every variant alike.
        constexpr int kRepeats = 3;
        std::map<unsigned, std::vector<double>> secs;
        for (int rep_i = 0; rep_i < kRepeats; ++rep_i) {
            secs[0].push_back(observerPassSeconds(w, opt, 0, gate));
            for (const auto &[bit, name] : kObserverNames)
                secs[bit].push_back(observerPassSeconds(w, opt, bit, gate));
        }
        const double none = median(secs[0]);
        for (const auto &[bit, name] : kObserverNames)
            rep.add(std::string(name) + ".overhead",
                    none > 0.0 ? median(secs[bit]) / none - 1.0 : 0.0,
                    "fraction", "host", secs[bit]);
    }
    rep.print(w, opt, gate);
    return gate.failed() == 0 ? 0 : 1;
}

/* ------------------------------------------------------------------ */
/* Command line                                                        */
/* ------------------------------------------------------------------ */

[[noreturn]] void
usage(const std::string &msg)
{
    std::fprintf(stderr,
                 "cooprt_hostbench: %s\n"
                 "usage: cooprt_hostbench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--setup-only] "
                 "[--resolution N] [--inject film|oracle] [--out DIR]\n",
                 msg.c_str());
    std::exit(2);
}

template <typename T>
T
parseNumber(const std::string &flag, const std::string &text)
{
    try {
        std::size_t used = 0;
        T v;
        if constexpr (std::is_floating_point_v<T>)
            v = T(std::stod(text, &used));
        else if constexpr (std::is_unsigned_v<T>)
            v = T(std::stoull(text, &used));
        else
            v = T(std::stoll(text, &used));
        if (used != text.size() || text.empty() || text[0] == '-')
            throw std::invalid_argument(text);
        return v;
    } catch (const std::exception &) {
        usage(flag + " needs a non-negative number, got '" + text + "'");
    }
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--workload")
            opt.workload = next();
        else if (arg == "--seed")
            opt.seed = parseNumber<std::uint64_t>(arg, next());
        else if (arg == "--seconds")
            opt.seconds = parseNumber<double>(arg, next());
        else if (arg == "--trace") {
            const std::string v = next();
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            opt.traced = v == "1";
        } else if (arg == "--setup-only")
            opt.setup_only = true;
        else if (arg == "--resolution")
            opt.resolution = parseNumber<int>(arg, next());
        else if (arg == "--inject") {
            opt.inject = next();
            if (opt.inject != "film" && opt.inject != "oracle")
                usage("--inject takes film or oracle");
        } else if (arg == "--out")
            opt.out_dir = next();
        else
            usage("unknown flag '" + arg + "'");
    }
    if (opt.workload.empty())
        usage("--workload is required");
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    Workload w;
    try {
        w = workloadFor(opt.workload);
    } catch (const std::exception &e) {
        usage(e.what());
    }
    bool has_pt = false, has_query = false;
    for (const RunSpec &r : w.runs) {
        has_pt |= r.shader == core::ShaderKind::PathTracing;
        has_query |= core::isQueryShader(r.shader);
    }
    if ((opt.inject == "film" && !has_pt) ||
        (opt.inject == "oracle" && !has_query))
        usage("--inject " + opt.inject + " does not apply to workload " +
              w.name);
    try {
        if (opt.setup_only) {
            Report rep;
            const double s = setUp(w);
            const double r = referenceSeconds();
            rep.add("setup_s", s, "s", "host", {s});
            rep.add("ref_s", r, "s", "host", {r});
            rep.print(w, opt, Gate(w, opt));
            return 0;
        }
        return opt.traced ? traced(w, opt) : untraced(w, opt);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "cooprt_hostbench: %s\n", e.what());
        return 1;
    }
}
