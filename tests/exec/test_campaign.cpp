/**
 * @file
 * Campaign-engine determinism: a parallel run must be bit-identical
 * to a serial run of the same jobs, on real simulations. The four
 * seed rows of the golden-outcome table (tests/core/outcome_digest.hpp)
 * anchor the comparison to absolute values, not just serial ==
 * parallel.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "../core/outcome_digest.hpp"
#include "core/report.hpp"
#include "exec/exec.hpp"

namespace {

using namespace cooprt;
using testutil::golden;
using testutil::outcomeDigest;

/** The seed row @p row as a campaign job tagged @p tag. */
exec::Job
pinnedJob(const char *row, const std::string &tag)
{
    const testutil::Golden &g = golden(row);
    return exec::Job{g.scene, testutil::goldenConfig(g), tag};
}

std::vector<exec::Job>
pinnedJobs()
{
    return {pinnedJob("wknd_pt32_base", "wknd/pt/base"),
            pinnedJob("wknd_pt32_coop", "wknd/pt/coop"),
            pinnedJob("bunny_ao24_coop", "bunny/ao/coop"),
            pinnedJob("ship_sh24_base", "ship/sh/base")};
}

TEST(ExecCampaign, ParallelMatchesSerialBitIdentical)
{
    exec::CampaignOptions serial;
    serial.jobs = 1;
    const auto s = exec::runCampaign(pinnedJobs(), serial);

    exec::CampaignOptions parallel;
    parallel.jobs = 4;
    const auto p = exec::runCampaign(pinnedJobs(), parallel);

    ASSERT_EQ(s.size(), 4u);
    ASSERT_EQ(p.size(), 4u);
    for (std::size_t i = 0; i < s.size(); ++i) {
        ASSERT_TRUE(s[i].ok) << s[i].tag;
        ASSERT_TRUE(p[i].ok) << p[i].tag;
        EXPECT_EQ(s[i].index, i);
        EXPECT_EQ(p[i].index, i);
        EXPECT_EQ(s[i].tag, p[i].tag);
        // The full outcome, not just cycles: every counter, series
        // and report field must match bit-for-bit.
        EXPECT_EQ(core::toJson(s[i].outcome), core::toJson(p[i].outcome))
            << s[i].tag;
    }

    // Anchored to the seed rows, so serial == parallel cannot pass
    // by both being wrong the same way.
    EXPECT_EQ(outcomeDigest(p[0].outcome), golden("wknd_pt32_base").digest);
    EXPECT_EQ(outcomeDigest(p[1].outcome), golden("wknd_pt32_coop").digest);
    EXPECT_EQ(outcomeDigest(p[2].outcome), golden("bunny_ao24_coop").digest);
    EXPECT_EQ(outcomeDigest(p[3].outcome), golden("ship_sh24_base").digest);
}

TEST(ExecCampaign, JsonLinesByteIdenticalAcrossWorkerCounts)
{
    auto render = [](const std::vector<exec::JobResult> &results) {
        std::ostringstream os;
        for (const auto &r : results)
            exec::writeJsonLine(os, r);
        return os.str();
    };

    exec::CampaignOptions serial;
    serial.jobs = 1;
    exec::CampaignOptions parallel;
    parallel.jobs = 3;
    const std::string a = render(exec::runCampaign(pinnedJobs(), serial));
    const std::string b =
        render(exec::runCampaign(pinnedJobs(), parallel));
    EXPECT_EQ(a, b);
    EXPECT_NE(a.find("\"tag\":\"wknd/pt/base\""), std::string::npos);
    EXPECT_NE(a.find("\"ok\":true"), std::string::npos);
    // One line per job, each a complete JSON object.
    EXPECT_EQ(std::count(a.begin(), a.end(), '\n'), 4);
}

TEST(ExecCampaign, RegistersCountersInSession)
{
    trace::Session session;
    {
        exec::CampaignOptions opt;
        opt.jobs = 2;
        opt.session = &session;
        exec::Campaign campaign(opt);
        campaign.setRunner([](const exec::Job &, std::stop_token) {
            return core::RunOutcome{};
        });
        for (int i = 0; i < 5; ++i)
            campaign.add(exec::Job{"wknd", core::RunConfig{},
                                   "job" + std::to_string(i)});
        campaign.run();

        const auto samples = session.registry().snapshot("exec.*");
        ASSERT_FALSE(samples.empty());
        double queued = -1, done = -1, failed = -1;
        for (const auto &s : samples) {
            if (s.name == "exec.jobs_queued")
                queued = s.value;
            else if (s.name == "exec.jobs_done")
                done = s.value;
            else if (s.name == "exec.jobs_failed")
                failed = s.value;
        }
        EXPECT_EQ(queued, 5.0);
        EXPECT_EQ(done, 5.0);
        EXPECT_EQ(failed, 0.0);
    }
    // Probes are owner-tagged and dropped with the campaign.
    EXPECT_TRUE(session.registry().snapshot("exec.*").empty());
}

TEST(ExecCampaign, ResultsKeepSubmissionOrder)
{
    exec::CampaignOptions opt;
    opt.jobs = 4;
    exec::Campaign campaign(opt);
    // Later submissions finish first; the result vector must not.
    campaign.setRunner([](const exec::Job &job, std::stop_token) {
        const int idx = std::stoi(job.tag);
        std::this_thread::sleep_for(
            std::chrono::milliseconds((16 - idx) * 2));
        core::RunOutcome out;
        out.gpu.cycles = std::uint64_t(idx);
        return out;
    });
    for (int i = 0; i < 16; ++i)
        campaign.add(
            exec::Job{"wknd", core::RunConfig{}, std::to_string(i)});
    const auto results = campaign.run();
    ASSERT_EQ(results.size(), 16u);
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].index, i);
        EXPECT_EQ(results[i].tag, std::to_string(i));
        ASSERT_TRUE(results[i].ok);
        EXPECT_EQ(results[i].outcome.gpu.cycles, i);
    }
}

TEST(ExecCampaign, RayStatsSinksByteIdenticalAcrossWorkerCounts)
{
    namespace fs = std::filesystem;
    const fs::path root =
        fs::temp_directory_path() / "cooprt_raystats_test";
    fs::remove_all(root);

    auto runWithJobs = [&](int jobs) {
        const fs::path dir = root / ("jobs" + std::to_string(jobs));
        fs::create_directories(dir);
        exec::CampaignOptions opt;
        opt.jobs = jobs;
        opt.out_dir = dir.string();
        opt.observers.ray = true;
        opt.observers.ray_config.sample_k = 2;
        const auto results = exec::runCampaign(pinnedJobs(), opt);
        for (const auto &r : results)
            EXPECT_TRUE(r.ok) << r.tag;
        return dir;
    };
    const fs::path serial = runWithJobs(1);
    const fs::path parallel = runWithJobs(4);

    auto slurp = [](const fs::path &p) {
        std::ifstream is(p, std::ios::binary);
        EXPECT_TRUE(is.good()) << p;
        std::ostringstream ss;
        ss << is.rdbuf();
        return ss.str();
    };
    // Per-ray sampling is seed-derived, never scheduler-derived, so
    // every per-job raystats file must be byte-identical regardless
    // of how many workers ran the campaign.
    std::size_t files = 0;
    for (const auto &entry : fs::directory_iterator(serial)) {
        const std::string name = entry.path().filename().string();
        const std::string a = slurp(entry.path());
        const std::string b = slurp(parallel / name);
        EXPECT_EQ(a, b) << name;
        if (!name.ends_with(".raystats.json"))
            continue;
        EXPECT_NE(a.find("\"rays_sampled\""), std::string::npos);
        files++;
    }
    EXPECT_EQ(files, 4u) << "one raystats file per job";
    fs::remove_all(root);
}

TEST(ExecCampaign, MemscopeSinksByteIdenticalAcrossWorkerCounts)
{
    namespace fs = std::filesystem;
    const fs::path root =
        fs::temp_directory_path() / "cooprt_memscope_test";
    fs::remove_all(root);

    auto runWithJobs = [&](int jobs) {
        const fs::path dir = root / ("jobs" + std::to_string(jobs));
        fs::create_directories(dir);
        exec::CampaignOptions opt;
        opt.jobs = jobs;
        opt.out_dir = dir.string();
        opt.observers.memscope = true;
        const auto results = exec::runCampaign(pinnedJobs(), opt);
        for (const auto &r : results) {
            EXPECT_TRUE(r.ok) << r.tag;
            EXPECT_TRUE(r.outcome.gpu.memscope_summary.enabled)
                << r.tag;
        }
        return dir;
    };
    const fs::path serial = runWithJobs(1);
    const fs::path parallel = runWithJobs(4);

    auto slurp = [](const fs::path &p) {
        std::ifstream is(p, std::ios::binary);
        EXPECT_TRUE(is.good()) << p;
        std::ostringstream ss;
        ss << is.rdbuf();
        return ss.str();
    };
    // Memscope counters depend only on the simulated run, never on
    // host scheduling, so both the JSON profile and the folded node
    // heatmap must be byte-identical regardless of worker count.
    std::size_t json_files = 0, folded_files = 0;
    for (const auto &entry : fs::directory_iterator(serial)) {
        const std::string name = entry.path().filename().string();
        const std::string a = slurp(entry.path());
        const std::string b = slurp(parallel / name);
        EXPECT_EQ(a, b) << name;
        if (name.ends_with(".memscope.json")) {
            EXPECT_NE(a.find("\"reuse\""), std::string::npos) << name;
            json_files++;
        } else if (name.ends_with(".memscope.folded")) {
            EXPECT_NE(a.find(";depth1;node0 "), std::string::npos)
                << name;
            folded_files++;
        }
    }
    EXPECT_EQ(json_files, 4u) << "one memscope JSON per job";
    EXPECT_EQ(folded_files, 4u) << "one folded heatmap per job";
    fs::remove_all(root);
}

TEST(ExecCampaign, UnknownSceneIsAStructuredFailure)
{
    exec::CampaignOptions opt;
    opt.jobs = 2;
    std::vector<exec::Job> jobs;
    jobs.push_back(exec::Job{"no-such-scene", core::RunConfig{}, "bad"});
    jobs.push_back(pinnedJob("wknd_pt32_base", "good"));
    const auto results = exec::runCampaign(std::move(jobs), opt);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_FALSE(results[0].ok);
    ASSERT_TRUE(results[0].failure.has_value());
    EXPECT_EQ(results[0].failure->kind, exec::FailureKind::Exception);
    EXPECT_NE(results[0].failure->message.find("no-such-scene"),
              std::string::npos);
    // The bad job must not take the campaign down with it.
    ASSERT_TRUE(results[1].ok);
    EXPECT_EQ(outcomeDigest(results[1].outcome),
              golden("wknd_pt32_base").digest);
}

TEST(ExecCampaign, SanitizeTagMakesFileNames)
{
    EXPECT_EQ(exec::sanitizeTag("fig09/crnvl coop#3"),
              "fig09_crnvl_coop_3");
    EXPECT_EQ(exec::sanitizeTag("a.b-c_9"), "a.b-c_9");
}

TEST(ExecCampaign, FailureKindNames)
{
    EXPECT_STREQ(exec::failureKindName(exec::FailureKind::Exception),
                 "exception");
    EXPECT_STREQ(exec::failureKindName(exec::FailureKind::Timeout),
                 "timeout");
}

} // namespace
