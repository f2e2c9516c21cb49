/**
 * @file
 * Determinism regression tests for the parallel experiment runner.
 *
 * The tentpole guarantee: running a sweep through the thread pool must
 * produce byte-identical simulation results to running it serially.
 * These tests pin that down with resultFingerprint(): every
 * behavioural stat-registry leaf of the run (hex-float encoded,
 * passive observability and wall-clock excluded) plus a hash of the
 * recorded miss stream.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "driver/experiment.hh"
#include "driver/report.hh"
#include "driver/runner.hh"

namespace {

/** The Figure 7 configurations for one application. */
std::vector<driver::Job>
fig7Jobs(const driver::ExperimentOptions &opt,
         const std::vector<std::string> &apps)
{
    std::vector<driver::Job> jobs;
    for (const std::string &app : apps) {
        jobs.push_back({app, driver::noPrefConfig(opt), opt});
        jobs.push_back({app, driver::conven4Config(opt), opt});
        jobs.push_back(
            {app, driver::ulmtConfig(opt, core::UlmtAlgo::Repl, app),
             opt});
        jobs.push_back(
            {app,
             driver::conven4PlusUlmtConfig(opt, core::UlmtAlgo::Repl,
                                           app),
             opt});
    }
    return jobs;
}

std::vector<std::string>
fingerprints(const std::vector<driver::RunResult> &results)
{
    std::vector<std::string> fps;
    fps.reserve(results.size());
    for (const driver::RunResult &r : results)
        fps.push_back(driver::resultFingerprint(r));
    return fps;
}

TEST(Runner, ParallelMatchesSerialBitForBit)
{
    driver::ExperimentOptions opt;
    opt.scale = 0.1;
    const std::vector<driver::Job> jobs =
        fig7Jobs(opt, {"Mcf", "Tree"});

    const auto serial = driver::runAll(jobs, 1);
    const auto parallel = driver::runAll(jobs, 4);

    ASSERT_EQ(serial.size(), jobs.size());
    ASSERT_EQ(parallel.size(), jobs.size());
    const auto fp_serial = fingerprints(serial);
    const auto fp_parallel = fingerprints(parallel);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(fp_serial[i], fp_parallel[i])
            << "job " << i << " (" << jobs[i].app << ", "
            << jobs[i].cfg.label << ") diverged under 4 workers";
    }
}

TEST(Runner, ParallelRunsAreRepeatable)
{
    driver::ExperimentOptions opt;
    opt.scale = 0.1;
    const std::vector<driver::Job> jobs = fig7Jobs(opt, {"Gap"});

    const auto first = driver::runAll(jobs, 4);
    const auto second = driver::runAll(jobs, 4);
    EXPECT_EQ(fingerprints(first), fingerprints(second));
}

TEST(Runner, CaptureMissStreamRunsMatchesSerialCapture)
{
    driver::ExperimentOptions opt;
    opt.scale = 0.1;
    const std::vector<std::string> apps = {"Mcf", "Tree"};

    driver::setRunnerJobs(4);
    const auto runs = driver::captureMissStreamRuns(apps, opt);
    driver::setRunnerJobs(0);

    ASSERT_EQ(runs.size(), apps.size());
    for (std::size_t i = 0; i < apps.size(); ++i) {
        const std::vector<sim::Addr> serial =
            driver::captureMissStream(apps[i], opt);
        EXPECT_EQ(runs[i].missStream, serial) << apps[i];
    }
}

TEST(Runner, ResultsKeepJobOrder)
{
    // Tasks finish in arbitrary order under the pool; results must
    // still land at their job's index.
    std::vector<std::function<driver::RunResult()>> tasks;
    for (int i = 0; i < 16; ++i) {
        tasks.push_back([i] {
            driver::RunResult r;
            r.label = std::to_string(i);
            return r;
        });
    }
    const auto results = driver::runTasks(tasks, 4);
    ASSERT_EQ(results.size(), tasks.size());
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(results[static_cast<std::size_t>(i)].label,
                  std::to_string(i));
}

TEST(Runner, ParallelInvokeRunsEveryChunkOnce)
{
    std::vector<int> hits(64, 0);
    std::vector<std::function<void()>> chunks;
    for (std::size_t i = 0; i < hits.size(); ++i)
        chunks.push_back([&hits, i] { ++hits[i]; });
    driver::parallelInvoke(chunks, 4);
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i], 1) << "chunk " << i;
}

TEST(Runner, JobsResolutionPrefersOverrideThenEnv)
{
    const char *saved = std::getenv("ULMT_JOBS");
    const std::string saved_copy = saved ? saved : "";

    ::setenv("ULMT_JOBS", "7", 1);
    EXPECT_EQ(driver::runnerJobs(), 7u);

    driver::setRunnerJobs(3);
    EXPECT_EQ(driver::runnerJobs(), 3u);

    driver::setRunnerJobs(0);  // clear the override
    EXPECT_EQ(driver::runnerJobs(), 7u);

    ::unsetenv("ULMT_JOBS");
    EXPECT_GE(driver::runnerJobs(), 1u);  // hardware fallback

    if (saved)
        ::setenv("ULMT_JOBS", saved_copy.c_str(), 1);
}

} // namespace
