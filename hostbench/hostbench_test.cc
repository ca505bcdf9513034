// The benchmark's own tests: determinism of the simulated output, seeded
// inputs, the host-speed calibration, the printed metric contract, and that
// wrong replies and observer drift are counted as failures.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "obs/json.h"
#include "runner.h"
#include "workloads.h"

namespace flexos {
namespace hostbench {
namespace {

JobResult RunPlain(const JobSpec& job, int64_t corrupt_reply = -1) {
  SpanRecorder spans;
  return RunJob(job, RunOptions{.spans = &spans,
                                .corrupt_reply = corrupt_reply});
}

std::string RunToString(const Args& args) {
  std::FILE* file = std::tmpfile();
  EXPECT_NE(file, nullptr);
  RunBenchmark(args, file);
  std::rewind(file);
  std::string text;
  char buffer[4096];
  size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    text.append(buffer, n);
  }
  std::fclose(file);
  return text;
}

std::string LastLine(const std::string& text) {
  const size_t end = text.find_last_not_of('\n');
  const size_t start = text.rfind('\n', end);
  return text.substr(start == std::string::npos ? 0 : start + 1,
                     end - (start == std::string::npos ? 0 : start + 1) + 1);
}

obs::JsonValue ParseJson(const std::string& text) {
  obs::JsonValue value;
  EXPECT_TRUE(obs::JsonReader(text).Parse(&value)) << text;
  return value;
}

TEST(HostbenchTest, SameSeedGivesSameSimDigest) {
  const std::vector<JobSpec> first = MakeJobs(Workload::kRedisBoot, 7);
  const std::vector<JobSpec> again = MakeJobs(Workload::kRedisBoot, 7);
  const JobResult a = RunPlain(first.back());
  const JobResult b = RunPlain(first.back());
  const JobResult c = RunPlain(again.back());
  EXPECT_EQ(a.failed, 0u);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.digest, c.digest);
}

TEST(HostbenchTest, DifferentSeedGivesDifferentOps) {
  const std::vector<JobSpec> one = MakeJobs(Workload::kRedisSteady, 1);
  const std::vector<JobSpec> two = MakeJobs(Workload::kRedisSteady, 2);
  ASSERT_EQ(one.size(), two.size());
  const RedisScript& a = (*one.front().scripts)[0];
  const RedisScript& b = (*two.front().scripts)[0];
  ASSERT_EQ(a.ops.size(), b.ops.size());
  size_t differing = 0;
  for (size_t i = 0; i < a.ops.size(); ++i) {
    differing += a.ops[i].request != b.ops[i].request ? 1 : 0;
  }
  EXPECT_GT(differing, a.ops.size() / 2);

  const std::vector<JobSpec> iperf_one = MakeJobs(Workload::kIperfStream, 1);
  const std::vector<JobSpec> iperf_two = MakeJobs(Workload::kIperfStream, 2);
  EXPECT_NE(*iperf_one.front().pattern, *iperf_two.front().pattern);
}

TEST(HostbenchTest, CorruptedGetReplyCountsAsFailure) {
  const JobSpec job = MakeJobs(Workload::kRedisBoot, 3).front();
  // Connection 0 preloads its keys with SETs, then only GETs.
  const RedisScript& script = (*job.scripts)[0];
  const int64_t get_index = static_cast<int64_t>(script.ops.size()) - 1;
  ASSERT_EQ(script.ops[get_index].request.substr(0, 13), "*2\r\n$3\r\nGET\r\n");
  EXPECT_EQ(RunPlain(job).failed, 0u);
  EXPECT_EQ(RunPlain(job, get_index).failed, 1u);
}

TEST(HostbenchTest, IperfDeliversEverythingItSends) {
  const JobSpec job = MakeJobs(Workload::kIperfStream, 5)[4];
  const JobResult result = RunPlain(job);
  EXPECT_EQ(result.ops, job.iperf_bytes / 1024);
  EXPECT_EQ(result.failed, 0u);
}

TEST(HostbenchTest, ObservedModelEqualsSteady) {
  const JobSpec steady = MakeJobs(Workload::kRedisSteady, 9)[2];
  const JobSpec observed = MakeJobs(Workload::kRedisObserved, 9)[2];
  ASSERT_TRUE(observed.config.profile && observed.config.watch);
  const JobResult a = RunPlain(steady);
  const JobResult b = RunPlain(observed);
  EXPECT_EQ(a.failed, 0u);
  EXPECT_EQ(b.failed, 0u);
  EXPECT_EQ(a.digest, b.digest);
}

// Without calibration the reference-host times are the measured ones; with
// it each job's times and latencies are scaled by its own host_scale.
TEST(HostbenchTest, CalibrationScalesEachJob) {
  const std::vector<JobSpec> jobs = MakeJobs(Workload::kIperfStream, 3);
  const std::vector<JobSpec> two(jobs.begin(), jobs.begin() + 2);
  SpanRecorder spans;
  const PassResult plain = RunPass(two, RunOptions{.spans = &spans});
  EXPECT_EQ(plain.ref_setup_s, plain.setup_s);
  EXPECT_EQ(plain.ref_run_s, plain.run_s);
  EXPECT_EQ(plain.ref_wall_s, plain.wall_s);

  CalibrationLoop calibration;
  std::vector<float> latencies_us;
  const PassResult scaled =
      RunPass(two, RunOptions{.spans = &spans,
                              .latencies_us = &latencies_us,
                              .calibration = &calibration});
  ASSERT_EQ(scaled.jobs.size(), 2u);
  double ref_wall_s = 0;
  for (const JobResult& job : scaled.jobs) {
    EXPECT_GT(job.host_scale, 0);
    EXPECT_TRUE(std::isfinite(job.host_scale));
    ref_wall_s += job.wall_s * job.host_scale;
  }
  EXPECT_DOUBLE_EQ(scaled.ref_wall_s, ref_wall_s);
  EXPECT_EQ(latencies_us.size(), scaled.ops);
  EXPECT_EQ(scaled.digest, plain.digest);
}

// Every metric of BENCHMARK.json is printed by name with its unit, both in
// the report lines and in the final JSON line.
void ExpectMetricsPrinted(bool trace, const char* section) {
  std::ifstream contract_file(HOSTBENCH_CONTRACT);
  std::stringstream contract_text;
  contract_text << contract_file.rdbuf();
  const obs::JsonValue contract = ParseJson(contract_text.str());
  const obs::JsonValue* declared = contract.Find(section);
  ASSERT_NE(declared, nullptr);
  const auto defs = trace ? PerLayerMetrics() : EndToEndMetrics();
  ASSERT_EQ(declared->array.size(), defs.size());

  const std::string text = RunToString(Args{.workload = Workload::kRedisBoot,
                                            .seed = 11,
                                            .seconds = 0,
                                            .trace = trace,
                                            .out_dir = ""});
  const obs::JsonValue result = ParseJson(LastLine(text));
  ASSERT_NE(result.Find("correct"), nullptr);
  EXPECT_TRUE(result.Find("correct")->boolean);
  EXPECT_EQ(result.Find("failed")->number, 0);
  EXPECT_GE(result.Find("attempted")->number, 1);
  const obs::JsonValue* metrics = result.Find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_EQ(metrics->object.size(), defs.size());
  for (size_t i = 0; i < defs.size(); ++i) {
    const std::string name(defs[i].name);
    const std::string unit(defs[i].unit);
    EXPECT_EQ(declared->array[i].Find("name")->str, name);
    EXPECT_EQ(declared->array[i].Find("unit")->str, unit);
    const obs::JsonValue* metric = metrics->Find(name);
    ASSERT_NE(metric, nullptr) << name;
    EXPECT_EQ(metric->Find("unit")->str, unit);
    EXPECT_NE(text.find("\n" + name + " = "), std::string::npos) << name;
  }
  EXPECT_NE(text.find("\nerror_rate = 0 fraction"), std::string::npos);
  EXPECT_NE(text.find("\nsim_digest = "), std::string::npos);
}

TEST(HostbenchTest, EveryEndToEndMetricIsPrintedWithItsUnit) {
  ExpectMetricsPrinted(/*trace=*/false, "end_to_end");
}

TEST(HostbenchTest, EveryPerLayerMetricIsPrintedWithItsUnit) {
  ExpectMetricsPrinted(/*trace=*/true, "per_layer");
}

}  // namespace
}  // namespace hostbench
}  // namespace flexos
