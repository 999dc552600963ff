#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/span.h"
#include "util/fsutil.h"

namespace ldv::obs {
namespace {

constexpr int kThreads = 8;

TEST(CounterTest, ExactTotalUnderContention) {
  Counter counter;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < 20'000; ++i) counter.Add(1);
      for (int i = 0; i < 10'000; ++i) counter.Add(5);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter.Value(), kThreads * (20'000 + 5 * 10'000));
}

TEST(HistogramTest, ExactTotalsUnderContention) {
  Histogram histogram({10, 100, 1000});
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram] {
      for (int64_t v = 1; v <= 1000; ++v) histogram.Observe(v);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(histogram.TotalCount(), kThreads * 1000);
  EXPECT_EQ(histogram.Sum(), kThreads * (1000 * 1001 / 2));
  std::vector<int64_t> counts = histogram.BucketCounts();
  ASSERT_EQ(counts.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(counts[0], kThreads * 10);   // 1..10
  EXPECT_EQ(counts[1], kThreads * 90);   // 11..100
  EXPECT_EQ(counts[2], kThreads * 900);  // 101..1000
  EXPECT_EQ(counts[3], 0);
}

TEST(HistogramTest, OverflowBucketCountsBeyondLastBound) {
  Histogram histogram({10});
  histogram.Observe(10);
  histogram.Observe(11);
  histogram.Observe(1 << 30);
  std::vector<int64_t> counts = histogram.BucketCounts();
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[0], 1);
  EXPECT_EQ(counts[1], 2);
}

TEST(MetricsRegistryTest, GetOrCreateReturnsSameInstance) {
  MetricsRegistry registry;
  Counter* a = registry.counter("requests");
  Counter* b = registry.counter("requests");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, registry.counter("other"));
  Histogram* h = registry.histogram("lat", {1, 2, 3});
  // Second lookup ignores the (different) bounds and returns the original.
  EXPECT_EQ(registry.histogram("lat", {99}), h);
  EXPECT_EQ(h->bounds().size(), 3u);
}

TEST(MetricsRegistryTest, SnapshotWhileWritingStaysMonotone) {
  MetricsRegistry registry;
  Counter* counter = registry.counter("writes");
  Histogram* histogram = registry.histogram("lat", {100});
  std::vector<std::thread> writers;
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 200'000;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&] {
      for (int i = 0; i < kPerWriter; ++i) {
        counter->Add(1);
        histogram->Observe(i % 200);
      }
    });
  }
  // Snapshots taken mid-flight must never go backwards or tear into
  // impossible values (each read is atomic; totals are monotone).
  int64_t last_counter = 0;
  int64_t last_hist = 0;
  for (int i = 0; i < 50; ++i) {
    MetricsSnapshot snapshot = registry.Snapshot();
    int64_t c = snapshot.counters.at("writes");
    int64_t h = snapshot.histograms.at("lat").total_count;
    EXPECT_GE(c, last_counter);
    EXPECT_GE(h, last_hist);
    EXPECT_LE(c, int64_t{kWriters} * kPerWriter);
    EXPECT_LE(h, int64_t{kWriters} * kPerWriter);
    last_counter = c;
    last_hist = h;
  }
  for (std::thread& t : writers) t.join();
  MetricsSnapshot final_snapshot = registry.Snapshot();
  EXPECT_EQ(final_snapshot.counters.at("writes"),
            int64_t{kWriters} * kPerWriter);
  EXPECT_EQ(final_snapshot.histograms.at("lat").total_count,
            int64_t{kWriters} * kPerWriter);
}

TEST(MetricsRegistryTest, SnapshotToJsonShape) {
  MetricsRegistry registry;
  registry.counter("hits")->Add(3);
  registry.gauge("depth")->Set(-7);
  registry.histogram("lat", {5, 50})->Observe(6);
  Json json = registry.Snapshot().ToJson();
  std::string dump = json.Dump();
  EXPECT_NE(dump.find("\"counters\""), std::string::npos);
  EXPECT_NE(dump.find("\"hits\":3"), std::string::npos);
  EXPECT_NE(dump.find("\"depth\":-7"), std::string::npos);
  EXPECT_NE(dump.find("\"+Inf\""), std::string::npos) << dump;
  // Round-trips through the JSON parser.
  auto parsed = Json::Parse(dump);
  ASSERT_TRUE(parsed.ok());
}

// WriteGlobalMetrics is what `ldv_server --metrics-out` writes: the global
// registry with all three sections, and a latency histogram's buckets.
TEST(MetricsRegistryTest, WriteGlobalMetricsWritesLatencyBuckets) {
  MetricsRegistry::Global().latency_histogram("obs_test.latency")->Observe(42);
  auto dir = MakeTempDir("obs_test_metrics_");
  ASSERT_TRUE(dir.ok());
  const std::string path = JoinPath(*dir, "metrics.json");
  ASSERT_TRUE(WriteGlobalMetrics(path).ok());
  auto text = ReadFileToString(path);
  ASSERT_TRUE(text.ok());
  auto parsed = Json::Parse(*text);
  ASSERT_TRUE(parsed.ok()) << *text;
  for (const char* section : {"counters", "gauges", "histograms"}) {
    const Json* found = parsed->Find(section);
    ASSERT_NE(found, nullptr) << section;
    EXPECT_TRUE(found->is_object()) << section;
  }
  const Json* histogram =
      parsed->Find("histograms")->Find("obs_test.latency");
  ASSERT_NE(histogram, nullptr) << *text;
  const Json* buckets = histogram->Find("buckets");
  ASSERT_NE(buckets, nullptr);
  ASSERT_TRUE(buckets->is_array());
  EXPECT_EQ(buckets->AsArray().size(), LatencyBucketsMicros().size() + 1);
  EXPECT_EQ(histogram->GetInt("count", 0), 1);
  (void)RemoveAll(*dir);
}

TEST(MetricsRegistryTest, DeltaReportShowsOnlyChangedMetrics) {
  MetricsRegistry registry;
  Counter* moved = registry.counter("moved");
  registry.counter("idle");
  moved->Add(2);
  MetricsSnapshot before = registry.Snapshot();
  moved->Add(5);
  registry.histogram("lat", {10})->Observe(4);
  std::string report = registry.Snapshot().DeltaReport(before);
  EXPECT_NE(report.find("moved: +5 (total 7)"), std::string::npos) << report;
  EXPECT_NE(report.find("lat: +1 obs"), std::string::npos) << report;
  EXPECT_EQ(report.find("idle"), std::string::npos) << report;
  EXPECT_TRUE(registry.Snapshot().DeltaReport(registry.Snapshot()).empty());
}

class TraceRecorderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TraceRecorder::Disable();
    TraceRecorder::Clear();
  }
  void TearDown() override {
    TraceRecorder::Disable();
    TraceRecorder::Clear();
  }
};

TEST_F(TraceRecorderTest, DisabledSpanIsNoop) {
  {
    Span span("noop", "test");
    EXPECT_FALSE(span.recording());
    EXPECT_EQ(TraceRecorder::CurrentSpanId(), 0);
  }
  EXPECT_TRUE(TraceRecorder::Events().empty());
}

TEST_F(TraceRecorderTest, NestedSpansRecordParentChild) {
  TraceRecorder::Enable();
  int64_t outer_id = 0;
  int64_t inner_id = 0;
  {
    Span outer("outer", "test");
    ASSERT_TRUE(outer.recording());
    outer_id = outer.id();
    EXPECT_EQ(TraceRecorder::CurrentSpanId(), outer_id);
    {
      Span inner("inner", "test");
      inner.AddArg("rows", "42");
      inner_id = inner.id();
      EXPECT_EQ(TraceRecorder::CurrentSpanId(), inner_id);
    }
    EXPECT_EQ(TraceRecorder::CurrentSpanId(), outer_id);
  }
  EXPECT_EQ(TraceRecorder::CurrentSpanId(), 0);

  std::vector<SpanEvent> events = TraceRecorder::Events();
  ASSERT_EQ(events.size(), 2u);  // inner finishes (and records) first
  const SpanEvent& inner = events[0];
  const SpanEvent& outer = events[1];
  EXPECT_EQ(inner.name, "inner");
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(inner.parent_id, outer_id);
  EXPECT_EQ(outer.parent_id, 0);
  EXPECT_EQ(inner.span_id, inner_id);
  EXPECT_EQ(inner.args.at("rows"), "42");
  EXPECT_GE(outer.duration_micros, inner.duration_micros);
  EXPECT_LE(outer.start_micros, inner.start_micros);
}

TEST_F(TraceRecorderTest, ChromeExportRoundTrips) {
  TraceRecorder::Enable();
  {
    Span span("stmt", "engine");
    span.AddArg("sql", "SELECT 1");
  }
  Json trace = TraceRecorder::ExportChromeTrace();
  std::string dump = trace.Dump();
  // Golden structural facts of the trace_event format.
  EXPECT_NE(dump.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(dump.find("\"ph\":\"X\""), std::string::npos) << dump;
  EXPECT_NE(dump.find("\"cat\":\"engine\""), std::string::npos);

  std::vector<SpanEvent> original = TraceRecorder::Events();
  std::vector<SpanEvent> restored = TraceRecorder::EventsFromJson(trace);
  ASSERT_EQ(restored.size(), original.size());
  EXPECT_EQ(restored[0].name, original[0].name);
  EXPECT_EQ(restored[0].category, original[0].category);
  EXPECT_EQ(restored[0].span_id, original[0].span_id);
  EXPECT_EQ(restored[0].parent_id, original[0].parent_id);
  EXPECT_EQ(restored[0].pid, original[0].pid);
  EXPECT_EQ(restored[0].args.at("sql"), "SELECT 1");
}

TEST_F(TraceRecorderTest, WriteToMergesExtraEvents) {
  TraceRecorder::Enable();
  { Span span("local", "test"); }
  SpanEvent remote;
  remote.name = "remote";
  remote.category = "server";
  remote.span_id = 9001;
  remote.pid = 4242;
  std::string path = ::testing::TempDir() + "/obs_trace.json";
  ASSERT_TRUE(TraceRecorder::WriteTo(path, {remote}).ok());

  auto text = ReadFileToString(path);
  ASSERT_TRUE(text.ok());
  auto parsed = Json::Parse(*text);
  ASSERT_TRUE(parsed.ok());
  std::vector<SpanEvent> events = TraceRecorder::EventsFromJson(*parsed);
  ASSERT_EQ(events.size(), 2u);
  bool saw_local = false;
  bool saw_remote = false;
  for (const SpanEvent& event : events) {
    if (event.name == "local") saw_local = true;
    if (event.name == "remote" && event.pid == 4242) saw_remote = true;
  }
  EXPECT_TRUE(saw_local);
  EXPECT_TRUE(saw_remote);
}

TEST(QueryProfileTest, TextRenderingNestsOperators) {
  QueryProfile profile;
  profile.root.label = "HashJoin";
  profile.root.detail = "1 key(s)";
  profile.root.rows_out = 5;
  profile.root.invocations = 1;
  profile.root.wall_nanos = 2'000'000;
  profile.root.build_nanos = 500'000;
  profile.root.probe_nanos = 1'000'000;
  OperatorProfile scan;
  scan.label = "Scan";
  scan.detail = "emp";
  scan.rows_out = 100;
  scan.invocations = 1;
  scan.wall_nanos = 1'000'000;
  profile.root.children.push_back(scan);
  profile.total_nanos = 3'000'000;
  profile.rows_returned = 5;

  std::vector<std::string> analyze = profile.ToTextLines(true);
  ASSERT_GE(analyze.size(), 3u);
  EXPECT_EQ(analyze[0].find("HashJoin"), 0u);
  EXPECT_NE(analyze[0].find("rows=5"), std::string::npos);
  EXPECT_NE(analyze[0].find("build="), std::string::npos);
  EXPECT_EQ(analyze[1].find("  Scan"), 0u);  // child indented
  EXPECT_NE(analyze.back().find("Total:"), std::string::npos);

  // Plain EXPLAIN omits runtime columns entirely.
  for (const std::string& line : profile.ToTextLines(false)) {
    EXPECT_EQ(line.find("rows="), std::string::npos) << line;
    EXPECT_EQ(line.find("time="), std::string::npos) << line;
  }

  std::string json = profile.ToJson().Dump();
  EXPECT_NE(json.find("\"HashJoin\""), std::string::npos);
  EXPECT_NE(json.find("\"children\""), std::string::npos);
}

}  // namespace
}  // namespace ldv::obs
