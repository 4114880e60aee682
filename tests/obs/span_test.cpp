// Span tracing: nesting/balance of the exported begin/end stream, arg
// attachment, the off-by-default fast path, and a round-trip of the
// rendered document through tools/check_trace.py (the same validator CI
// runs on --trace-out files).

#include "glove/obs/span.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "common/temp_dir.hpp"

namespace glove::obs {
namespace {

std::size_t count_occurrences(const std::string& haystack,
                              const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

TEST(ObsSpan, DisabledByDefaultAndRendersEmpty) {
  EXPECT_FALSE(tracing_enabled());
  { GLOVE_SPAN("test.span.untraced"); }
  start_tracing();
  const std::string doc = stop_tracing_and_render();
  EXPECT_EQ(doc.find("test.span.untraced"), std::string::npos);
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
}

TEST(ObsSpan, RecordsBalancedNestedEventsPerThread) {
  start_tracing();
  {
    GLOVE_SPAN("test.span.outer");
    { GLOVE_SPAN("test.span.inner"); }
    std::thread worker{[] { GLOVE_SPAN("test.span.worker"); }};
    worker.join();
  }
  const std::string doc = stop_tracing_and_render();
  EXPECT_FALSE(tracing_enabled());
  for (const char* name :
       {"test.span.outer", "test.span.inner", "test.span.worker"}) {
    EXPECT_EQ(count_occurrences(doc, std::string{"\""} + name + "\""), 2u)
        << name << " must appear exactly as one B and one E event";
  }
  EXPECT_EQ(count_occurrences(doc, "\"ph\": \"B\""),
            count_occurrences(doc, "\"ph\": \"E\""));
  // The worker thread got its own tid lane.
  EXPECT_GE(count_occurrences(doc, "\"tid\": "), 6u);
}

TEST(ObsSpan, ArgsAttachToTheEndEvent) {
  start_tracing();
  {
    GLOVE_SPAN_NAMED(span, "test.span.args");
    span.arg("members", 42);
    span.arg("groups", 7);
  }
  const std::string doc = stop_tracing_and_render();
  EXPECT_NE(doc.find("\"members\": 42"), std::string::npos);
  EXPECT_NE(doc.find("\"groups\": 7"), std::string::npos);
}

TEST(ObsSpan, SpanLeftOpenAtStopIsDroppedCleanly) {
  start_tracing();
  auto* open = new Span{"test.span.leaked"};
  {
    GLOVE_SPAN("test.span.closed");  // nested inside the open span
  }
  const std::string doc = stop_tracing_and_render();
  delete open;  // end lands after the cut; must not corrupt anything
  EXPECT_EQ(doc.find("test.span.leaked"), std::string::npos);
  EXPECT_EQ(count_occurrences(doc, "\"test.span.closed\""), 2u);
}

TEST(ObsSpan, RestartClearsThePreviousTrace) {
  start_tracing();
  { GLOVE_SPAN("test.span.first_run"); }
  (void)stop_tracing_and_render();
  start_tracing();
  { GLOVE_SPAN("test.span.second_run"); }
  const std::string doc = stop_tracing_and_render();
  EXPECT_EQ(doc.find("test.span.first_run"), std::string::npos);
  EXPECT_NE(doc.find("test.span.second_run"), std::string::npos);
}

TEST(ObsSpan, RenderedTracePassesCheckTracePy) {
  if (std::system("python3 -c 'pass' > /dev/null 2>&1") != 0) {
    GTEST_SKIP() << "python3 not available";
  }
  start_tracing();
  {
    GLOVE_SPAN_NAMED(outer, "test.span.roundtrip");
    outer.arg("items", 3);
    for (int i = 0; i < 3; ++i) { GLOVE_SPAN("test.span.item"); }
    std::thread worker{[] { GLOVE_SPAN("test.span.roundtrip_worker"); }};
    worker.join();
  }
  const std::string doc = stop_tracing_and_render();
  const test::TempDir dir;
  const std::string path = dir.file("trace.json");
  {
    std::ofstream out{path};
    out << doc;
    ASSERT_TRUE(out.good());
  }
  const std::string command = std::string{"python3 "} + GLOVE_CHECK_TRACE +
                              " " + path +
                              " --require test.span.roundtrip"
                              " --require test.span.item"
                              " --require test.span.roundtrip_worker";
  EXPECT_EQ(std::system(command.c_str()), 0)
      << "check_trace.py rejected the rendered document:\n"
      << doc;
}

TEST(ObsSpan, CheckTracePyMinThreadsNeedsOverlappingSpans) {
  if (std::system("python3 -c 'pass' > /dev/null 2>&1") != 0) {
    GTEST_SKIP() << "python3 not available";
  }
  const test::TempDir dir;
  const std::string path = dir.file("trace.json");
  const auto min_threads_check = [&](const std::string& doc) {
    {
      std::ofstream out{path};
      out << doc;
    }
    std::string command = std::string{"python3 "} + GLOVE_CHECK_TRACE;
    command += " " + path;
    command += " --min-threads test.span.parallel=2 > /dev/null 2>&1";
    return std::system(command.c_str());
  };
  // Each thread holds its span open until the other one has entered
  // its own, so the two spans overlap by construction.
  std::atomic<int> inside{0};
  const auto body = [&](bool wait_for_peer) {
    GLOVE_SPAN("test.span.parallel");
    inside.fetch_add(1);
    while (wait_for_peer && inside.load() < 2) std::this_thread::yield();
  };

  start_tracing();
  {
    std::thread a{body, true};
    std::thread b{body, true};
    a.join();
    b.join();
  }
  EXPECT_EQ(min_threads_check(stop_tracing_and_render()), 0);

  // The same span on two threads, one after the other: two threads, but
  // never at once.
  start_tracing();
  {
    std::thread a{body, false};
    a.join();
    std::thread b{body, false};
    b.join();
  }
  EXPECT_NE(min_threads_check(stop_tracing_and_render()), 0);
}

}  // namespace
}  // namespace glove::obs
