// Strategy registry: the six built-ins are registered, lookups work, and
// external strategies (the drop-in point for future distributed/streaming
// backends) can be added or replace built-ins without touching callers.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>

#include "common/fixtures.hpp"
#include "glove/api/engine.hpp"
#include "glove/api/sink.hpp"
#include "glove/api/source.hpp"

namespace glove::api {
namespace {

TEST(Registry, BuiltinStrategiesAreRegistered) {
  const Engine engine;
  const std::vector<std::string> names = engine.strategies();
  const std::vector<std::string> expected{"chunked", "full", "incremental",
                                          "pruned-kgap", "sharded",
                                          "w4m-baseline"};
  EXPECT_EQ(names, expected);  // strategies() returns sorted names
  for (const std::string& name : expected) {
    const Anonymizer* strategy = engine.find(name);
    ASSERT_NE(strategy, nullptr) << name;
    EXPECT_EQ(strategy->name(), name);
    EXPECT_FALSE(strategy->description().empty()) << name;
  }
  EXPECT_EQ(engine.find("nope"), nullptr);
}

/// A minimal external backend: publishes the input unchanged (only valid
/// for already-anonymized data — the sink rejects anything else — but
/// enough to prove the plug-in seam).
class IdentityStrategy final : public Anonymizer {
 public:
  std::string_view name() const noexcept override { return "identity"; }
  std::string_view description() const noexcept override {
    return "returns the input dataset unchanged";
  }
  StrategyOutcome run(const cdr::FingerprintDataset& data, const RunConfig&,
                      const RunContext& context) const override {
    context.hooks.report(1, 1);
    StrategyOutcome outcome;
    outcome.anonymized = cdr::FingerprintDataset{
        {data.fingerprints().begin(), data.fingerprints().end()},
        data.name()};
    outcome.counters.input_users = data.total_users();
    outcome.counters.output_groups = data.size();
    return outcome;
  }
};

TEST(Registry, ExternalStrategyRunsThroughTheSameEntryPoint) {
  Engine engine;
  engine.register_strategy(std::make_unique<IdentityStrategy>());
  ASSERT_NE(engine.find("identity"), nullptr);

  RunConfig config;
  const auto anonymized = engine.run(test::paired_dataset(), config);
  ASSERT_TRUE(anonymized.ok()) << anonymized.error().message;
  const cdr::FingerprintDataset& data = anonymized.value().anonymized;
  config.strategy = "identity";
  const auto result = engine.run(data, config);
  ASSERT_TRUE(result.ok()) << result.error().message;
  EXPECT_EQ(result.value().anonymized.size(), data.size());
  EXPECT_EQ(result.value().strategy, "identity");
}

/// A broken streaming backend: publishes every input fingerprint as its
/// own group, whatever k asks.
class PassThroughStreamingStrategy final : public Anonymizer {
 public:
  std::string_view name() const noexcept override { return "pass-through"; }
  std::string_view description() const noexcept override {
    return "streams the input out ungrouped";
  }
  bool supports_streaming() const noexcept override { return true; }
  StrategyOutcome run_streaming(DatasetSource& source, const RunConfig&,
                                const RunContext&,
                                DatasetSink& sink) const override {
    sink.begin(source.name());
    cdr::Fingerprint fp;
    while (source.next(fp)) sink.write(std::move(fp));
    sink.finish();
    return StrategyOutcome{};
  }
};

TEST(Registry, SinkRejectsAGroupSmallerThanK) {
  Engine engine;
  engine.register_strategy(std::make_unique<PassThroughStreamingStrategy>());
  RunConfig config;
  config.strategy = "pass-through";
  const cdr::FingerprintDataset data = test::paired_dataset();
  MemorySource source{data};
  MemorySink sink;
  const auto result = engine.run(source, sink, config);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kInternal);
  EXPECT_NE(result.error().message.find("k-anonymity"), std::string::npos)
      << result.error().message;
  EXPECT_EQ(sink.groups_written(), 0u);

  // The same sink outside an Engine run (a format conversion) is unarmed.
  MemorySink unarmed;
  unarmed.write(data[0]);
  EXPECT_EQ(unarmed.groups_written(), 1u);
}

TEST(Registry, RegisteringExistingNameReplacesTheStrategy) {
  Engine engine;
  const std::size_t before = engine.strategies().size();

  // Replace "full" with an identity backend under the same name.
  struct NamedFull final : Anonymizer {
    std::string_view name() const noexcept override { return "full"; }
    std::string_view description() const noexcept override {
      return "replacement";
    }
    StrategyOutcome run(const cdr::FingerprintDataset& data, const RunConfig&,
                        const RunContext&) const override {
      StrategyOutcome outcome;
      outcome.anonymized = cdr::FingerprintDataset{
          {data.fingerprints().begin(), data.fingerprints().end()},
          data.name()};
      return outcome;
    }
  };
  engine.register_strategy(std::make_unique<NamedFull>());
  EXPECT_EQ(engine.strategies().size(), before);
  EXPECT_EQ(engine.find("full")->description(), "replacement");
}

}  // namespace
}  // namespace glove::api
